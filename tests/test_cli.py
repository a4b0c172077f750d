import json
from fractions import Fraction

import pytest

from chorefair import (
    AdditiveOracle,
    Allocation,
    CappedAdditiveOracle,
    Instance,
    MaxOfAdditiveOracle,
    TabulatedOracle,
    check_alpha_efx,
    check_k_partial_ido,
    generate_instance,
)
from chorefair import cli
from chorefair.cli import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    main,
    oracle_from_json,
    oracle_to_json,
    parse_rational,
)
from chorefair.verify import counterexample_instance, exhaustive_search


def roundtrip(oracle, m):
    return oracle_from_json(oracle_to_json(oracle), m)


def test_parse_rational_rejects_floats():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)  # a bool is an int in Python, not in JSON


@pytest.mark.parametrize("text", [
    "1e3", "1e99999999", "0.5", " 3 ", "3/", "/4", "+3", "3/-4", "\u0663",
    pytest.param("1" * 1001, id="1001-digits")])
def test_parse_rational_refuses_all_but_p_over_q(text):
    # Fraction takes each of these but the last two; an exponent it
    # expands in full, so "1e99999999" would never finish
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_takes_signed_p_over_q():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("7" * 1000) == int("7" * 1000)


def test_parse_rational_keeps_integers_as_int():
    for value, parsed in ((5, 5), ("5", 5), ("-0", 0), ("007", 7), ("6/3", 2),
                          ("6/4", Fraction(3, 2)), ("-0/5", 0)):
        result = parse_rational(value)
        assert result == parsed
        assert type(result) is (Fraction if "/" in str(value) else int)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", "5/000"])
def test_parse_rational_names_a_zero_denominator(text):
    with pytest.raises(ValueError, match=f"rational '{text}' has a zero denominator"):
        parse_rational(text)


def test_zero_denominator_exit_2(tmp_path, capsys):
    data = set_in(additive_data(), ("agents", 0, "costs", 0), "1/0")
    inst_path = tmp_path / "zero.json"
    inst_path.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(inst_path), "--algorithm",
                 "three-agent-2efx"])
    assert_input_error(code, capsys, "rational '1/0' has a zero denominator")
    code = main(["gen", "--family", "additive_ratio", "--n", "3", "--m", "8",
                 "--seed", "1", "--alpha", "3/0"])
    assert_input_error(code, capsys, "rational '3/0' has a zero denominator")


def test_oracle_roundtrips():
    m = 3
    subsets = [frozenset(s) for s in
               [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]]
    oracles = [
        ("additive", AdditiveOracle([1, Fraction(3, 2), 2])),
        ("additive", MaxOfAdditiveOracle([[1, Fraction(3, 2), 2]])),
        # duplicate rows are one row
        ("additive", MaxOfAdditiveOracle([[1, 2, 3], [1, 2, 3]])),
        ("capped_additive", CappedAdditiveOracle([1, 2, 3], Fraction(7, 2))),
        ("max_of_additive", MaxOfAdditiveOracle([[1, 2, 3], [3, 1, 2]])),
        ("table", TabulatedOracle(m, {s: Fraction(len(s) * 2, 3) for s in subsets})),
    ]
    for kind, oracle in oracles:
        assert oracle_to_json(oracle)["type"] == kind
        back = roundtrip(oracle, m)
        assert back == oracle and type(back) is type(oracle)
        for s in subsets:
            assert back.cost(s) == oracle.cost(s)


def test_table_subset_keys_are_one_based():
    o = TabulatedOracle(2, {frozenset(): Fraction(0),
                            frozenset({0}): Fraction(1),
                            frozenset({1}): Fraction(2),
                            frozenset({0, 1}): Fraction(3)})
    data = oracle_to_json(o)
    assert set(data["values"]) == {"", "1", "2", "1,2"}


def test_instance_roundtrip_and_schema_check():
    inst = generate_instance("capped_additive", 3, 5, 7)
    data = instance_to_json(inst)
    back = instance_from_json(data)
    assert back.m == inst.m and back.n == inst.n
    for a in range(3):
        assert back.oracles[a].cost(frozenset({0, 2})) == \
            inst.oracles[a].cost(frozenset({0, 2}))
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        instance_from_json(data)


def test_allocation_roundtrip_is_one_based():
    inst = generate_instance("additive", 2, 4, 1)
    data = {"allocation": [[1, 3], [4]], "pool": [2]}
    alloc = allocation_from_json(data, inst.m)
    assert alloc.bundles == (frozenset({0, 2}), frozenset({3}))
    assert alloc.pool == frozenset({1})
    assert allocation_to_json(alloc) == data


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(inst)))
    return str(path)


def test_solve_three_agent(tmp_path):
    inst = counterexample_instance(26, 12)
    inst_path = write_instance(tmp_path, inst)
    out = tmp_path / "result.json"
    code = main(["solve", "--instance", inst_path,
                 "--algorithm", "three-agent-2efx", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] is True
    assert payload["allocation"] == [[2, 5], [3, 4, 6], [1]]


def test_solve_round_robin_with_order_and_trace(tmp_path, capsys):
    o = AdditiveOracle([2, 3, 3, 4])
    inst_path = write_instance(tmp_path, Instance(4, 2, (o, o)))
    code = main(["solve", "--instance", inst_path, "--algorithm",
                 "round-robin", "--order", "2,1", "--trace"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"][0].startswith("round 1: agent 2")


@pytest.mark.parametrize("flag, value, word", [
    ("--order", "+2,1", "digits"), ("--order", "2, 1", "digits"),
    ("--group1", "1,1", "repeats"),
    ("--group1", "+1", "digits"), ("--sizes", "+2,1", "digits"),
    ("--sizes", "2,1_0", "digits"), ("--order", "3,1", "out of range"),
    ("--order", "0,1", "out of range")])
def test_index_lists_must_be_plain_digits(tmp_path, capsys, flag, value, word):
    # int() reads each digits case, so they once ran as if spelled plainly;
    # a 1-based index must also name an agent
    if flag == "--sizes":
        argv = ["gen", "--family", "identical_groups", "--n", "3", "--m", "6",
                "--seed", "0"]
    elif flag == "--order":
        o = AdditiveOracle([2, 3, 3, 4])
        argv = ["solve", "--instance", write_instance(tmp_path, Instance(4, 2, (o, o))),
                "--algorithm", "round-robin"]
    else:
        c1, c2, c3 = two_group_oracles()
        argv = ["solve", "--instance",
                write_instance(tmp_path, Instance(9, 3, (c1, c2, c3))),
                "--algorithm", "tefx-three-group", "--group2", "2", "--group3", "3"]
    assert_input_error(main(argv + [flag, value]), capsys, repr(value), word)


def test_solve_refuses_empty_order(tmp_path, capsys):
    # "" once ran the default order 1..n
    o = AdditiveOracle([2, 3, 3, 4])
    argv = ["solve", "--instance", write_instance(tmp_path, Instance(4, 2, (o, o))),
            "--algorithm", "round-robin", "--order", ""]
    assert_input_error(main(argv), capsys, "permutation")


def test_solve_round_robin_checks_only_the_claimed_guarantee(tmp_path, capsys):
    # ratios 2.9, 12.1 and 10.3 over three rounds: no tEFX claim (this
    # allocation has a tEFX witness), alpha-EFX at 1 + (12.1 - 1)/2 instead
    seed12 = write_instance(tmp_path, generate_instance("additive", 3, 9, 12))
    assert main(["solve", "--instance", seed12, "--algorithm", "round-robin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["criterion"], payload["alpha"], payload["verdict"]) == (
        "alpha_efx", "203/31", True)
    capped = write_instance(tmp_path, generate_instance("capped_additive", 3, 9, 12))
    assert main(["solve", "--instance", capped, "--algorithm", "round-robin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["criterion"], payload["verdict"]) == (None, None)


def two_group_oracles():
    c1 = MaxOfAdditiveOracle([[3, 11, 14, 11, 3, 17, 1, 14, 20],
                              [16, 8, 2, 4, 3, 5, 10, 14, 2]])
    c2 = AdditiveOracle([4095, 2919, 2373, 2709, 2730, 2499, 4137, 2394, 3570])
    c3 = AdditiveOracle([9, 5, 3, 2, 2, 1, 2, 9, 7])
    return c1, c2, c3


def test_solve_trace_for_every_algorithm(tmp_path, capsys):
    c1, c2, c3 = two_group_oracles()
    move = ("level k=2: chore 7 from bundle 1 to bundle 3: "
            "bundles [[4, 9], [1, 2, 3, 5], [6, 7, 8]]")
    runs = [
        # a case-B1 seed with pool [1, 4, 6, 7]
        (generate_instance("additive", 3, 7, 0), ["three-agent-2efx"],
         "chore 1 to sink agent 1: bundles [[1, 3], [5], [2]], pool [4, 6, 7]"),
        (generate_instance("k_partial_ido", 3, 9, 17, k=2),
         ["partial-ido-2efx"],
         "envy cycle 2 -> 3 -> 2: bundles [[6], [2, 3, 4, 5, 7], [1]], "
         "pool [8, 9]"),
        (generate_instance("additive_ratio", 3, 9, 2, alpha=3),
         ["round-robin"], "round 1: agent 1 takes chore 8"),
        (Instance(9, 3, (c1, c2, c2)), ["tefx-two-group", "--k", "2"], move),
        (Instance(9, 3, (c1, c2, c3)),
         ["tefx-three-group", "--group1", "1", "--group2", "2",
          "--group3", "3"], move),
    ]
    for inst, algorithm, line in runs:
        inst_path = write_instance(tmp_path, inst)
        argv = ["solve", "--instance", inst_path, "--algorithm", *algorithm]
        assert main(argv) == 0
        assert "trace" not in json.loads(capsys.readouterr().out)
        assert main(argv + ["--trace"]) == 0
        assert line in json.loads(capsys.readouterr().out)["trace"]


def assert_input_error(code, capsys, *words):
    assert code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    for word in words:
        assert word in captured.err


def test_solve_two_group_checks_groups(tmp_path, capsys):
    c1, c2, c3 = two_group_oracles()
    # --k 1: agents 1 and 2 form group 1 but do not share an oracle
    inst_path = write_instance(tmp_path, Instance(9, 3, (c1, c3, c2)))
    code = main(["solve", "--instance", inst_path,
                 "--algorithm", "tefx-two-group", "--k", "1"])
    assert_input_error(code, capsys, "identical")


@pytest.mark.parametrize("k", [None, "0", "3"])
def test_solve_two_group_k_out_of_range(tmp_path, capsys, k):
    _, c2, _ = two_group_oracles()
    inst_path = write_instance(tmp_path, Instance(9, 3, (c2, c2, c2)))
    argv = ["solve", "--instance", inst_path, "--algorithm", "tefx-two-group"]
    code = main(argv + (["--k", k] if k else []))
    assert_input_error(code, capsys, "--k")
    # agents sharing one cost are one group 1 agent and n - 1 group 2 agents
    assert main(argv + ["--k", "2"]) == 0


def test_solve_refuses_partial_output(tmp_path, capsys, monkeypatch):
    inst = counterexample_instance(26, 12)
    partial = Allocation.from_bundles([{0}, {1}, {2}], inst.m)
    assert check_alpha_efx(partial, inst, 2).verdict
    monkeypatch.setattr(cli, "three_agent_2efx", lambda instance, trace: partial)
    code = main(["solve", "--instance", write_instance(tmp_path, inst),
                 "--algorithm", "three-agent-2efx"])
    assert code == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and "unallocated" in captured.err


def table_instance(tmp_path, monotone=True):
    values = {frozenset(s): Fraction(len(s)) for s in
              [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]}
    good = TabulatedOracle(3, values)
    if not monotone:
        values[frozenset({0, 1})] = Fraction(0)  # below C({1}) = 1
    return write_instance(tmp_path, Instance(
        3, 3, (good, good, TabulatedOracle(3, values))))


def allocation_file(tmp_path):
    path = tmp_path / "alloc.json"
    path.write_text(json.dumps({"allocation": [[1], [2], [3]]}))
    return str(path)


def test_negative_cap_rejected(tmp_path, capsys):
    data = instance_to_json(generate_instance("capped_additive", 3, 3, 1))
    data["agents"][2]["cap"] = "-1"
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(data))
    assert_input_error(main(["verify", "--instance", str(inst_path),
                             "--allocation", allocation_file(tmp_path),
                             "--criterion", "efx"]), capsys, "non-negative")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_monotone_table_rejected(tmp_path, capsys, command):
    argv = [command, "--instance", table_instance(tmp_path, monotone=False)]
    if command == "solve":
        argv += ["--algorithm", "three-agent-2efx"]
    else:
        argv += ["--allocation", allocation_file(tmp_path), "--criterion", "efx"]
    assert_input_error(main(argv), capsys, "not monotone", "chore 2 to {1}")


@pytest.mark.parametrize("key, value", [
    ("2,1", "3"), ("1,1", "1"), ("01", "1"), (" 2", "1"), ("+3", "1")])
def test_table_key_spelled_twice_exit_2(tmp_path, capsys, key, value):
    # each key re-spells a subset the table already names; the values keep
    # the table monotone, so the later one once replaced the earlier silently
    path = table_instance(tmp_path)
    with open(path) as handle:
        data = json.load(handle)
    data["agents"][2]["values"][key] = value
    with open(path, "w") as handle:
        json.dump(data, handle)
    assert_input_error(main(["verify", "--instance", path, "--allocation",
                             allocation_file(tmp_path), "--criterion", "efx"]),
                       capsys, "subset key", repr(key))


def test_table_beyond_enumeration_guard(tmp_path, capsys, monkeypatch):
    # the 3-chore table's monotone check takes 3 * 2^3 = 24 steps
    argv = ["verify", "--instance", table_instance(tmp_path), "--allocation",
            allocation_file(tmp_path), "--criterion", "efx"]
    monkeypatch.setattr("chorefair.oracles.ENUM_LIMIT", 23)
    assert_input_error(main(argv), capsys, "monotone check", "24 steps")
    monkeypatch.setattr("chorefair.oracles.ENUM_LIMIT", 24)
    assert main(argv) == 0


def test_solve_rejects_non_ido_instance(tmp_path):
    inst_path = write_instance(tmp_path, counterexample_instance(26, 12))
    code = main(["solve", "--instance", inst_path,
                 "--algorithm", "partial-ido-2efx"])
    assert code == 2


def test_solve_missing_file_exit_2(tmp_path):
    code = main(["solve", "--instance", str(tmp_path / "absent.json"),
                 "--algorithm", "three-agent-2efx"])
    assert code == 2


def test_verify_exit_codes(tmp_path, capsys):
    inst = counterexample_instance(26, 12)
    inst_path = write_instance(tmp_path, inst)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"allocation": [[2, 5], [3, 4, 6], [1]],
                                "pool": []}))
    assert main(["verify", "--instance", inst_path, "--allocation", str(good),
                 "--criterion", "efx"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"allocation": [[2], [3, 4, 5], [1, 6]],
                               "pool": []}))
    assert main(["verify", "--instance", inst_path, "--allocation", str(bad),
                 "--criterion", "alpha_efx", "--alpha", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"]
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["verify", "--instance", inst_path, "--allocation",
                 str(broken), "--criterion", "efx"]) == 2


@pytest.mark.parametrize("bundles", [
    {"allocation": [[1], [2], [3]]},              # chores 4, 5 and 6 are left out
    {"allocation": [[0, 1], [2, 3], [4, 5, 6]]},  # chore ids start at 1
    # a chore listed twice was once merged into one and the file judged
    {"allocation": [[1, 1, 2], [3, 4], [5, 6]]},
    {"allocation": [[1, 2], [3, 4], [5]], "pool": [6, 6]},
])
def test_verify_rejects_allocation_not_covering_chores(tmp_path, capsys, bundles):
    inst_path = write_instance(tmp_path, counterexample_instance(20, 8))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(bundles))
    assert_input_error(main(["verify", "--instance", inst_path, "--allocation",
                             str(alloc), "--criterion", "efx"]),
                       capsys, "must hold each chore 1..6 once")


@pytest.mark.parametrize("data", [
    {"allocation": [[1.5, 2], [3, 4], [5, 6]]},  # 1.5 once read as chore 1
    {"allocation": [[True, 2], [3, 4], [5, 6]]},
    {"allocation": [[1, 2], [3, 4], [5]], "pool": [6.0]},
    {"allocation": [[1, 2], [3, 4], [5]], "pool": ["6"]},
])
def test_verify_rejects_non_integer_chores(tmp_path, capsys, data):
    inst_path = write_instance(tmp_path, counterexample_instance(20, 8))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(data))
    assert main(["verify", "--instance", inst_path, "--allocation", str(alloc),
                 "--criterion", "efx"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    with pytest.raises(ValueError, match="integer"):
        allocation_from_json(data, 6)


@pytest.mark.parametrize("data", [
    {"allocation": [1, 2, 3, 4, 5, 6]},  # flat: no bundles
    {"allocation": "123456"},
    {"allocation": [[1, 2], [3, 4], [5]], "pool": 6},
    [[1, 2], [3, 4], [5, 6]],  # the bundles without the object around them
])
def test_verify_rejects_wrong_json_types(tmp_path, capsys, data):
    inst_path = write_instance(tmp_path, counterexample_instance(20, 8))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(data))
    assert main(["verify", "--instance", inst_path, "--allocation", str(alloc),
                 "--criterion", "efx"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    with pytest.raises(ValueError, match="must be a JSON"):
        allocation_from_json(data, 6)


@pytest.mark.parametrize("field, value", [
    ("m", 6.9), ("m", 6.0), ("m", True), ("m", "6"), ("n", 3.0), ("n", True)])
def test_instance_counts_must_be_integers(tmp_path, capsys, field, value):
    data = instance_to_json(counterexample_instance(20, 8))
    data[field] = value
    with pytest.raises(ValueError, match="integer"):
        instance_from_json(data)
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(inst_path), "--algorithm",
                 "round-robin"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("error:")


def additive_data(family="additive"):
    return instance_to_json(generate_instance(family, 3, 6, 1))


def with_table(data):
    subsets = [frozenset(s) for s in [(), (0,), (1,), (0, 1)]]
    data["m"] = 2
    data["agents"] = [oracle_to_json(TabulatedOracle(
        2, {s: Fraction(len(s)) for s in subsets}))] * 3
    return data


def set_in(data, path, value):
    """data with the entry at path (keys and indices) set to value."""
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("data", [
    # a string of digits once read as six one-digit costs, verdict true
    set_in(additive_data(), ("agents", 0, "costs"), "012345"),
    [1, 2],
    set_in(additive_data(), ("agents", 0), 5),
    set_in(additive_data(), ("agents",), {"1": 2}),
    set_in(additive_data("max_of_additive"), ("agents", 1, "rows"), "012345"),
    set_in(additive_data("max_of_additive"), ("agents", 1, "rows", 0), "012345"),
    set_in(with_table(additive_data()), ("agents", 2, "values"), [["1", "1"]]),
], ids=["string-costs", "top-level-list", "number-agent", "object-agents",
        "string-rows", "string-row", "list-values"])
def test_instance_wrong_json_types_exit_2(tmp_path, capsys, data):
    with pytest.raises(ValueError, match="must be a JSON"):
        instance_from_json(data)
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(inst_path), "--algorithm",
                 "three-agent-2efx"])
    assert_input_error(code, capsys, "must be a JSON")


@pytest.mark.parametrize("kind", ["cubic", None])
def test_unknown_oracle_type_exit_2(tmp_path, capsys, kind):
    data = set_in(additive_data(), ("agents", 1, "type"), kind)
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(inst_path), "--algorithm",
                 "three-agent-2efx"])
    assert_input_error(code, capsys, f"unknown oracle type {kind!r}")


def test_exponent_rationals_exit_2(tmp_path, capsys):
    data = set_in(additive_data(), ("agents", 0, "costs", 0), "1e5")
    inst_path = tmp_path / "exponent.json"
    inst_path.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(inst_path), "--algorithm",
                 "three-agent-2efx"])
    assert_input_error(code, capsys, "p/q")
    inst_path = write_instance(tmp_path, counterexample_instance(20, 8))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"allocation": [[2, 5], [3, 4, 6], [1]]}))
    code = main(["verify", "--instance", inst_path, "--allocation", str(alloc),
                 "--criterion", "alpha_efx", "--alpha", "1e99999999"])
    assert_input_error(code, capsys, "p/q")


def test_solve_exhaustive(tmp_path, capsys):
    inst = generate_instance("additive", 3, 5, 2)
    argv = ["solve", "--instance", write_instance(tmp_path, inst),
            "--algorithm", "exhaustive", "--criterion", "alpha_efx"]
    assert main(argv + ["--alpha", "3/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = allocation_to_json(exhaustive_search(inst, "alpha_efx", Fraction(3, 2)))
    assert payload["allocation"] == expected["allocation"]
    assert (payload["alpha"], payload["verdict"]) == ("3/2", True)
    # below 1 is refused as input, not searched for and not found
    assert_input_error(main(argv + ["--alpha", "-5"]), capsys, "alpha must be >= 1")


def test_solve_exhaustive_without_an_allocation_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "exhaustive_search", lambda *args: None)
    assert main(solve_argv(tmp_path, "exhaustive")) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "no allocation satisfies the criterion\n")


# each algorithm: the flags it needs here, and every flag that only some
# algorithms read that it reads
SOLVE_RUNS = {
    "three-agent-2efx": ([], ()), "partial-ido-2efx": ([], ()),
    "round-robin": ([], ("--order",)),
    "tefx-two-group": (["--k", "1"], ("--k",)),
    "tefx-three-group": (["--group1", "1", "--group2", "2", "--group3", "3"],
                         ("--group1", "--group2", "--group3")),
    "exhaustive": ([], ("--criterion", "--alpha")),
}
SOLVE_FLAG_VALUES = {"--order": "2,1,3", "--k": "1", "--group1": "1",
                     "--group2": "2", "--group3": "3", "--criterion": "efx",
                     "--alpha": "2"}


def solve_argv(tmp_path, algorithm):
    o = AdditiveOracle([6, 5, 4, 4, 3, 3])  # 2-ratio-bounded: tEFX applies
    return ["solve", "--instance", write_instance(tmp_path, Instance(6, 3, (o, o, o))),
            "--algorithm", algorithm, *SOLVE_RUNS[algorithm][0]]


@pytest.mark.parametrize("algorithm, flag", [
    (algorithm, flag) for algorithm in SOLVE_RUNS for flag in SOLVE_FLAG_VALUES
    if flag not in SOLVE_RUNS[algorithm][1]])
def test_solve_refuses_a_flag_its_algorithm_does_not_read(
        tmp_path, capsys, algorithm, flag):
    argv = solve_argv(tmp_path, algorithm)
    assert main(argv) == 0
    capsys.readouterr()
    assert_input_error(main(argv + [flag, SOLVE_FLAG_VALUES[flag]]), capsys,
                       repr(algorithm), flag)


@pytest.mark.parametrize("algorithm, flags, named", [
    ("three-agent-2efx",
     ["--alpha", "5", "--criterion", "tefx", "--order", "3,2,1", "--k", "2",
      "--group1", "1"],
     "does not use --order, --k, --group1, --criterion, --alpha"),
    ("round-robin", ["--group1", "1,2", "--alpha", "9"],
     "does not use --group1, --alpha")], ids=["three-agent-2efx", "round-robin"])
def test_solve_names_every_stray_flag(tmp_path, capsys, algorithm, flags, named):
    assert_input_error(main(solve_argv(tmp_path, algorithm) + flags), capsys, named)


@pytest.mark.parametrize("command, criterion", [
    ("verify", "efx"), ("verify", "tefx"), ("exhaustive", "efx"),
    ("exhaustive", "tefx"), ("exhaustive", None)])
def test_alpha_only_with_alpha_efx(tmp_path, capsys, command, criterion):
    # each once ran at the criterion's own alpha and dropped --alpha
    if command == "verify":
        inst_path = write_instance(tmp_path, counterexample_instance(26, 12))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"allocation": [[2, 5], [3, 4, 6], [1]]}))
        argv = ["verify", "--instance", inst_path, "--allocation", str(alloc)]
    else:
        argv = solve_argv(tmp_path, "exhaustive")
    if criterion is not None:
        argv += ["--criterion", criterion]
    assert main(argv) == 0
    capsys.readouterr()
    assert_input_error(main(argv + ["--alpha", "3"]), capsys,
                       f"criterion {criterion or 'efx'!r} does not use --alpha")


@pytest.mark.parametrize("command, path, key", [
    ("solve", (), "m"), ("solve", (), "n"), ("solve", (), "agents"),
    ("solve", ("agents", 1), "costs"), ("verify", (), "allocation")],
    ids=["m", "n", "agents", "costs", "allocation"])
def test_missing_json_key_names_itself(tmp_path, capsys, command, path, key):
    data = instance_to_json(counterexample_instance(26, 12))
    allocation = {"allocation": [[2, 5], [3, 4, 6], [1]]}
    target = allocation if command == "verify" else data
    for step in path:
        target = target[step]
    del target[key]
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(data))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(allocation))
    argv = (["verify", "--instance", str(inst_path), "--allocation", str(alloc),
             "--criterion", "efx"] if command == "verify" else
            ["solve", "--instance", str(inst_path), "--algorithm", "three-agent-2efx"])
    assert_input_error(main(argv), capsys, f'error: missing key "{key}"')


def test_gen_reproducible_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "additive_ratio", "--n", "3", "--m", "8",
            "--seed", "5", "--alpha", "3"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_counterexample_and_invalid_params(tmp_path, capsys):
    assert main(["gen", "--family", "counterexample", "--m1", "26",
                 "--m2", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agents"][0]["costs"][3] == "1/2"
    assert main(["gen", "--family", "counterexample", "--m1", "10",
                 "--m2", "7"]) == 2
    assert main(["gen", "--family", "no-such-family", "--n", "2", "--m", "4",
                 "--seed", "0"]) == 2


@pytest.mark.parametrize("argv, named", [
    (["--family", "counterexample", "--m1", "26"], "--m1 and --m2 are required"),
    (["--family", "counterexample", "--m2", "12"], "--m1 and --m2 are required"),
    (["--family", "additive", "--n", "3", "--m", "6"], "--n, --m, and --seed"),
    (["--family", "additive", "--m", "6", "--seed", "1"], "--n, --m, and --seed"),
], ids=["no-m2", "no-m1", "no-seed", "no-n"])
def test_gen_missing_a_required_flag_exit_2(capsys, argv, named):
    assert_input_error(main(["gen", *argv]), capsys, named)


def test_gen_refuses_a_flag_its_family_does_not_use(capsys):
    argv = ["gen", "--family", "additive", "--n", "3", "--m", "6", "--seed", "1",
            "--rows", "3", "--k", "2", "--alpha", "5"]
    assert_input_error(main(argv), capsys, "'additive'")


@pytest.mark.parametrize("flag, value", [
    ("--n", "5"), ("--m", "6"), ("--seed", "1"), ("--alpha", "2"),
    ("--k", "2"), ("--sizes", "2,1"), ("--rows", "3")])
def test_gen_counterexample_refuses_generator_flags(flag, value, capsys):
    argv = ["gen", "--family", "counterexample", "--m1", "26", "--m2", "12"]
    assert_input_error(main(argv + [flag, value]), capsys, "'counterexample'", flag)


@pytest.mark.parametrize("flag", ["--m1", "--m2"])
def test_gen_generator_families_refuse_counterexample_flags(flag, capsys):
    argv = ["gen", "--family", "additive", "--n", "3", "--m", "6", "--seed", "1"]
    assert_input_error(main(argv + [flag, "26"]), capsys, "'additive'", flag)


def test_gen_names_every_stray_flag(capsys):
    argv = ["gen", "--family", "counterexample", "--m1", "26", "--m2", "12",
            "--rows", "3", "--n", "5"]
    assert_input_error(main(argv), capsys, "does not use --n, --rows")


def test_gen_passes_rows_and_k_to_their_families(tmp_path, capsys):
    assert main(["gen", "--family", "max_of_additive", "--n", "2", "--m", "5",
                 "--seed", "1", "--rows", "3"]) == 0
    agents = json.loads(capsys.readouterr().out)["agents"]
    assert [len(agent["rows"]) for agent in agents] == [3, 3]
    out = tmp_path / "ido.json"
    assert main(["gen", "--family", "k_partial_ido", "--n", "3", "--m", "8",
                 "--seed", "1", "--k", "1", "--output", str(out)]) == 0
    assert check_k_partial_ido(instance_from_json(json.loads(out.read_text())), 1)


# the whole output at m1 = 26, m2 = 12: the graphs, 1-based, then both
# allocations and verdicts
REPRO_26_12 = (
    "rival cycle-elimination run:\n"
    "  step 0: envy graph [(1, 2)]\n"
    "  step 1: envy graph [(1, 2)]\n"
    "  step 2: envy graph [(1, 2), (2, 3)]\n"
    "  step 3: envy graph [(1, 2), (3, 1)]\n"
    '  final: {"allocation": [[2], [3, 4, 5], [1, 6]], "pool": []}\n'
    "  envy ratio: 4 (= m2/3)\n"
    'own allocation: {"allocation": [[2, 5], [3, 4, 6], [1]], "pool": []}\n'
    "own EFX verdict: True\n"
)


def test_repro_counterexample_exit_codes(capsys):
    assert main(["repro-counterexample", "--m1", "26", "--m2", "12"]) == 0
    assert capsys.readouterr().out == REPRO_26_12
    assert main(["repro-counterexample", "--m1", "bad", "--m2", "12"]) == 2


def test_output_written_atomically(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "additive", "--n", "2", "--m", "3",
                 "--seed", "1", "--output", str(out)]) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
    json.loads(out.read_text())
