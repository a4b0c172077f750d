import pytest

import chorefair.envy_graph as envy_graph
from chorefair.core import is_alpha_efx

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def cycle_removal_guard(monkeypatch):
    """Trace every extension and check each single cycle removal in it
    against the allocation before it (the seed, or the previous event's
    snapshot): every rotating agent's own cost strictly falls, and the 1-EFX
    and 2-EFX verdicts are kept; returns the list of removals."""
    removals: list = []
    original = envy_graph._ttece

    def guarded(alloc, instance, pool_order, trace=None):
        events = [] if trace is None else trace
        first = len(events)
        try:
            return original(alloc, instance, pool_order, events)
        finally:  # a run that fails still has its removals checked
            prev = alloc
            for event in events[first:]:
                if event.kind == "cycle":
                    for a in event.agents:
                        units = instance.oracles[a].units
                        after, before = event.allocation.bundles[a], prev.bundles[a]
                        assert units(after) < units(before), (
                            f"cycle removal {event.agents} did not lower agent "
                            f"{a}'s own cost")
                    for alpha in (1, 2):
                        if is_alpha_efx(prev, instance, alpha):
                            assert is_alpha_efx(event.allocation, instance, alpha), (
                                f"cycle removal {event.agents} broke the "
                                f"{alpha}-EFX verdict")
                    removals.append(event.agents)
                prev = event.allocation

    monkeypatch.setattr(envy_graph, "_ttece", guarded)
    return removals
