"""Exact-arithmetic fair division of indivisible chores.

Constructive algorithms for approximate-EFX and tEFX allocations, exact
fairness checkers, brute-force verification oracles, and seeded instance
generators.  All arithmetic is rational; no floats anywhere.
"""

from .core import (
    Allocation,
    Event,
    FairnessReport,
    Instance,
    Witness,
    check_alpha_efx,
    check_partial_property2,
    check_tefx,
    is_alpha_efx,
    is_tefx,
    max_removal_cost,
)
from .envy_graph import (
    TopTradingGraph,
    build_top_trading_graph,
    eliminate_top_trading_cycles,
    extend_partial,
)
from .errors import (
    ChorefairError,
    DimensionError,
    EnumerationLimitError,
    NoSuchSubsetError,
    PreconditionError,
    VerificationError,
)
from .ido import check_k_partial_ido, partial_ido_2efx
from .oracles import (
    AdditiveOracle,
    CappedAdditiveOracle,
    CostOracle,
    MaxOfAdditiveOracle,
    RowOracle,
    TabulatedOracle,
    generate_instance,
    ratio_bound,
    top_chore_order,
    validate_oracle,
)
from .round_robin import guarantee_ratio, round_robin_allocate
from .tefx import GroupSpec, identical_cost_efx, tefx_three_group, tefx_two_group
from .three_agent import classify_case, find_subset_D, solve_case, three_agent_2efx
from .verify import (
    counterexample_instance,
    exhaustive_search,
    independent_alpha_efx,
    independent_tefx,
    rival_counterexample_run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
