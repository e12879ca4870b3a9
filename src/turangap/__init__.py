"""Certified simplex maxima, density chains, and exact occupancy ladders
for collections of r-multisets.

The package namespace holds the names the README tour and the demos use;
everything else is imported from its submodule."""

__version__ = "0.1.0"

from .patterns import (
    BlowupSpec,
    Pattern,
    blow_up,
    blowup_density_check,
    blowup_edge_count,
    evaluate,
    evaluate_exact,
    lagrange_polynomial,
    simple_pattern,
)
from .simplex import OptimizerConfig, certificate, maximize
from .dominance import (
    DownSet,
    bunching_indices,
    bunching_verify,
    compositions,
    dominates,
    iter_down_sets,
    muirhead_check,
)
from .exact_ladder import (
    ladder,
    max_step,
    mc_verdict,
    monte_carlo_urns,
    occupancy_count,
    uniform_value_exact,
    verify_lemma,
)
from .chain import (
    ChainConfig,
    build_chain_ladder,
    minimal_m,
    near_equality_check,
    value_axis_cover_ok,
    verify_gap_bound,
)

__all__ = [
    "BlowupSpec",
    "ChainConfig",
    "DownSet",
    "OptimizerConfig",
    "Pattern",
    "blow_up",
    "blowup_density_check",
    "blowup_edge_count",
    "build_chain_ladder",
    "bunching_indices",
    "bunching_verify",
    "certificate",
    "compositions",
    "dominates",
    "evaluate",
    "evaluate_exact",
    "iter_down_sets",
    "ladder",
    "lagrange_polynomial",
    "max_step",
    "maximize",
    "mc_verdict",
    "minimal_m",
    "monte_carlo_urns",
    "muirhead_check",
    "near_equality_check",
    "occupancy_count",
    "simple_pattern",
    "uniform_value_exact",
    "value_axis_cover_ok",
    "verify_gap_bound",
    "verify_lemma",
]
