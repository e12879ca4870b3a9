"""Certified simplex maxima, density chains, and exact occupancy ladders
for collections of r-multisets.

The package namespace holds the names the README tour and the demos use;
everything else is imported from its submodule.  Each name imports its
submodule on first use (PEP 562), so ``import turangap`` alone loads no
numpy."""

import importlib

__version__ = "0.1.0"

_HOME_OF = {name: module for module, names in (  # each package name -> its submodule
    ("patterns", "BlowupSpec Pattern blow_up blowup_density_check blowup_edge_count "
                 "evaluate evaluate_exact simple_pattern"),
    ("simplex", "certificate maximize"),
    ("dominance", "DownSet bunching_indices bunching_verify compositions dominates "
                  "iter_down_sets"),
    ("exact_ladder", "ladder max_step mc_verdict monte_carlo_urns occupancy_count "
                     "uniform_value_exact verify_lemma"),
    ("chain", "build_chain_ladder minimal_m verify_gap_bound"),
) for name in names.split()}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
