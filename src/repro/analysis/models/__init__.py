"""Formal model analyzer: the one reader of automata and policy bundles.

Where the flow analyzer (F-rules) checks *Python source*, this tier
checks the formal artifacts the repo ships — plants, specifications,
synthesized supervisors, persisted policy bundles.  It decodes each
automaton strictly (REPRO-A001/A002/A009 for *payload shape*),
model-checks its *behaviour* (REPRO-M rules) with the bitset
reachability kernel from :mod:`repro.automata.symbolic`, attaching a
shortest counterexample trace to every negative verdict, and runs the
numeric gain checks (REPRO-G rules) on a bundle's ``gains.npz``.
"""

from repro.analysis.models.cli import models_main
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_event_coverage,
    check_model,
    check_monitor_consistency,
    check_pair_controllability,
    check_reachability,
)
from repro.analysis.models.scan import (
    MODEL_CHECK_SCHEMA,
    MODEL_ROLES,
    ModelScanResult,
    ModelScanStats,
    analyze_model_set,
    infer_role,
    make_cache,
    scan_paths,
)

__all__ = [
    "MODEL_CHECK_SCHEMA",
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "analyze_model_set",
    "check_alphabet_consistency",
    "check_bundle_freshness",
    "check_event_coverage",
    "check_model",
    "check_monitor_consistency",
    "check_pair_controllability",
    "check_reachability",
    "infer_role",
    "make_cache",
    "models_main",
    "scan_paths",
]
