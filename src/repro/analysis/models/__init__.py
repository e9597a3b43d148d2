"""Formal model analyzer: REPRO-M rules over automata and bundles.

The third analyzer tier.  Where the artifact verifier (A-rules) checks
*payload shape* and the flow analyzer (F-rules) checks *Python source*,
this tier model-checks the *behaviour* of the formal artifacts the repo
ships — plants, specifications, synthesized supervisors, persisted
policy bundles — with the bitset reachability kernel from
:mod:`repro.automata.symbolic`, attaching a shortest counterexample
trace to every negative verdict.
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
