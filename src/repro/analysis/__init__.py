"""Static analysis for the SPECTR reproduction: pre-deployment gates.

SPECTR's guarantee rests on artifacts that are verified *before* they
reach the 50 ms control loop (Figure 11 steps 4-5).  This package makes
that discipline a repo-wide gate with analyzer tiers sharing one
finding/severity/report core:

* :mod:`repro.analysis.lint` — repo-specific AST lint (mutable
  defaults, bare excepts, float equality in control math, dtype-less
  numpy allocation in hot paths, missing ``__all__``, unit-suffix
  conventions);
* :mod:`repro.analysis.arch` — enforces the architecture layering of
  DESIGN.md by walking import graphs;
* :mod:`repro.analysis.flow` — whole-program analysis: project call
  graph + dataflow rules for determinism (RNG provenance), cross-process
  picklability, interprocedural hot-path purity, unit-suffix flow and
  frozen-dataclass mutation, with incremental content-hash caching;
* :mod:`repro.analysis.models` — the one reader of serialized control
  artifacts (automaton JSON, policy bundles with LQG gain sets): strict
  decode (REPRO-A001/A002/A009), symbolic reachability with shortest
  counterexample traces for blocking/controllability defects,
  runtime-monitor consistency and stale-bundle detection
  (REPRO-M001..M007), and the numeric gain checks of
  :mod:`repro.analysis.gain_checks` (REPRO-G001..G005).

``python -m repro.analysis [paths...]`` lints and arch-checks the Python
sources and runs the models tier on any artifacts under ``paths``; the
exit code is nonzero iff any error-severity finding was produced.  The
flow analyzer runs separately as ``python -m repro.analysis flow
[paths...]`` (it is whole-program, so it wants package roots, not
single files), and the model analyzer as ``python -m repro.analysis
models [paths...]``.
"""

from repro.analysis.arch import ALLOWED_IMPORTS, check_architecture
from repro.analysis.cli import analyze_paths, flow_main, main, models_main
from repro.analysis.findings import (
    RULE_REGISTRY,
    Finding,
    Report,
    Severity,
    known_rule_ids,
)
from repro.analysis.gain_checks import check_gains
from repro.analysis.lint import lint_file, lint_source
from repro.analysis.suppress import collect_suppressions, filter_findings

__all__ = [
    "ALLOWED_IMPORTS",
    "Finding",
    "RULE_REGISTRY",
    "Report",
    "Severity",
    "analyze_paths",
    "check_architecture",
    "check_gains",
    "collect_suppressions",
    "filter_findings",
    "flow_main",
    "known_rule_ids",
    "lint_file",
    "lint_source",
    "main",
    "models_main",
]
