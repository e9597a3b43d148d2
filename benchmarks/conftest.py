"""Benchmark-suite fixtures.

Each benchmark regenerates one table or figure of the paper and saves
its rendered text under ``benchmarks/results/`` so the reproduction
output can be inspected after a run.  Quick-mode runs save under
``benchmarks/results-quick/`` instead.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
# Quick-mode (CI smoke) runs write here instead, so a gate run never
# overwrites a committed full-mode number.  Ignored by git, and kept
# outside results/ because tools read every entry there as a file.
QUICK_RESULTS_DIR = Path(__file__).parent / "results-quick"


def results_dir(quick: bool) -> Path:
    """Where a benchmark run writes its results (created on demand)."""
    path = QUICK_RESULTS_DIR if quick else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def host_metadata() -> dict:
    """CPU count, memory and toolchain versions recorded with a result."""
    import numpy as np

    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "cpus": os.cpu_count(),
        "memory_gb": round(memory / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@pytest.fixture(scope="session")
def save_result():
    def _save(name: str, text: str, *, quick: bool = False) -> None:
        (results_dir(quick) / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


BENCH_CACHE_DIR = Path(__file__).parent / ".exec-cache"


@pytest.fixture(scope="session")
def bench_cache():
    """The benchmark suite's persistent on-disk result cache."""
    from repro.exec.cache import ResultCache

    return ResultCache(BENCH_CACHE_DIR)


@pytest.fixture(scope="session", autouse=True)
def warm_identification_cache(bench_cache):
    """Warm all shared design artifacts once so individual benchmarks
    time their own computation, not the setup.

    The big/little/full models and the verified supervisor come from
    the persistent exec artifact cache (derived on the very first
    benchmark run, loaded from disk afterwards); the benchmark-only
    per-core model is attached on top.
    """
    from repro.exec.artifacts import prime_process
    from repro.experiments.figures import identified_systems

    prime_process(bench_cache)
    identified_systems(with_percore=True)
