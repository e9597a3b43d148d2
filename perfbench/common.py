"""Shared machinery of the benchmark: isolation, timing, tracing, stats.

Everything the benchmark writes lives under ``.perfbench/`` in the
checkout: its own ``TMPDIR`` (which is where the fused-kernel ``.so``
is compiled and cached) and the per-pass experiment caches.  Nothing
is written to ``benchmarks/results/`` or to a repository cache.
"""

from __future__ import annotations

import gc
import json
import os
import platform as host_platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
TMP_DIR = WORK_DIR / "tmp"
PROBE = Path(__file__).resolve().parent / "probe.py"

# A child that has not reported ready by then is broken, not slow.
PROBE_TIMEOUT_S = 120.0


def isolate_environment() -> None:
    """Point ``TMPDIR`` (and so the fused-kernel cache) into the
    checkout and make ``repro`` importable here and in children."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)
    tempfile.tempdir = None
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *parts])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def stop_children() -> None:
    """Stop the resource tracker ``multiprocessing`` starts beside a
    process pool and wait for it to end.

    The pools themselves are joined when ``ExperimentEngine.run``
    returns, but the tracker lives until it is told to stop, and it
    would otherwise outlive this process for a moment.
    """
    gc.collect()  # release pool semaphores before the tracker goes
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under the benchmark's ``TMPDIR``."""
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_DIR))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_metadata(fused: bool) -> dict[str, Any]:
    """CPU count, Python/numpy versions, git SHA and whether the fused
    kernels are in use (off when ``REPRO_DISABLE_FUSED=1`` or no
    compiler)."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "fused": fused,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (benchmark checkouts usually are not repositories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
@dataclass
class PassLog:
    """Wall times of the timed passes and the exceptions they raised."""

    seconds: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds) + len(self.errors)


def run_passes(
    one_pass: Callable[[], Any],
    budget_s: float,
    after: Callable[[Any], None],
) -> PassLog:
    """Repeat ``one_pass`` while ``budget_s`` of pass time is not spent.

    A pass is not started when the last one says it would overrun the
    budget by more than half its length, so a run with long passes stays
    near its budget.  Only ``one_pass`` is timed; ``after`` (checks on
    its result) runs outside the clock.  A raising pass is logged as a
    failure and ends the loop.
    """
    log = PassLog()
    spent = last = 0.0
    while not log.attempted or spent + last / 2 < budget_s:
        start = time.perf_counter()
        try:
            result = one_pass()
        except Exception as exc:  # a failed operation, counted not fatal
            log.errors.append(f"{type(exc).__name__}: {exc}")
            break
        last = time.perf_counter() - start
        spent += last
        log.seconds.append(last)
        after(result)
    return log


def alternate_passes(
    plain_pass: Callable[[], Any],
    traced_pass: Callable[[], Any],
    budget_s: float,
    after: Callable[[Any], None],
) -> tuple[list[float], list[float]]:
    """Untraced and traced passes in turn until ``budget_s`` is spent,
    so the tracing overhead compares passes run under like conditions.
    Returns the wall times of each kind; ``after`` checks every result
    outside the clock."""
    plain: list[float] = []
    traced: list[float] = []
    spent = 0.0
    while spent < budget_s or not traced:
        for timings, one_pass in ((plain, plain_pass), (traced, traced_pass)):
            start = time.perf_counter()
            result = one_pass()
            timings.append(time.perf_counter() - start)
            spent += timings[-1]
            after(result)
    return plain, traced


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
SETUP_SPLITS = (
    "repro.import_s",
    "experiments.design_s",
    "platform.construct_s",
    "managers.construct_s",
)


def setup_probes(workload: str, seed: int, count: int, *, cold: bool) -> list[dict]:
    """Start ``count`` fresh interpreters that set the workload up.

    Each returns its split times; ``setup_s`` is the time from spawning
    the child to the child being ready to run the workload.  With
    ``cold`` every child gets an empty ``TMPDIR``, so the fused kernel
    is compiled from scratch inside ``platform``/``managers`` set-up.
    """
    probes = []
    for _ in range(count):
        env = dict(os.environ)
        cold_dir = fresh_dir("cold-") if cold else None
        if cold_dir is not None:
            env["TMPDIR"] = str(cold_dir)
        spawned = time.time()
        try:
            completed = subprocess.run(
                [sys.executable, str(PROBE), workload, str(seed), str(spawned)],
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=PROBE_TIMEOUT_S,
            )
        finally:
            if cold_dir is not None:
                shutil.rmtree(cold_dir, ignore_errors=True)
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{completed.stderr}"
            )
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes


def setup_splits(probes: list[dict]) -> dict[str, float]:
    """Median of each set-up split over the probes."""
    return {name: median(p[name] for p in probes) for name in SETUP_SPLITS}


# ----------------------------------------------------------------------
# Tracing: instance hooks with self-time accounting
# ----------------------------------------------------------------------
class Tracer:
    """Spans around calls into each layer, installed from outside.

    ``wrap`` shadows a bound method with an instance attribute (the
    ``StepProfiler`` hook pattern); ``patch`` replaces a module-level
    function.  ``detach`` undoes both.  A span's self time is its
    duration minus the time of the spans nested inside it, so the self
    times of all spans under one root sum to the root's duration.
    """

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._undo: list[Callable[[], None]] = []

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        first_name: str | None = None,
        count: Callable[..., float] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; this wrapper's first call is named
        ``first_name`` when given; ``count(*args)`` adds to a counter."""
        stack = self._stack
        first = [first_name]
        total, self_s, calls, counts = self.total, self.self_s, self.calls, self.counts
        perf_counter = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            label = first[0] or name
            first[0] = None
            if count is not None:
                counts[label] += count(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                total[label] += elapsed
                self_s[label] += elapsed - nested
                calls[label] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def wrap(self, obj: Any, attr: str, name: str, **options: Any) -> None:
        span = self.timed(name, getattr(obj, attr), **options)
        setattr(obj, attr, span)

        def undo() -> None:
            if obj.__dict__.get(attr) is span:
                delattr(obj, attr)

        self._undo.append(undo)

    def patch(self, module: Any, attr: str, name: str, **options: Any) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.timed(name, original, **options))
        self._undo.append(lambda: setattr(module, attr, original))

    def detach(self) -> None:
        while self._undo:
            self._undo.pop()()
