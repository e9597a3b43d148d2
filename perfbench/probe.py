"""Set-up probe: one fresh interpreter readying one workload.

Run as ``python3 perfbench/probe.py <workload> <seed> <spawn_wall_time>``
from the checkout root.  It imports what the workload needs, builds its
design artifacts and constructs one instance of the workload's platform
and manager, then prints one JSON line: the wall-clock split of
``repro.import_s`` (counted from the parent's spawn, so it includes
interpreter start), ``experiments.design_s``, ``platform.construct_s``
and ``managers.construct_s``, and ``setup_s``, their sum.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

FLEET_DEVICES = 1000


def _fleet(workload: str, seed: int) -> list[float]:
    from repro.exec.job import derive_seed
    from repro.experiments.figures import case_study_supervisor, identified_systems
    from repro.experiments.fleet import fleet_manager_factory
    from repro.experiments.scenario import three_phase_scenario
    from repro.managers.base import ManagerGoals
    from repro.platform.fleet import FleetPlatform
    from repro.platform.soc import SoCConfig
    from repro.workloads import x264

    marks = [time.time()]
    systems = identified_systems()
    if workload == "fleet-spectr":
        case_study_supervisor()
        managers = ("SPECTR",)
    else:
        managers = ("MM-Pow", "MM-Perf", "FS")
    marks.append(time.time())
    scenario = three_phase_scenario(phase_duration_s=5.0)
    platform = FleetPlatform(
        qos_app=x264(),
        background=scenario.background_tasks(),
        seeds=[derive_seed(seed, "fleet", i) for i in range(FLEET_DEVICES)],
        config=SoCConfig(),
    )
    marks.append(time.time())
    first = scenario.phases[0]
    goals = ManagerGoals(first.qos_reference, first.power_budget_w)
    for name in managers:
        fleet_manager_factory(name, systems)(platform, goals)
    marks.append(time.time())
    return marks


def _campaign(seed: int) -> list[float]:
    import repro.exec  # noqa: F401  (the engine, cache and journal)
    import repro.experiments.ablations  # noqa: F401
    import repro.experiments.sweeps  # noqa: F401
    from repro.experiments.figures import (
        case_study_supervisor,
        identified_systems,
        manager_factory,
    )
    from repro.experiments.scenario import three_phase_scenario
    from repro.managers.base import ManagerGoals
    from repro.platform.soc import ExynosSoC, SoCConfig
    from repro.workloads import x264

    marks = [time.time()]
    systems = identified_systems()
    case_study_supervisor()
    marks.append(time.time())
    scenario = three_phase_scenario()
    soc = ExynosSoC(
        qos_app=x264(),
        background=scenario.background_tasks(),
        config=SoCConfig(seed=seed),
    )
    marks.append(time.time())
    first = scenario.phases[0]
    manager_factory("SPECTR", systems)(
        soc, ManagerGoals(first.qos_reference, first.power_budget_w)
    )
    marks.append(time.time())
    return marks


def _synthesis() -> list[float]:
    import repro.automata  # noqa: F401
    import repro.core.scalable  # noqa: F401

    now = time.time()
    return [now, now, now, now]


def main(argv: list[str]) -> None:
    workload, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if workload.startswith("fleet-"):
        marks = _fleet(workload, seed)
    elif workload == "campaign":
        marks = _campaign(seed)
    elif workload == "synthesis":
        marks = _synthesis()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    splits = {
        "repro.import_s": marks[0] - spawned,
        "experiments.design_s": marks[1] - marks[0],
        "platform.construct_s": marks[2] - marks[1],
        "managers.construct_s": marks[3] - marks[2],
        "setup_s": marks[3] - spawned,
    }
    print(json.dumps(splits), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
