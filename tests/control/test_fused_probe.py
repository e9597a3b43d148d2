"""The batched servo's fused-kernel probe verdict is memoized.

Fleet runs rebuild identical servos per run, so ``BatchedLQGServo``
keys the probe verdict on every input the probe reads and re-probes
only when one of them changes.  A key that missed an input would let a
verdict proven for one servo enable the kernel on another, so each
input is changed alone here and must trigger a fresh probe.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.control import batch
from repro.control.batch import BatchedLQGServo
from repro.control.fused import fused_kernel
from repro.experiments.figures import identified_systems
from repro.managers.mimo import (
    POWER_GAINS,
    QOS_GAINS,
    build_gain_library,
    cluster_actuator_limits,
)
from repro.platform.soc import ExynosSoC, SoCConfig

pytestmark = pytest.mark.skipif(
    fused_kernel() is None, reason="fused kernel unavailable"
)


def _nudged(array: np.ndarray) -> np.ndarray:
    """``array`` with its first element moved by one ulp."""
    out = np.array(array, dtype=float)
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


@pytest.fixture(scope="module")
def servo_inputs():
    system = identified_systems().big
    library = build_gain_library(system, integral_weight=0.08)
    palette = [library.get(QOS_GAINS), library.get(POWER_GAINS)]
    limits = cluster_actuator_limits(ExynosSoC(config=SoCConfig(seed=1)).big)
    return {
        "gain_sets": palette,
        "operating_point": system.operating_point,
        "limits": limits,
        "n_rows": 12,
        "anti_windup": 0.9,
    }


@pytest.fixture
def probes(monkeypatch):
    """Empty memo; returns the list of probe verdicts computed."""
    monkeypatch.setattr(batch, "_PROBE_MEMO", {})
    computed: list[bool] = []
    probe = BatchedLQGServo._probe_fused

    def counting(self, kernel):
        computed.append(probe(self, kernel))
        return computed[-1]

    monkeypatch.setattr(BatchedLQGServo, "_probe_fused", counting)
    return computed


def _build(inputs, **changes):
    kwargs = {**inputs, **changes}
    return BatchedLQGServo(
        kwargs["gain_sets"],
        kwargs["operating_point"],
        kwargs["limits"],
        kwargs["n_rows"],
        anti_windup=kwargs["anti_windup"],
    )


def _changed_inputs(inputs):
    palette = inputs["gain_sets"]
    op = inputs["operating_point"]
    limits = inputs["limits"]
    power = palette[1]
    return {
        "palette": {
            "gain_sets": [
                palette[0],
                dataclasses.replace(power, L=_nudged(power.L)),
            ]
        },
        "operating_point": {
            "operating_point": dataclasses.replace(
                op, y_scale=_nudged(op.y_scale)
            )
        },
        "limits": {
            "limits": dataclasses.replace(limits, upper=_nudged(limits.upper))
        },
        "max_step": {"limits": dataclasses.replace(limits, max_step=None)},
        "anti_windup": {"anti_windup": 0.8},
        "n_rows": {"n_rows": 13},
    }


def test_identical_servo_reuses_the_verdict(servo_inputs, probes):
    first = _build(servo_inputs)
    second = _build(servo_inputs)
    assert probes == [True]
    assert first.fused_enabled and second.fused_enabled


@pytest.mark.parametrize(
    "changed",
    ["palette", "operating_point", "limits", "max_step", "anti_windup", "n_rows"],
)
def test_changing_one_key_input_reprobes(servo_inputs, probes, changed):
    _build(servo_inputs)
    assert len(probes) == 1
    _build(servo_inputs, **_changed_inputs(servo_inputs)[changed])
    assert len(probes) == 2, f"changing {changed} did not re-run the probe"
