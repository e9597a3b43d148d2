"""Shared helpers for the model-analyzer tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable
from repro.automata.serialization import automaton_to_dict
from repro.control.gains import GainLibrary
from repro.control.lqg import LQGGains
from repro.control.statespace import OperatingPoint, StateSpaceModel
from repro.core.persistence import PolicyBundle, save_bundle

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_model(path: Path, automaton) -> Path:
    """Serialize ``automaton`` to ``path`` in the committed format."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(automaton_to_dict(automaton), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return path


def scalar_gains(name, k_state, k_integral):
    """A one-state LQG gain set; ``k_state=-0.8`` makes it unstable."""
    model = StateSpaceModel(
        A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], dt=0.05, name="toy"
    )
    return LQGGains(
        name=name,
        model=model,
        K_state=np.array([[float(k_state)]]),
        K_integral=np.array([[float(k_integral)]]),
        L=np.array([[0.5]]),
        Q_output=np.eye(1),
        R_effort=np.eye(1),
        integral_mask=np.ones(1),
    )


def save_gain_bundle(directory, gains):
    """Save a policy bundle holding one gain set under subsystem ``big``."""
    supervisor = automaton_from_table(
        "sup",
        Alphabet.of([controllable("tick")]),
        transitions=[("S0", "tick", "S0")],
        initial="S0",
        marked=["S0"],
    )
    library = GainLibrary(name="big")
    library.register(gains)
    bundle = PolicyBundle(
        supervisor=supervisor,
        plant=None,
        gain_libraries={"big": library},
        operating_points={"big": OperatingPoint(u=[1.0], y=[1.0])},
    )
    return save_bundle(bundle, directory)


@pytest.fixture
def model_dir(tmp_path):
    """Factory laying out role-named model files under a tmp unit dir."""

    def _make(models: dict[str, object], name: str = "unit") -> Path:
        root = tmp_path / name
        for role, automaton in models.items():
            write_model(root / f"{role}.json", automaton)
        return root

    return _make
