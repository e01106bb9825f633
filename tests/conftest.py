from pathlib import Path

import numpy as np
import pytest
import yaml

from edgeprep.harness import parse_scenario
from edgeprep.model import (
    Direction,
    Modality,
    QosProfile,
    SensorSpec,
    SensorStateVector,
    StaticAttr,
)


def make_spec(sid, modality=Modality.TEMPERATURE, zone="room",
              resolution=0.5, response=1.0, sensing_range=50.0, tag=""):
    return SensorSpec(
        sensor_id=sid,
        modality=modality,
        modality_tag=tag,
        zone=zone,
        static_attrs={
            "resolution": StaticAttr(resolution, Direction.COST),
            "response_time": StaticAttr(response, Direction.COST),
            "range": StaticAttr(sensing_range, Direction.BENEFIT),
        },
    )


def make_state(sid, alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.5, kappa=0.5, t_ms=0):
    return SensorStateVector(sensor_id=sid, t_ms=t_ms, alpha=alpha, beta=beta,
                             gamma=gamma, epsilon=epsilon, kappa=kappa)


def cohort_of(*states):
    """``(sensor_ids, states)`` for the ranking functions, rows in the given
    order."""
    return (tuple(s.sensor_id for s in states),
            np.array([s.as_tuple() for s in states], dtype=float))


@pytest.fixture
def qos_all_ones():
    return QosProfile(service_id="svc")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: weights of a service that ranks sensors by consistency first
RELIABILITY_FIRST = {"accuracy": 0, "reliability": 1, "resolution": 0.02,
                     "response_time": 0.02, "range": 0.02}


def load_config(name, duration_s=None, weights=None):
    """``configs/<name>.yaml`` as a scenario, with its horizon and every
    service's weights replaced when given."""
    path = CONFIGS / f"{name}.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    if duration_s is not None:
        raw["duration_s"] = duration_s
    for service in raw["services"] if weights is not None else ():
        service["weights"] = weights
    return parse_scenario(raw, base_dir=path.parent)
