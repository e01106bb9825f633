import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

from edgeprep.harness import parse_scenario
from edgeprep.ranking import rank_and_select
from edgeprep.model import (
    Direction,
    Modality,
    QosProfile,
    SensorSpec,
    StaticAttr,
)


def make_spec(sid, modality=Modality.TEMPERATURE, zone="room",
              resolution=0.5, response=1.0, sensing_range=50.0):
    return SensorSpec(
        sensor_id=sid,
        modality=modality,
        zone=zone,
        static_attrs={
            "resolution": StaticAttr(resolution, Direction.COST),
            "response_time": StaticAttr(response, Direction.COST),
            "range": StaticAttr(sensing_range, Direction.BENEFIT),
        },
    )


def make_state(sid, alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.5, kappa=0.5):
    """``(sensor_id, row)``: one sensor's attribute row in ATTRIBUTE_NAMES order."""
    return sid, (float(alpha), float(beta), float(gamma), float(epsilon), float(kappa))


def cohort_of(*states):
    """``(sensor_ids, states)`` for the ranking functions, rows in the given
    order."""
    return (tuple(sid for sid, _ in states),
            np.array([row for _, row in states], dtype=float))


def record_of(ranking, sensor_id):
    """``(sensor_id, d_m, d_a, d_ma, rank)`` of ``sensor_id`` in a ranking."""
    _, ranked = ranking
    return next(row for row in ranked if row[0] == sensor_id)


def row_components(row, utopia=(1.0,) * 5, weights=(1.0,) * 5):
    """``(d_m, d_a)`` of one attribute row ranked alone against ``utopia``
    with ``weights``."""
    qos = QosProfile(service_id="svc", utopia=tuple(utopia), weights=tuple(weights))
    _, [(_, d_m, d_a, _, _)] = rank_and_select(("s",), np.array([row], dtype=float), qos)
    return d_m, d_a


def writable_as_utf8(text):
    """Whether ``text`` has a UTF-8 encoding (no lone surrogate)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def exact_sum(values):
    """The sum of ``values`` in rational arithmetic, rounded once to a float."""
    return float(sum(map(Fraction, values), Fraction(0)))


#: far beyond a float's 17 significant digits: a reference computed at this
#: precision and rounded once lies within half an ulp, and 1e-49 relative,
#: of the exact value
REFERENCE = Context(prec=50)


def exp_reference(x):
    """``exp(x)`` at 50 digits, rounded once to a float."""
    with localcontext(REFERENCE):
        return float(Decimal(x).exp())


def poisson_pmf(k, mean):
    """The Poisson pmf ``mean**k * exp(-mean) / k!`` at 50 digits, rounded
    once to a float."""
    with localcontext(REFERENCE):
        mu = Decimal(mean)
        return float(mu ** k * (-mu).exp() / math.factorial(k))


#: finite floats from about 1e-30 to 1e30 in size, either sign, and both zeros
mixed_magnitudes = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0**e,
              st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
              st.integers(min_value=-30, max_value=30)),
)


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
