"""Acceptance suite.

Each test covers one acceptance criterion end to end at its stated
tolerance and prints one PASS line on success (run with ``pytest -v -s``
for per-criterion output).  Expected values come from independent oracles:
the worked-example tables for the voting chain, the Poisson pmf at 50
digits for reliability, brute-force arithmetic for ranking and fusion, and invocation
counting for the unified-preprocessing claims.
"""

import math
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from edgeprep.fusion import AlignedGrid, KalmanConfig, interpolate, kalman_fuse_streams
from edgeprep.harness import (
    FaultKind,
    FaultSpec,
    ScenarioConfig,
    run_scenario,
    write_streams_csv,
)
from edgeprep.model import Modality, QosProfile, SensorStream
from edgeprep.pipeline import Mode, ServiceSpec
from edgeprep.ranking import rank_and_select, scaling_coefficients
from edgeprep.reliability import (
    compute_lambda,
    cumulative_reliability,
    interval_reliability,
    poisson_weight,
)
from edgeprep.voting import (
    MembershipMatrix,
    NormalizedMeasurements,
    VotingConfig,
    cumulative_scores,
    membership_matrix,
    normalize,
    select_optimal,
)
from conftest import (
    RELIABILITY_FIRST,
    load_config,
    make_spec,
    poisson_pmf,
    record_of,
    row_components,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def ok(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS - {detail}")


def norm_from(values):
    """Readings that are already standardized: the raw values are the
    standardized ones."""
    values = tuple(float(v) for v in values)
    return NormalizedMeasurements(
        values=values,
        mean=0.0,
        stdev=1.0,
        source_ids=tuple(f"x{i}" for i in range(1, len(values) + 1)),
        raw=values,
    )


def test_c1_worked_example_golden_vectors():
    started = time.perf_counter()

    # Reference membership matrix at display precision; its row sums give
    # the published cumulative-score table (the final published entry,
    # 2.741, omits the unit self-membership of its own row - see the
    # off-diagonal assertion).
    printed = np.array([
        [1.0,   0.018, 0.02,  0.019, 0.064],
        [0.018, 1.0,   0.999, 0.999, 0.883],
        [0.02,  0.999, 1.0,   0.999, 0.90],
        [0.019, 0.999, 0.999, 1.0,   0.894],
        [0.064, 0.883, 0.90,  0.894, 1.0],
    ])
    golden = (1.121, 3.899, 3.918, 3.911, 2.741)
    scores = cumulative_scores(MembershipMatrix(5, printed))
    for got, expected in zip(scores[:4], golden[:4]):
        assert got == pytest.approx(expected, abs=1e-3)
    assert scores[4] - 1.0 == pytest.approx(golden[4], abs=1e-3)
    assert scores[4] == pytest.approx(3.741, abs=1e-3)

    # full chain from the standardized input: ordering and top-3 selection
    normalized = (-2.16, 0.68, 0.63, 0.66, 0.18)
    cfg = VotingConfig(p=2, c=2, k=3)
    norm = norm_from(normalized)
    chain_scores = cumulative_scores(membership_matrix(norm, cfg))
    order = sorted(range(5), key=lambda i: (-chain_scores[i], i))
    assert [f"x{i + 1}" for i in order] == ["x3", "x4", "x2", "x5", "x1"]
    chosen = select_optimal(chain_scores, norm, cfg)
    assert set(chosen.sensor_ids) == {"x2", "x3", "x4"}
    assert chosen.sensor_ids == ("x3", "x4", "x2")

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok("C1", f"golden cumulative scores, order and top-3 selection ({elapsed:.3f}s)")


def test_c2_equal_inputs_and_outlier_dominance():
    started = time.perf_counter()

    for n in (2, 3, 7, 50):
        scores = cumulative_scores(membership_matrix(norm_from([0.0] * n)))
        assert scores == tuple(float(n) for _ in range(n))

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(10, 26))
        base = float(rng.uniform(-50.0, 50.0))
        cluster = base + rng.normal(0.0, 1.0, size=n - 1)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        outlier = base + sign * 200.0
        values = [(f"s{i:02d}", float(v)) for i, v in enumerate(cluster)]
        values.append(("s99", float(outlier)))
        delta = float(np.std([v for _, v in values], ddof=1))
        assert min(abs(outlier - float(c)) for c in cluster) >= 3.0 * delta
        scores = cumulative_scores(membership_matrix(normalize(values)))
        outlier_score = scores[-1]  # s99 sorts last
        assert all(s > outlier_score for s in scores[:-1])

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok("C2", f"equal-input scores exact and 1000 outlier instances dominated ({elapsed:.2f}s)")


def test_c3_poisson_reliability():
    assert compute_lambda(5, 5) == 1.0
    assert compute_lambda(8, 5) == 1.0
    assert interval_reliability(0, 4, 10.0) == 0.0

    oracle = poisson_pmf(5, 0.5 * 10.0)
    assert poisson_weight(0.5 * 10.0, 5) == pytest.approx(oracle, abs=1e-9)

    lam = compute_lambda(1, 2)
    single = cumulative_reliability([(0, 10_000, lam)], 2, 0, 10_000)
    assert single == interval_reliability(1, 2, 10.0)

    ok("C3", "lambda clamping, pmf oracle match at 1e-9, single-interval identity")


def test_c4_ranking_properties():
    utopia_state = (1.0, 1.0, 1.0, 1.0, 1.0)
    other = (0.5, 0.4, 0.3, 0.2, 0.1)
    qos = QosProfile(service_id="svc", weights=(1, 1, 1, 1, 1))
    ranking = rank_and_select(("u", "v"), np.array([utopia_state, other]), qos)
    (*_, d_ma_u, _), (*_, d_ma_v, _) = record_of(ranking, "u"), record_of(ranking, "v")
    assert d_ma_u == 0.0
    assert d_ma_v > 0.0
    order, _ = ranking
    assert order[0] == "u"
    # 3-4-5 composition: the cohort means scale c's components to 3 and 4
    profile = QosProfile(service_id="svc", utopia=(1, 0, 0, 0, 0), weights=(1, 1, 0, 0, 0))
    rows = [(1, 0, 0, 0, 0), (0.75, 0, 0, 0, 0), (1, 0.75, 0, 0, 0), (1, 0, 0, 0, 0)]
    *_, d_ma_c, _ = record_of(rank_and_select(("a", "b", "c", "d"), rows, profile), "c")
    assert d_ma_c == 5.0

    def d_m(a, b, weights):
        """Magnitude component of ``a`` ranked alone against the utopia ``b``."""
        return row_components(a, b, weights)[0]

    rng = np.random.default_rng(4)
    dims = 5
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        mat = rng.random((n, dims))
        w = rng.random(dims) + 0.01

        # metric axioms on the magnitude component
        i, j, k = rng.integers(0, n, size=3)
        dij = d_m(mat[i], mat[j], w)
        dji = d_m(mat[j], mat[i], w)
        assert dij == pytest.approx(dji, abs=1e-12)
        assert d_m(mat[i], mat[i], w) == 0.0
        dik = d_m(mat[i], mat[k], w)
        dkj = d_m(mat[k], mat[j], w)
        assert dij <= dik + dkj + 1e-12

        # weight monotonicity: a sensor that dominates another on one
        # attribute (all others equal) never falls below it in the
        # magnitude ordering, at any emphasis of that attribute
        attr = int(rng.integers(0, dims))
        a = mat[0].copy()
        b = a.copy()
        b[attr] = a[attr] * float(rng.random())
        v = np.ones(dims)
        for scale in (0.5, 1.0, 2.0, 8.0, 32.0):
            ws = w.copy()
            ws[attr] *= scale
            assert d_m(a, v, ws) <= d_m(b, v, ws) + 1e-12

        # the two readings of the scaling coefficient (cohort size vs
        # attribute count) rescale every sensor identically, so the
        # induced order never changes
        dms, das = zip(*(row_components(row, v, w) for row in mat))
        xi_m_n, xi_a_n = scaling_coefficients(dms, das)
        sum_m, sum_a = sum(dms), sum(das)
        xi_m_d = dims / sum_m if sum_m > 0 else 1.0
        xi_a_d = dims / sum_a if sum_a > 0 else 1.0
        order_n = sorted(
            range(n),
            key=lambda idx: (math.hypot(xi_m_n * dms[idx], xi_a_n * das[idx]), idx),
        )
        order_d = sorted(
            range(n),
            key=lambda idx: (math.hypot(xi_m_d * dms[idx], xi_a_d * das[idx]), idx),
        )
        assert order_n == order_d

    ok("C4", "zero-distance characterization, 3-4-5 composition, 1000-cohort property sweeps")


def test_c5_fusion_and_interpolation():
    # noise-free consensus converges within five ticks at default config
    ticks = tuple(range(1000, 11_000, 1000))
    values = np.full((3, len(ticks)), 21.5)
    grid = AlignedGrid(ticks_ms=ticks, sensor_ids=("a", "b", "c"), values=values)
    fused = kalman_fuse_streams(grid, KalmanConfig())
    for v in fused.values[4:]:
        assert v == pytest.approx(21.5, abs=1e-9)

    # affine-signal interpolation is exact
    rng = np.random.default_rng(5)
    for _ in range(200):
        intercept = float(rng.uniform(-100, 100))
        slope = float(rng.uniform(-5, 5))
        t1 = int(rng.integers(0, 10_000))
        t2 = t1 + int(rng.integers(2, 10_000))
        target = int(rng.integers(t1 + 1, t2))
        line = lambda t: intercept + slope * (t / 1000.0)
        got = interpolate(t1, line(t1), t2, line(t2), target)
        assert got == pytest.approx(line(target), abs=1e-9)

    # one deviant stream pulls the fused estimate off the majority
    rows = np.array([
        [10.0] * 50,
        [10.0] * 50,
        [14.0] * 50,
    ])
    drift_grid = AlignedGrid(
        ticks_ms=tuple(range(1000, 51_000, 1000)),
        sensor_ids=("a", "b", "c"),
        values=rows,
    )
    drifted = kalman_fuse_streams(drift_grid, KalmanConfig())
    final = drifted.values[-1]
    assert final > 10.1
    assert final < 14.0

    ok("C5", f"consensus <=5 ticks, exact affine interpolation, deviant pull to {final:.3f}")


def test_c6_fault_avoidance_and_static_baseline():
    started = time.perf_counter()

    for priority, weights in (("accuracy", None), ("reliability", RELIABILITY_FIRST)):
        cfg = load_config("fault_scenario", weights=weights)
        report = run_scenario(cfg)
        for sensor_id in ("t3", "t7"):
            rate = report.avoidance_rate(sensor_id)
            assert rate is not None
            assert rate >= 0.95, f"{priority}: {sensor_id} avoided only {rate:.3f}"

    topsis_report = run_scenario(load_config("fault_scenario"), mode=Mode.TOPSIS_BASELINE)
    selected_per_tick = {}
    for row in topsis_report.trace:
        if row.selected:
            selected_per_tick.setdefault(row.t_ms, set()).add(row.sensor_id)
    distinct_selections = {frozenset(s) for s in selected_per_tick.values()}
    assert len(distinct_selections) == 1

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok("C6", f"faulty sensors avoided >=95%, static baseline constant ({elapsed:.2f}s)")


def test_c7_unified_preprocessing_counts():
    cfg = load_config("two_service")
    unified = run_scenario(cfg, mode=Mode.UNIFIED)
    per_service = run_scenario(cfg, mode=Mode.PER_SERVICE)

    from edgeprep.harness import _feature_line

    unified_lines = [_feature_line(fv) for fv in unified.features]
    per_service_lines = [_feature_line(fv) for fv in per_service.features]
    assert unified_lines == per_service_lines
    assert unified.feature_invocations < per_service.feature_invocations
    assert unified.feature_invocations == unified.distinct_feature_keys
    assert unified.cache_hits > 0

    ok(
        "C7",
        f"bit-identical features; {unified.feature_invocations} unified vs "
        f"{per_service.feature_invocations} per-service invocations; "
        f"misses == {unified.distinct_feature_keys} distinct keys",
    )


def occupied(t_ms: int) -> bool:
    """Ground truth of the c8 room: empty and occupied in turn, 30 s each."""
    return (t_ms // 30_000) % 2 == 1


def labelled_streams(seed: int, duration_s: int) -> dict[str, SensorStream]:
    """Occupancy-driven 1 Hz streams from three motion and three CO2 sensors."""
    levels = {  # empty level, occupied level, noise
        Modality.MOTION: (0.05, 0.8, 0.05),
        Modality.CO2: (420.0, 800.0, 15.0),
    }
    timestamps = tuple(range(1000, duration_s * 1000 + 1, 1000))
    streams = {}
    for modality, prefix in ((Modality.MOTION, "m"), (Modality.CO2, "c")):
        empty, busy, noise = levels[modality]
        for sid in (f"{prefix}{i}" for i in (1, 2, 3)):
            rng = np.random.default_rng([seed, zlib.crc32(sid.encode())])
            values = tuple(
                float((busy if occupied(t_ms) else empty) + noise * rng.standard_normal())
                for t_ms in timestamps
            )
            streams[sid] = SensorStream(sid, modality, timestamps, values)
    return streams


def occupancy_accuracy(csv_path: Path, seed: int, mode: Mode, duration_s: int = 180) -> float:
    """Accuracy of a motion-or-CO2 threshold rule on the occupancy service's
    features, with sensor c3 stuck at a high CO2 level throughout."""
    sensors = [
        make_spec(f"m{i}", Modality.MOTION, resolution=0.1, response=0.2, sensing_range=8.0)
        for i in (1, 2, 3)
    ] + [
        make_spec(f"c{i}", Modality.CO2, resolution=5.0, response=20.0, sensing_range=5000.0)
        for i in (1, 2, 3)
    ]
    service = ServiceSpec(
        qos=QosProfile(
            service_id="occupancy",
            weights=(1.0, 0.2, 0.02, 0.02, 0.02),
            modality_needs=("co2", "motion"),
            granularity_s=1.0,
            select_count=1,
        ),
        period_s=1.0,
        k_l=3,
        k_r=0,
        delta_t_s=1.0,
        features=("motion_mean", "co2_mean"),
    )
    stuck = FaultSpec(sensor_id="c3", kind=FaultKind.STUCK_AT, value=1200.0,
                      start_s=0, end_s=duration_s)
    cfg = ScenarioConfig(sensors=sensors, services=[service], duration_s=duration_s,
                         seed=seed, mode=mode, csv_path=str(csv_path), faults=[stuck],
                         reliability_interval_s=2.0)
    hits = [
        (fv.components["motion_mean"] > 0.4 or fv.components["co2_mean"] > 600.0)
        == occupied(fv.t_ms)
        for fv in run_scenario(cfg).features
        if not fv.missing
    ]
    return sum(hits) / len(hits) if hits else 0.0


def test_c8_downstream_quality_with_corrupted_sensor(tmp_path):
    selected_acc, naive_acc = [], []
    for seed in range(20):
        csv_path = tmp_path / f"occupancy-{seed}.csv"
        write_streams_csv(labelled_streams(seed, 180), csv_path)
        selected_acc.append(occupancy_accuracy(csv_path, seed, Mode.UNIFIED))
        naive_acc.append(occupancy_accuracy(csv_path, seed, Mode.NO_SELECTION_FUSED))
    mean_selected = float(np.mean(selected_acc))
    mean_naive = float(np.mean(naive_acc))
    assert mean_selected >= mean_naive
    ok(
        "C8",
        f"threshold classifier accuracy {mean_selected:.3f} (selected) >= "
        f"{mean_naive:.3f} (naive fusion) over 20 seeds",
    )


def test_c9_end_to_end_determinism(tmp_path):
    config = REPO_ROOT / "configs" / "two_service.yaml"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        result = subprocess.run(
            [sys.executable, "-m", "edgeprep", "run", "--config", str(config),
             "--seed", "7", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    assert files_a  # artifacts exist
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ok("C9", f"two CLI runs produced byte-identical artifacts: {', '.join(files_a)}")
