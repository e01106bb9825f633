import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from edgeprep.fusion import KalmanConfig
from edgeprep.voting import (
    VotingConfig,
    assign_accuracy,
    cumulative_scores,
    default_k,
    membership_matrix,
    normalize,
    select_optimal,
    vote,
    MembershipMatrix,
    NormalizedMeasurements,
)
from conftest import exact_sum, exp_reference, mixed_magnitudes

# Worked example shared by several tests: one far-off reading among a tight
# cluster, already standardized.
WORKED_INPUT = (-2.16, 0.68, 0.63, 0.66, 0.18)

# The reference membership matrix for WORKED_INPUT at p=2, c=2, rounded to
# the precision it is usually displayed at.
WORKED_MATRIX = np.array([
    [1.0,   0.018, 0.02,  0.019, 0.064],
    [0.018, 1.0,   0.999, 0.999, 0.883],
    [0.02,  0.999, 1.0,   0.999, 0.90],
    [0.019, 0.999, 0.999, 1.0,   0.894],
    [0.064, 0.883, 0.90,  0.894, 1.0],
])


def with_ids(values, prefix="x"):
    return [(f"{prefix}{i}", float(v)) for i, v in enumerate(values, start=1)]


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


class TestNormalize:
    def test_matches_independent_stdlib_oracle(self):
        raw = [0.6, 12.0, 11.8, 11.9, 10.0]
        mean = statistics.fmean(raw)
        stdev = statistics.stdev(raw)  # n-1 divisor, independent of numpy
        expected = [(v - mean) / stdev for v in raw]
        got = normalize(with_ids(raw))
        assert got.values == pytest.approx(expected, abs=1e-12)
        assert got.mean == pytest.approx(mean, abs=1e-12)
        assert got.stdev == pytest.approx(stdev, abs=1e-12)

    def test_two_point_case(self):
        # stdev([1, 3]) = sqrt(2); standardized values are +-1/sqrt(2)
        got = normalize(with_ids([1.0, 3.0]))
        assert got.stdev == pytest.approx(1.4142135623730951, abs=1e-15)
        assert got.values == pytest.approx(
            (-0.7071067811865475, 0.7071067811865475), abs=1e-12
        )

    def test_all_equal_values_map_to_zeros(self):
        got = normalize(with_ids([5.0, 5.0, 5.0]))
        assert got.stdev == 0.0
        assert got.values == (0.0, 0.0, 0.0)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            normalize(with_ids([1.0]))

    def test_rejects_duplicate_sensor_ids(self):
        with pytest.raises(ValueError):
            normalize([("a", 1.0), ("a", 2.0)])

    def test_canonicalizes_to_ascending_sensor_ids(self):
        got = normalize([("b", 2.0), ("a", 1.0), ("c", 3.0)])
        assert got.source_ids == ("a", "b", "c")


class TestMembershipMatrix:
    def test_worked_example_first_row(self):
        m = membership_matrix(norm_from(WORKED_INPUT), VotingConfig(p=2, c=2))
        assert m.rows[0][1:] == pytest.approx([0.018, 0.02, 0.019, 0.064], abs=1e-3)

    def test_all_equal_inputs_give_all_ones(self):
        m = membership_matrix(norm_from([0.0, 0.0, 0.0]))
        assert m.rows == [[1.0] * 3] * 3

    def test_two_point_value_against_high_precision_oracle(self):
        m = membership_matrix(norm_from([0.0, 2.0]), VotingConfig(p=2, c=2))
        oracle = exp_reference(-2)
        assert m.rows[0][1] == pytest.approx(0.1353352832366127, abs=1e-15)
        assert m.rows[0][1] == pytest.approx(oracle, abs=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VotingConfig(p=3)
        with pytest.raises(ValueError):
            VotingConfig(p=0)
        with pytest.raises(ValueError):
            VotingConfig(c=0.0)
        with pytest.raises(ValueError):
            VotingConfig(k=0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_config_rejects_non_finite_c(self, c):
        # c = inf would make every pair agree fully
        with pytest.raises(ValueError, match="finite"):
            VotingConfig(c=c)


class TestCumulativeScores:
    def test_worked_example_row_sums(self):
        scores = cumulative_scores(MembershipMatrix(5, WORKED_MATRIX))
        assert scores == pytest.approx([1.121, 3.899, 3.918, 3.911, 3.741], abs=1e-12)
        # the commonly cited closing value 2.741 is this row without its
        # unit self-membership
        assert scores[4] - 1.0 == pytest.approx(2.741, abs=1e-12)

    def test_all_ones_matrix(self):
        scores = cumulative_scores(MembershipMatrix(4, np.ones((4, 4))))
        assert scores == (4.0, 4.0, 4.0, 4.0)

    def test_two_by_two(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert cumulative_scores(MembershipMatrix(2, m)) == (1.5, 1.5)


class TestSelectOptimal:
    def test_worked_example_selection(self):
        scores = (1.121, 3.899, 3.918, 3.911, 2.741)
        chosen = select_optimal(scores, normalize(with_ids([0.6, 12.0, 11.8, 11.9, 10.0])),
                                VotingConfig(k=3))
        assert chosen.sensor_ids == ("x3", "x4", "x2")
        assert set(chosen.sensor_ids) == {"x2", "x3", "x4"}
        assert chosen.measurements == (11.8, 11.9, 12.0)

    def test_all_equal_scores_full_set(self):
        chosen = select_optimal((2.0, 2.0, 2.0), normalize(with_ids([1, 2, 3])),
                                VotingConfig(k=3))
        assert chosen.sensor_ids == ("x1", "x2", "x3")

    def test_tie_break_by_ascending_sensor_id(self):
        chosen = select_optimal((2.0, 2.0, 1.0), normalize(with_ids([5, 6, 7])),
                                VotingConfig(k=1))
        assert chosen.sensor_ids == ("x1",)

    def test_default_k_is_majority(self):
        assert default_k(7) == 4
        assert default_k(4) == 2
        chosen = select_optimal((1.0, 2.0, 3.0), normalize(with_ids([1, 2, 3])))
        assert chosen.k == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_optimal((1.0, 2.0), normalize(with_ids([1, 2])), VotingConfig(k=3))


class TestAssignAccuracy:
    def test_measurement_equal_to_estimate_scores_one(self):
        norm = normalize(with_ids([7.0, 7.0, 7.0]))
        optimal = select_optimal((2.0, 2.0, 2.0), norm, VotingConfig(k=3))
        alphas = assign_accuracy(norm, optimal)
        assert alphas == {"x1": 1.0, "x2": 1.0, "x3": 1.0}

    def test_unit_residual(self):
        optimal = select_optimal((2.0, 2.0), normalize(with_ids([3.0, 3.0])), VotingConfig(k=2))
        alphas = assign_accuracy(normalize([("x1", 3.0), ("x2", 4.0)]), optimal)
        assert alphas["x2"] == pytest.approx(0.36787944117144233, abs=1e-15)
        assert alphas["x2"] == pytest.approx(exp_reference(-1), abs=1e-15)

    def test_outlier_two_units_from_consensus(self):
        # brute-force filter oracle: identical inputs keep the state exactly
        cfg = KalmanConfig()
        state, var = 10.0, cfg.initial_variance
        for z in [10.0, 10.0, 10.0, 10.0]:
            var += cfg.process_noise
            gain = var / (var + cfg.measurement_noise)
            state += gain * (z - state)
            var *= 1 - gain
        assert state == 10.0

        norm = normalize(with_ids([10.0, 10.0, 10.0, 10.0, 12.0]))
        scores = cumulative_scores(membership_matrix(norm, VotingConfig()))
        optimal = select_optimal(scores, norm, VotingConfig(k=4))
        assert "x5" not in optimal.sensor_ids
        alphas = assign_accuracy(norm, optimal, cfg)
        assert alphas["x5"] == pytest.approx(0.1353352832366127, abs=1e-15)
        for sid in ("x1", "x2", "x3", "x4"):
            assert alphas[sid] == 1.0


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(st.lists(finite_floats, min_size=2, max_size=12))
    def test_standardized_values_are_centered(self, values):
        norm = normalize(with_ids(values))
        if norm.stdev > 0:
            scale = max(1.0, max(abs(v) for v in norm.values))
            assert abs(statistics.fmean(norm.values)) <= 1e-9 * scale

    @given(st.lists(finite_floats, min_size=2, max_size=12))
    def test_membership_symmetry_and_unit_diagonal(self, values):
        m = membership_matrix(normalize(with_ids(values)))
        n = m.n
        assert all(m.rows[i][j] == m.rows[j][i] for i in range(n) for j in range(n))
        assert all(m.rows[i][i] == 1.0 for i in range(n))

    @given(st.lists(finite_floats, min_size=2, max_size=12))
    def test_score_bounds(self, values):
        scores = cumulative_scores(membership_matrix(normalize(with_ids(values))))
        n = len(values)
        for s in scores:
            assert 1.0 <= s <= n * (1 + 1e-12)

    @given(
        st.lists(finite_floats, min_size=2, max_size=10),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_selection_invariant_under_scale_and_shift(self, values, scale, shift):
        base = with_ids(values)
        # the affine map must not absorb the spread of the data into
        # rounding (invariance is an exact-arithmetic property)
        spread = float(np.std(values, ddof=1))
        magnitude = scale * max(abs(v) for v in values) + abs(shift) + 1.0
        assume(spread == 0.0 or spread * scale > 1e-7 * magnitude)
        norm = normalize(base)
        scores = cumulative_scores(membership_matrix(norm))
        k = default_k(len(values))
        ranked = sorted(scores, reverse=True)
        # argmax-level invariance needs an unambiguous k-boundary
        if k < len(values):
            assume(ranked[k - 1] - ranked[k] > 1e-9)
        chosen = select_optimal(scores, norm)
        moved = normalize([(sid, v * scale + shift) for sid, v in base])
        moved_scores = cumulative_scores(membership_matrix(moved))
        moved_chosen = select_optimal(moved_scores, moved)
        assert set(chosen.sensor_ids) == set(moved_chosen.sensor_ids)

    @given(
        st.lists(finite_floats, min_size=2, max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_permutation_equivariance(self, values, rnd):
        base = with_ids(values)
        shuffled = list(base)
        rnd.shuffle(shuffled)
        a = normalize(base)
        b = normalize(shuffled)
        assert a == b
        sa = cumulative_scores(membership_matrix(a))
        sb = cumulative_scores(membership_matrix(b))
        assert sa == sb
        assert select_optimal(sa, a) == select_optimal(sb, b)
        oa = select_optimal(sa, a)
        assert assign_accuracy(a, oa) == assign_accuracy(b, oa)

    def test_planted_outlier_never_beats_cluster(self):
        # one value far from a tight cluster scores strictly below every
        # cluster member (sample of the larger acceptance sweep)
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(10, 26))
            base = rng.uniform(-50, 50)
            cluster = base + rng.normal(0.0, 1.0, size=n - 1)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            outlier = base + sign * 200.0
            measurements = [(f"s{i:02d}", float(v)) for i, v in enumerate(cluster)]
            measurements.append(("s99", float(outlier)))
            delta = float(np.std([v for _, v in measurements], ddof=1))
            assert min(abs(outlier - float(c)) for c in cluster) >= 3 * delta
            scores = cumulative_scores(membership_matrix(normalize(measurements)))
            outlier_score = scores[-1]  # s99 sorts last
            assert all(s > outlier_score for s in scores[:-1])


def reference_normalize(measurements):
    """Standardization with every sum exact and rounded once, returning
    ``(values, mean, stdev)``."""
    raw = [v for _, v in sorted(measurements)]
    n = len(raw)
    mean = exact_sum(raw) / n
    deviations = [x - mean for x in raw]
    correction = exact_sum(deviations) / n
    deviations = [d - correction for d in deviations]
    stdev = math.sqrt(exact_sum([d * d for d in deviations]) / (n - 1))
    values = [d / stdev for d in deviations] if stdev > 0 else [0.0] * n
    return tuple(values), mean + correction, stdev


def reference_membership(values, p, c):
    """Each pair's degree through numpy float64 scalars."""
    n = len(values)
    entries = np.ones((n, n))
    with np.errstate(over="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                u = math.exp(-((np.float64(values[i]) - np.float64(values[j])) ** p) / c)
                entries[i, j] = entries[j, i] = u
    return entries


class TestMatchesNumpyScalarReference:
    """The membership degrees on Python floats are the numpy-scalar
    versions' bits."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=130),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           p=st.sampled_from([2, 4, 6, 1000]),
           c=st.floats(min_value=0.1, max_value=10.0))
    def test_membership_matrix(self, n, seed, p, c):
        # p = 1000 overflows float pow for pairs more than ~2 apart
        rng = np.random.default_rng(seed)
        norm = normalize(with_ids(rng.normal(20.0, 3.0, size=n)))
        got = membership_matrix(norm, VotingConfig(p=p, c=c))
        assert np.array(got.rows).tobytes() == reference_membership(norm.values, p, c).tobytes()

    def test_an_overflowing_power_gives_zero_membership(self):
        got = membership_matrix(norm_from([-2.0, 2.0]), VotingConfig(p=1000))
        assert got.rows == [[1.0, 0.0], [0.0, 1.0]]


class TestSumsAreExact:
    """Every sum is the exact sum rounded once, whatever the order or the
    magnitudes of its terms: bit for bit the rational sum rounded to a
    float (``==`` on floats is bit equality apart from the sign of zero)."""

    @given(st.lists(finite_floats, min_size=2, max_size=130),
           st.sampled_from([0.0, 1e6, -3e8]))
    def test_normalize(self, values, offset):
        # an offset that dwarfs the spread exercises the second centering pass
        measurements = with_ids([v + offset for v in values])
        got = normalize(measurements)
        assert (got.values, got.mean, got.stdev) == reference_normalize(measurements)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=130),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_cumulative_scores(self, n, seed):
        rng = np.random.default_rng(seed)
        matrix = membership_matrix(normalize(with_ids(rng.normal(20.0, 3.0, size=n))))
        assert cumulative_scores(matrix) == tuple(map(exact_sum, matrix.rows))

    @given(st.lists(st.lists(mixed_magnitudes, min_size=1, max_size=130),
                    min_size=1, max_size=3))
    def test_row_sums_equal_the_rational_sum(self, rows):
        assert cumulative_scores(MembershipMatrix(len(rows), rows)) == tuple(
            map(exact_sum, rows))

    def test_cancellation_keeps_the_small_term(self):
        # left to right, 1e16 + 1.0 rounds the 1.0 away
        row = [1e16, 1.0, -1e16]
        assert (row[0] + row[1]) + row[2] == 0.0
        assert cumulative_scores(MembershipMatrix(1, [row])) == (1.0,)


def chain_vote(raw, cfg, kf_cfg):
    """Each reading's alpha and the optimal set's indices by the five public
    steps, the set size clamped to the readings as a cohort's vote clamps
    it."""
    measurements = [(f"s{i:02d}", v) for i, v in enumerate(raw)]
    if cfg.k is not None and cfg.k > len(raw):
        cfg = replace(cfg, k=len(raw))
    norm = normalize(measurements)
    optimal = select_optimal(cumulative_scores(membership_matrix(norm, cfg)), norm, cfg)
    alphas = assign_accuracy(norm, optimal, kf_cfg)
    index = {sid: i for i, (sid, _) in enumerate(measurements)}
    return [alphas[sid] for sid, _ in measurements], [index[sid] for sid in optimal.sensor_ids]


class TestVoteKernel:
    """``vote`` over readings in id order gives the five-step chain's bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.one_of(finite_floats, mixed_magnitudes), min_size=2, max_size=40),
        p=st.integers(min_value=1, max_value=8).map(lambda h: 2 * h),
        c=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        k=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
        noise=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_matches_the_public_chain_bit_for_bit(self, raw, p, c, k, noise):
        cfg = VotingConfig(p=p, c=c, k=k)
        kf_cfg = KalmanConfig(measurement_noise=noise)
        alphas, top = vote(raw, cfg, kf_cfg)
        want_alphas, want_top = chain_vote(raw, cfg, kf_cfg)
        assert [a.hex() for a in alphas] == [a.hex() for a in want_alphas]
        assert top == want_top

    @given(raw=st.lists(mixed_magnitudes, min_size=2, max_size=40),
           k=st.one_of(st.none(), st.integers(min_value=1, max_value=50)))
    def test_alpha_lies_in_the_unit_interval(self, raw, k):
        alphas, top = vote(raw, VotingConfig(k=k), KalmanConfig())
        assert all(0.0 <= a <= 1.0 for a in alphas)
        assert len(top) == min(k or default_k(len(raw)), len(raw)) == len(set(top))

    def test_an_estimate_that_is_not_a_number_gives_nan_weights_as_the_chain(self):
        # the third optimal reading meets a state of -inf: inf - inf
        raw = [1e308, -1e308, 1e308, -1e308, 1e308]
        alphas, top = vote(raw, VotingConfig(), KalmanConfig())
        want_alphas, want_top = chain_vote(raw, VotingConfig(), KalmanConfig())
        assert all(math.isnan(a) for a in alphas + want_alphas)
        assert top == want_top
