import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from edgeprep.reliability import (
    ReliabilityState,
    close_interval,
    compute_lambda,
    cumulative_reliability,
    interval_reliability,
    poisson_weight,
    record_observation,
)


class TestLambda:
    def test_ratio_below_expected_count(self):
        assert compute_lambda(1, 2) == 0.5
        assert compute_lambda(0, 4) == 0.0

    def test_clamps_to_one_when_q_reaches_n(self):
        assert compute_lambda(5, 5) == 1.0
        assert compute_lambda(9, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_lambda(-1, 5)
        with pytest.raises(ValueError):
            compute_lambda(0, 0)


class TestRecordObservation:
    def test_increments_only_for_optimal_appearances(self):
        state = ReliabilityState("s1", n_expected=5)
        state = record_observation(state, True)
        assert state.q == 1
        state = record_observation(state, False)
        assert state.q == 1
        for _ in range(4):
            state = record_observation(state, True)
        assert state.q == 5


class TestIntervalReliability:
    def test_zero_rate_gives_zero(self):
        assert interval_reliability(0, 5, 10.0) == 0.0

    def test_matches_independent_poisson_pmf(self):
        # rate 0.5 over 10 s with 5 expected values: pmf at k=5, mean 5
        got = poisson_weight(0.5 * 10.0, 5)
        assert got == pytest.approx(stats.poisson.pmf(5, 5.0), abs=1e-9)
        # the same weight through the counting interface
        assert interval_reliability(1, 2, 5.0) == pytest.approx(
            stats.poisson.pmf(2, 2.5), abs=1e-9
        )

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            interval_reliability(1, 2, 0.0)
        with pytest.raises(ValueError):
            interval_reliability(1, 2, -3.0)

    def test_large_expected_count_stays_bounded(self):
        value = poisson_weight(1e6, 10**6)
        assert 0.0 < value < 1.0
        assert math.isfinite(value)

    @given(
        n=st.integers(min_value=1, max_value=200),
        t=st.floats(min_value=0.001, max_value=200.0),
        q1=st.integers(min_value=0, max_value=200),
        q2=st.integers(min_value=0, max_value=200),
    )
    def test_monotone_in_q_below_the_mode(self, n, t, q1, q2):
        # with t <= n the mean lam*t never exceeds n, where the weight is
        # non-decreasing in the rate
        if t > n:
            t = float(n)
        lo, hi = sorted((q1, q2))
        assert interval_reliability(hi, n, t) >= interval_reliability(lo, n, t)

    @given(
        q=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=50),
        t=st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_output_in_unit_interval(self, q, n, t):
        assert 0.0 <= interval_reliability(q, n, t) <= 1.0


class TestCumulativeReliability:
    def test_single_interval_equals_interval_form_exactly(self):
        lam = compute_lambda(1, 2)
        assert cumulative_reliability([(0, 10_000, lam)], 2, 0, 10_000) == \
            interval_reliability(1, 2, 10.0)

    def test_constant_unit_rate_over_length_n(self):
        # rate 1 over n seconds: weight is the Poisson pmf at its mode
        for n in (1, 4, 9):
            got = cumulative_reliability([(0, n * 1000, 1.0)], n, 0, n * 1000)
            assert got == pytest.approx(stats.poisson.pmf(n, n), abs=1e-12)

    def test_zero_rate_throughout(self):
        assert cumulative_reliability([(0, 5000, 0.0), (5000, 9000, 0.0)], 3, 0, 9000) == 0.0

    def test_uncovered_spans_contribute_nothing(self):
        covered = cumulative_reliability([(0, 5000, 1.0)], 5, 0, 10_000)
        assert covered == pytest.approx(poisson_weight(5.0, 5), abs=1e-15)

    def test_empty_history_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert cumulative_reliability([], 3, 0, 1000) == 0.0

    def test_piecewise_constant_exactness(self):
        pieces = [(0, 3000, 0.25), (3000, 7000, 0.25), (7000, 10_000, 0.25)]
        merged = cumulative_reliability([(0, 10_000, 0.25)], 4, 0, 10_000)
        split = cumulative_reliability(pieces, 4, 0, 10_000)
        assert split == pytest.approx(merged, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cumulative_reliability([(0, 1000, 0.5)], 2, 1000, 1000)
        with pytest.raises(ValueError):
            cumulative_reliability([(1000, 1000, 0.5)], 2, 0, 2000)


class TestCloseInterval:
    def test_close_resets_q_and_appends_history(self):
        state = ReliabilityState("s1", n_expected=2)
        state = record_observation(state, True)
        state = record_observation(state, True)
        state = close_interval(state, 2000)
        assert state.q == 0
        assert state.interval_start_ms == 2000
        assert state.lambda_history == ((0, 2000, 1.0),)
        assert state.beta == interval_reliability(2, 2, 2.0)
        assert state.beta_cumulative == state.beta

    def test_sequential_intervals_accumulate(self):
        state = ReliabilityState("s1", n_expected=2)
        state = close_interval(record_observation(state, True), 2000)
        state = close_interval(state, 4000)  # no appearances in the second piece
        assert [h[2] for h in state.lambda_history] == [0.5, 0.0]
        assert state.beta == 0.0
        assert state.beta_cumulative == pytest.approx(
            poisson_weight(0.5 * 2.0, 2), abs=1e-15
        )

    @given(
        n=st.integers(min_value=1, max_value=20),
        start=st.integers(min_value=0, max_value=10**6),
        seconds_per_unit=st.floats(min_value=0.001, max_value=10.0),
        pieces=st.lists(
            st.tuples(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=1, max_value=60_000)),
            min_size=1, max_size=40,
        ),
    )
    def test_running_integral_matches_reference_bit_for_bit(
        self, n, start, seconds_per_unit, pieces
    ):
        state = ReliabilityState("s1", n_expected=n, interval_start_ms=start)
        t_ms = start
        for q, length_ms in pieces:
            state = replace(state, q=q)
            t_ms += length_ms
            state = close_interval(state, t_ms, seconds_per_unit)
            assert state.beta_cumulative == cumulative_reliability(
                state.lambda_history, n, start, t_ms, seconds_per_unit)

    def test_rejects_non_forward_close(self):
        state = ReliabilityState("s1", n_expected=2, interval_start_ms=5000)
        with pytest.raises(ValueError):
            close_interval(state, 5000)
