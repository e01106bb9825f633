import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from edgeprep.reliability import (
    ReliabilityState,
    close_interval,
    compute_lambda,
    cumulative_reliability,
    interval_reliability,
    poisson_weight,
)


def bits(state):
    """Everything a close changes, floats as their exact hex spelling."""
    return (state.q, state.beta.hex(), state.beta_cumulative.hex(),
            state.rate_integral.hex(),
            [(start, end, lam.hex()) for start, end, lam in state.lambda_history])


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


class TestReliabilityState:
    def test_fresh_state(self):
        state = ReliabilityState(3, seconds_per_unit=0.5)
        assert (state.n_expected, state.seconds_per_unit) == (3, 0.5)
        assert (state.q, state.lambda_history, state.rate_integral) == (0, [], 0.0)
        assert state.beta == state.beta_cumulative == 1.0

    def test_rejects_an_empty_expected_count(self):
        with pytest.raises(ValueError):
            ReliabilityState(0)

    @pytest.mark.parametrize("seconds_per_unit", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_time_unit_that_is_not_finite_and_positive(self, seconds_per_unit):
        with pytest.raises(ValueError):
            ReliabilityState(2, seconds_per_unit)

    @pytest.mark.parametrize("name", ["n_expected", "seconds_per_unit"])
    def test_the_expected_count_and_time_unit_are_read_only(self, name):
        # a close's bit identity with cumulative_reliability needs one unit
        state = ReliabilityState(2, 0.5)
        with pytest.raises(AttributeError):
            setattr(state, name, 1.0)


class TestCloseInterval:
    def test_close_resets_q_and_appends_history(self):
        state = ReliabilityState(2)
        state.q = 2
        close_interval([state], 0, 2000)
        assert state.q == 0
        assert state.lambda_history == [(0, 2000, 1.0)]
        assert state.beta == interval_reliability(2, 2, 2.0)
        assert state.beta_cumulative == state.beta

    def test_sequential_intervals_accumulate(self):
        state = ReliabilityState(2)
        state.q = 1
        close_interval([state], 0, 2000)
        close_interval([state], 2000, 4000)  # no appearances in the second piece
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
        state = ReliabilityState(n, seconds_per_unit)
        t_ms = start
        for q, length_ms in pieces:
            state.q = q
            t_ms += length_ms
            close_interval([state], t_ms - length_ms, t_ms)
            assert state.beta_cumulative == cumulative_reliability(
                state.lambda_history, n, start, t_ms, seconds_per_unit)

    @given(
        n=st.integers(min_value=1, max_value=10_000),
        seconds_per_unit=st.floats(min_value=1e-3, max_value=1e3),
        # each piece's q and length as shares of n and of n units, as below,
        # so that the bound is checked on weights that have not underflowed
        pieces=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2.0),
                      st.floats(min_value=0.5, max_value=1.5)),
            min_size=1, max_size=40,
        ),
    )
    # one close at the Poisson mode, q = n over n units: both weights near 0.056
    @example(n=50, seconds_per_unit=1.0, pieces=[(1.0, 1.0)])
    def test_both_weights_lie_in_the_unit_interval(self, n, seconds_per_unit, pieces):
        # the ranking reads beta as an attribute in [0, 1] and checks it nowhere
        state = ReliabilityState(n, seconds_per_unit)
        t_ms = 0
        for q_share, units in pieces:
            state.q = round(q_share * n)
            length_ms = max(1, round(units * n * seconds_per_unit * 1000))
            t_ms += length_ms
            close_interval([state], t_ms - length_ms, t_ms)
            assert 0.0 <= state.beta <= 1.0
            assert 0.0 <= state.beta_cumulative <= 1.0

    @given(
        n=st.integers(min_value=1, max_value=10_000),
        seconds_per_unit=st.floats(min_value=1e-3, max_value=1e3),
        start=st.integers(min_value=0, max_value=10**6),
        # each piece's q and length as shares of n and of n units, so that
        # the weights land near the Poisson mode, not where they underflow
        pieces=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2.0),
                      st.floats(min_value=0.5, max_value=1.5)),
            min_size=1, max_size=20,
        ),
    )
    def test_a_close_gives_the_bits_of_the_public_weights(self, n, seconds_per_unit, start,
                                                          pieces):
        # a close reads the lgamma(n + 1) its state fixed when it was built
        state = ReliabilityState(n, seconds_per_unit)
        t_ms = start
        for q_share, units in pieces:
            q = round(q_share * n)
            length_ms = max(1, round(units * n * seconds_per_unit * 1000))
            state.q = q
            t_ms += length_ms
            close_interval([state], t_ms - length_ms, t_ms)
            length = length_ms / 1000.0 / seconds_per_unit
            assert state.beta.hex() == interval_reliability(q, n, length).hex()
            assert state.beta_cumulative.hex() == cumulative_reliability(
                state.lambda_history, n, start, t_ms, seconds_per_unit).hex()

    def test_rejects_non_forward_close(self):
        state = ReliabilityState(2)
        with pytest.raises(ValueError):
            close_interval([state], 5000, 5000)

    @given(
        # small pools of n and of the unit give states equal n and lengths
        specs=st.lists(
            st.tuples(st.one_of(st.sampled_from([1, 5]), st.integers(min_value=1, max_value=20)),
                      st.one_of(st.sampled_from([0.5, 1.0]),
                                st.floats(min_value=0.001, max_value=10.0))),
            min_size=1, max_size=8,
        ),
        start=st.integers(min_value=0, max_value=10**6),
        data=st.data(),
    )
    def test_a_close_of_several_states_gives_each_the_bits_of_its_own_close(self, specs,
                                                                             start, data):
        together = [ReliabilityState(n, unit) for n, unit in specs]
        alone = [ReliabilityState(n, unit) for n, unit in specs]
        t_ms = start
        rounds = data.draw(st.lists(st.integers(min_value=1, max_value=60_000),
                                    min_size=1, max_size=10))
        for length_ms in rounds:
            # q beyond n_expected clamps the rate to 1
            qs = data.draw(st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=len(specs), max_size=len(specs)))
            t_ms += length_ms
            for state, twin, q in zip(together, alone, qs):
                state.q = twin.q = q
            close_interval(together, t_ms - length_ms, t_ms)
            for twin in alone:
                close_interval([twin], t_ms - length_ms, t_ms)
            for state, twin, (n, unit) in zip(together, alone, specs):
                assert bits(state) == bits(twin)
                assert state.beta_cumulative == cumulative_reliability(
                    state.lambda_history, n, start, t_ms, unit)

    @pytest.mark.parametrize("refusal", ["empty", "backward", "twice", "negative_q"])
    def test_a_refused_close_changes_no_state(self, refusal):
        first, other = ReliabilityState(2), ReliabilityState(2)
        first.q = 1
        start_ms = {"empty": 5000, "backward": 6000}.get(refusal, 0)
        if refusal == "twice":
            other = first
        elif refusal == "negative_q":
            other.q = -1  # the state after a valid one
        before = bits(first), bits(other)
        with pytest.raises(ValueError):
            close_interval([first, other], start_ms, 5000)
        assert (bits(first), bits(other)) == before

    def test_a_close_appends_to_the_history_it_holds(self):
        # counted, not timed: a long history is extended, never copied
        state = ReliabilityState(2)
        for t_ms in range(1000, 12_001_000, 1000):
            close_interval([state], t_ms - 1000, t_ms)
        history = state.lambda_history
        assert len(history) == 12_000
        state.q = 1
        close_interval([state], 12_000_000, 12_001_000)
        assert state.lambda_history is history
        assert len(history) == 12_001
        assert history[-1] == (12_000_000, 12_001_000, 0.5)
