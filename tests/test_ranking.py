import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edgeprep.model import ConfigError, Direction, QosProfile
from edgeprep.ranking import (
    rank_and_select,
    rank_rows,
    scaling_coefficients,
    static_profile,
    static_score,
    topsis_select,
)
from conftest import cohort_of, make_spec, make_state, record_of, row_components


def qos(weights=(1, 1, 1, 1, 1), service_id="svc"):
    return QosProfile(service_id=service_id, weights=weights)


class TestStaticScore:
    def test_ideal_cost_attribute(self):
        assert static_score(0.0, Direction.COST) == 1.0

    def test_unit_cost_attribute(self):
        assert static_score(1.0, Direction.COST) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_log_two_cost_closed_form(self):
        assert static_score(math.log(2.0), Direction.COST) == pytest.approx(0.5, abs=1e-15)

    def test_benefit_attributes_invert_first(self):
        # large raw benefit values approach the ideal score of 1
        assert static_score(0.0, Direction.BENEFIT) == pytest.approx(math.exp(-1.0))
        big = static_score(1e6, Direction.BENEFIT)
        assert 0.999 < big <= 1.0

    def test_rejects_negative_raw(self):
        with pytest.raises(ValueError):
            static_score(-0.5, Direction.COST)
        with pytest.raises(ValueError):
            static_score(float("nan"), Direction.BENEFIT)

    @given(raw=st.floats(min_value=0.0, allow_infinity=False),
           direction=st.sampled_from(list(Direction)))
    def test_every_accepted_raw_value_scores_in_the_unit_interval(self, raw, direction):
        # the ranking kernel trusts the static scores of its rows: this
        # range and the refusal below are their only check
        assert 0.0 <= static_score(raw, direction) <= 1.0

    @given(raw=st.one_of(st.floats(max_value=0.0, exclude_max=True),
                         st.sampled_from([math.inf, math.nan])),
           direction=st.sampled_from(list(Direction)))
    def test_every_other_raw_value_is_refused(self, raw, direction):
        with pytest.raises(ValueError, match="raw attribute value"):
            static_score(raw, direction)

    def test_profile_needs_every_static_attribute(self):
        spec = make_spec("s1")
        assert static_profile(spec) == pytest.approx(
            (math.exp(-0.5), math.exp(-1.0), math.exp(-1.0 / 51.0)))
        del spec.static_attrs["range"]
        with pytest.raises(ConfigError, match="range"):
            static_profile(spec)


def euclidean(u, v, w=(1.0,) * 5):
    return row_components(u, v, w)[0]


def cosine(u, v, w=(1.0,) * 5):
    return row_components(u, v, w)[1]


class TestEuclideanComponent:
    def test_identity(self):
        _, u = make_state("a", 0.3, 0.4, 0.5, 0.6, 0.7)
        assert euclidean(u, u) == 0.0

    def test_unit_cube_diagonal(self):
        assert euclidean([0, 0, 0, 0, 0], [1, 1, 1, 1, 1]) == pytest.approx(
            2.23606797749979, abs=1e-15
        )

    def test_single_axis_weighting(self):
        got = euclidean([0.5, 0, 0, 0, 0], [1.0, 0, 0, 0, 0], [4, 0, 0, 0, 0])
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_weight(self):
        # the weights come from a QosProfile, which rejects them
        with pytest.raises(ConfigError):
            euclidean([0] * 5, [1] * 5, [1, 1, -1, 1, 1])


class TestCosineComponent:
    def test_parallel_vectors(self):
        assert cosine([0.5] * 5, [1.0] * 5) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_axes(self):
        assert cosine([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == 1.0

    def test_zero_norm_convention(self):
        assert cosine([0] * 5, [1] * 5) == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u, v, w = rng.random(5), rng.random(5), rng.random(5)
            assert 0.0 <= cosine(u, v, w) <= 1.0


class TestScalingCoefficients:
    def test_inverse_of_the_mean(self):
        assert scaling_coefficients([2, 2, 2], [1, 1, 1]) == (0.5, 1.0)

    def test_degenerate_sum(self):
        assert scaling_coefficients([0, 0], [0, 0]) == (1.0, 1.0)

    def test_single_element(self):
        assert scaling_coefficients([4.0], [2.0]) == (0.25, 0.5)


class TestDirectionAwareDistance:
    """The combined distance ``d_ma`` of the records ``rank_and_select``
    returns: ``hypot(xi_m d_m, xi_a d_a)``."""

    def test_zero_at_origin(self):
        ids, states = cohort_of(make_state("a", 1, 1, 1, 1, 1), make_state("b", 0.5))
        record = record_of(rank_and_select(ids, states, qos()), "a")
        assert (record.d_m, record.d_a, record.d_ma) == (0.0, 0.0, 0.0)

    def test_single_component_reduction(self):
        # every row parallel to the utopia: no angular term, xi_a is 1
        rows = [(x,) * 5 for x in (1.0, 0.5, 0.25)]
        result = rank_and_select(("a", "b", "c"), rows, qos())
        assert result.xi_a == 1.0
        for record in result.records:
            assert record.d_a == 0.0
            assert record.d_ma == result.xi_m * record.d_m

    def test_three_four_five(self):
        # the cohort means scale c's components to 3 (magnitude) and 4 (angle)
        profile = QosProfile(service_id="svc", utopia=(1, 0, 0, 0, 0), weights=(1, 1, 0, 0, 0))
        rows = [(1, 0, 0, 0, 0), (0.75, 0, 0, 0, 0), (1, 0.75, 0, 0, 0), (1, 0, 0, 0, 0)]
        result = rank_and_select(("a", "b", "c", "d"), rows, profile)
        c = record_of(result, "c")
        assert result.xi_m * c.d_m == 3.0
        assert result.xi_a * c.d_a == pytest.approx(4.0, rel=1e-15)
        assert c.d_ma == 5.0


class TestRankAndSelect:
    def test_singleton_cohort(self):
        result = rank_and_select(*cohort_of(make_state("only")), qos())
        assert result.order == ("only",)

    def test_utopia_sensor_ranks_first(self):
        cohort = [
            make_state("ideal", 1, 1, 1, 1, 1),
            make_state("low", 0.2, 0.3, 0.1, 0.4, 0.2),
            make_state("mid", 0.5, 0.5, 0.5, 0.5, 0.5),
        ]
        result = rank_and_select(*cohort_of(*cohort), qos())
        assert result.order[0] == "ideal"
        assert record_of(result, "ideal").d_ma == 0.0

    def test_three_sensor_brute_force_agreement(self):
        cohort = [
            make_state("u1", 1, 1, 1, 1, 1),
            make_state("u2", 0.5, 0.4, 0.6, 0.5, 0.45),
            make_state("u3", 0.1, 0.3, 0.2, 0.1, 0.15),
        ]
        result = rank_and_select(*cohort_of(*cohort), qos())
        # brute-force evaluation of the distance formulas
        dms, das = [], []
        for _, u in cohort:
            vec = np.array(u)
            ones = np.ones(5)
            dms.append(math.sqrt(float(np.sum((vec - ones) ** 2))))
            denom = math.sqrt(float(np.sum(vec**2)) * 5.0)
            das.append(1.0 - float(np.sum(vec)) / denom if denom else 1.0)
        xi_m = 3 / sum(dms) if sum(dms) > 0 else 1.0
        xi_a = 3 / sum(das) if sum(das) > 0 else 1.0
        combined = [math.hypot(xi_m * dm, xi_a * da) for dm, da in zip(dms, das)]
        assert result.order[:1] == ("u1",)
        for rec, expected in zip(result.records, combined):
            assert rec.d_ma == pytest.approx(expected, abs=1e-12)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            rank_and_select((), np.empty((0, 5)), qos())

    def test_repeated_calls_are_bit_identical(self):
        cohort = [make_state(f"s{i}", *np.random.default_rng(i).random(5)) for i in range(5)]
        a = rank_and_select(*cohort_of(*cohort), qos(weights=(2, 1, 0.5, 0.25, 1)))
        b = rank_and_select(*cohort_of(*cohort), qos(weights=(2, 1, 0.5, 0.25, 1)))
        assert a == b

    def test_duplication_leaves_component_distances_unchanged(self):
        cohort = [
            make_state("a", 0.9, 0.8, 0.7, 0.6, 0.5),
            make_state("b", 0.4, 0.3, 0.2, 0.1, 0.2),
        ]
        base = rank_and_select(*cohort_of(*cohort), qos())
        worst = base.order[-1]
        dup = ("zz", dict(cohort)[worst])
        extended = rank_and_select(*cohort_of(*cohort, dup), qos())
        for rec in base.records:
            after = record_of(extended, rec.sensor_id)
            assert after.d_m == rec.d_m
            assert after.d_a == rec.d_a

    @pytest.mark.xfail(
        strict=True,
        reason="the angular component can prefer the dominated sensor, so "
        "the combined order is not weight-monotone even though the "
        "magnitude order is (see the acceptance suite for the provable "
        "form)",
    )
    def test_weight_increase_never_drops_a_dominating_sensor_in_full_order(self):
        matrix = np.array([
            [0.3663354885565363, 0.7385107126866286, 0.4031402041190819,
             0.5618189300629993, 0.7197825350215462],
            [0.3663354885565363, 0.7385107126866286, 0.4031402041190819,
             0.5618189300629993, 0.5600998035493516],
            [0.40815666823101304, 0.4400501082335524, 0.12580701831228525,
             0.09172367905900669, 0.6674899231467579],
            [0.6555177383430523, 0.6629097142100953, 0.01976644534269167,
             0.3265468426717799, 0.19780984725919692],
        ])
        base_w = np.array([0.9106304013961302, 0.2966803772261473,
                           0.7178491588479864, 0.17936280345827443,
                           0.3251525256017133])
        cohort = [make_state(f"s{i}", *matrix[i]) for i in range(4)]
        # s0 dominates s1 on the last attribute; everything else is equal
        prev_above = None
        for scale in (0.25, 0.5, 1.0, 2.0):
            w = base_w.copy()
            w[4] *= scale
            result = rank_and_select(*cohort_of(*cohort), qos(weights=tuple(w)))
            above = result.order.index("s0") < result.order.index("s1")
            if prev_above is True:
                assert above, f"s0 dropped below s1 when scaling weight by {scale}"
            prev_above = above

    @pytest.mark.xfail(
        strict=True,
        reason="cohort-dependent scaling can flip the leader when a "
        "non-selected sensor is duplicated; the magnitude/angle mix shifts "
        "because the duplicate inflates the two component sums unevenly",
    )
    def test_first_rank_stable_under_duplicating_the_worst(self):
        matrix = np.array([
            [0.6727370818634266, 0.39234644559183274, 0.19828639032476658,
             0.9447393578908352, 0.3704301874557362],
            [0.12494847875260773, 0.5417135202413597, 0.20689735929383501,
             0.8007543145473153, 0.690716585003959],
            [0.5999315850630904, 0.015462253165475, 0.4225528394273822,
             0.5521624539224089, 0.7638257397863354],
        ])
        weights = (0.390911298177587, 0.9856296351458572, 0.4964451800442187,
                   0.13618008450338565, 0.4859997089612143)
        cohort = [make_state(f"s{i}", *matrix[i]) for i in range(3)]
        profile = qos(weights=weights)
        base = rank_and_select(*cohort_of(*cohort), profile)
        worst = base.order[-1]
        dup_vals = matrix[int(worst[1:])]
        extended = rank_and_select(*cohort_of(*cohort, make_state("zdup", *dup_vals)), profile)
        first_original = next(sid for sid in extended.order if sid != "zdup")
        assert first_original == base.order[0]


class TestTopsis:
    @staticmethod
    def brute_force(matrix, weights):
        m = np.asarray(matrix, dtype=float)
        w = np.asarray(weights, dtype=float)
        norms = np.sqrt((m**2).sum(axis=0))
        normalized = np.where(norms > 0, m / np.where(norms == 0, 1, norms), 0.0)
        weighted = normalized * w
        ideal = weighted.max(axis=0)
        anti = weighted.min(axis=0)
        d_plus = np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
        d_minus = np.sqrt(((weighted - anti) ** 2).sum(axis=1))
        with np.errstate(invalid="ignore"):
            closeness = np.where(d_plus + d_minus > 0, d_minus / (d_plus + d_minus), 1.0)
        return d_plus, d_minus, closeness

    def test_matches_hand_evaluated_instance(self):
        matrix = [
            [0.9, 0.5, 0.3, 0.3, 0.3],
            [0.5, 0.5, 0.3, 0.3, 0.3],
            [0.4, 0.5, 0.3, 0.3, 0.3],
        ]
        weights = (0.7, 0.3, 0.1, 0.1, 0.1)
        cohort = [make_state(f"s{i}", *row) for i, row in enumerate(matrix)]
        result = topsis_select(*cohort_of(*cohort), qos(weights=weights))
        d_plus, d_minus, closeness = self.brute_force(matrix, weights)
        assert result.order[:1] == ("s0",)  # dominant on the heavy attribute
        for rec, dp_, dm_, c in zip(result.records, d_plus, d_minus, closeness):
            assert rec.d_m == pytest.approx(dp_, abs=1e-12)
            assert rec.d_a == pytest.approx(dm_, abs=1e-12)
            assert rec.d_ma == pytest.approx(1.0 - c, abs=1e-12)

    def test_identical_rows_tie_break_by_id(self):
        cohort = [make_state(sid, 0.5, 0.5, 0.5, 0.5, 0.5) for sid in ("a", "b", "c")]
        result = topsis_select(*cohort_of(*cohort), qos())
        assert result.order == ("a", "b", "c")
        assert all(rec.d_ma == 0.0 for rec in result.records)

    def test_singleton_closeness_is_one(self):
        result = topsis_select(*cohort_of(make_state("solo", 0.4, 0.4, 0.4, 0.4, 0.4)), qos())
        assert result.order[:1] == ("solo",)
        assert result.records[0].d_ma == 0.0


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
vec5 = st.tuples(unit, unit, unit, unit, unit)
#: weights a QosProfile accepts: finite, >= 0 and not all zero
weights5 = st.tuples(*[st.floats(min_value=0.0, max_value=10.0, allow_nan=False)] * 5).filter(
    lambda w: sum(w) > 0)


class TestMetricAxioms:
    @given(u=vec5, v=vec5, w=weights5)
    def test_symmetry(self, u, v, w):
        assert euclidean(u, v, w) == pytest.approx(euclidean(v, u, w), abs=1e-12)

    @given(u=vec5, v=vec5, x=vec5, w=weights5)
    def test_triangle_inequality(self, u, v, x, w):
        duv = euclidean(u, v, w)
        dvx = euclidean(v, x, w)
        dux = euclidean(u, x, w)
        assert dux <= duv + dvx + 1e-12

    @given(u=vec5, w=weights5)
    def test_identity_and_nonnegativity(self, u, w):
        assert euclidean(u, u, w) == 0.0
        assert euclidean(u, tuple(reversed(u)), w) >= 0.0


class TestZeroDistanceCharacterization:
    @given(u=vec5)
    def test_distance_zero_iff_utopia(self, u):
        state = make_state("s", *u)
        profile = qos(weights=(1, 1, 1, 1, 1))
        result = rank_and_select(*cohort_of(state, make_state("t", *([0.3] * 5))), profile)
        rec = record_of(result, "s")
        if u == (1.0, 1.0, 1.0, 1.0, 1.0):
            assert rec.d_ma == 0.0
        else:
            assert rec.d_ma > 0.0


#: cohorts of every size from 1 to 120, so that sums over more than eight
#: values (where numpy's pairwise summation departs from Python's
#: left-to-right sum) are drawn as often as small ones
cohorts = st.integers(min_value=1, max_value=120).flatmap(
    lambda n: st.lists(vec5, min_size=n, max_size=n))


def one_row_components(a, v, w):
    """The two components from 1-D sums over one sensor's attributes."""
    a, v, w = np.asarray(a, dtype=float), np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    d_m = float(np.sqrt(np.sum(w * (a - v) ** 2)))
    wa, wv = w * a, w * v
    denom = math.sqrt(float(np.sum(wa**2)) * float(np.sum(wv**2)))
    if denom == 0.0:
        return d_m, 1.0
    return d_m, min(max(1.0 - float(np.sum(np.abs(wa) * np.abs(wv))) / denom, 0.0), 1.0)


def left_to_right(xs):
    """The sum of ``xs`` added in turn; the builtin ``sum`` compensates its
    rounding from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def numpy_row_distances(states, v, wt):
    """``(d_m, d_a)`` arrays of every row of ``states`` to ``v``, from the
    numpy row-wise kernel ``rank_and_select`` once ran: ``d_m = sqrt(sum(w
    (a - v)^2))`` and ``d_a = 1 - sum(|w a| |w v|) / sqrt(sum((w a)^2)
    sum((w v)^2))``, clipped to [0, 1] and 1 for a zero root."""
    d_m = np.sqrt((wt * (states - v) ** 2).sum(axis=1))
    wa, wb = wt * states, wt * v
    denom = np.sqrt((wa**2).sum(axis=1) * (wb**2).sum())
    zero = denom == 0.0
    similarity = (np.abs(wa) * np.abs(wb)).sum(axis=1) / np.where(zero, 1.0, denom)
    d_a = np.minimum(np.maximum(1.0 - similarity, 0.0), 1.0)
    d_a[zero] = 1.0
    return d_m, d_a


def hexes(values):
    return [float(v).hex() for v in values]


class TestRankingMatchesComponents:
    # shrinking a failing 120-row cohort takes minutes; the unshrunk
    # example is reported instead
    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(cohort=cohorts, v=vec5, w=weights5)
    def test_records_equal_public_components_bit_for_bit(self, cohort, v, w):
        # the row-wise ranking of a cohort gives the bits of 1-D sums per
        # sensor and of each row ranked alone; the cohort means use Python's
        # left-to-right sum and the combination math.hypot
        ids = tuple(f"s{i:03d}" for i in range(len(cohort)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w)
        result = rank_and_select(ids, np.array(cohort), profile)
        d_ms, d_as = zip(*(one_row_components(u, v, w) for u in cohort))
        assert [row_components(u, v, w) for u in cohort] == list(zip(d_ms, d_as))
        xi_m, xi_a = scaling_coefficients(d_ms, d_as)
        n = len(cohort)
        sum_m, sum_a = left_to_right(d_ms), left_to_right(d_as)
        assert (xi_m, xi_a) == (n / sum_m if sum_m > 0 else 1.0,
                                n / sum_a if sum_a > 0 else 1.0)
        assert (result.xi_m, result.xi_a) == (xi_m, xi_a)
        d_mas = [math.hypot(xi_m * dm, xi_a * da) for dm, da in zip(d_ms, d_as)]
        assert [(r.sensor_id, r.d_m, r.d_a, r.d_ma) for r in result.records] == list(
            zip(ids, d_ms, d_as, d_mas))
        assert result.order == tuple(
            sid for _, sid in sorted(zip(d_mas, ids)))

    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(cohort=cohorts, v=vec5, w=weights5)
    def test_components_equal_the_numpy_kernel_bit_for_bit(self, cohort, v, w):
        # the rows go in as tuples of Python floats, as the pipeline passes them
        ids = tuple(f"s{i:03d}" for i in range(len(cohort)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w)
        result = rank_and_select(ids, list(cohort), profile)
        d_m, d_a = numpy_row_distances(np.array(cohort), np.array(profile.utopia),
                                       np.array(profile.weights))
        assert hexes(r.d_m for r in result.records) == hexes(d_m)
        assert hexes(r.d_a for r in result.records) == hexes(d_a)
        assert all(type(x) is float for r in result.records for x in r[1:])


#: rows of a cohort, often repeated, so that equal distances are drawn
tied_rows = st.one_of(vec5, st.sampled_from([(0.0,) * 5, (0.5,) * 5, (1.0,) * 5,
                                             (0.2, 0.4, 0.6, 0.8, 1.0)]))


class TestRankRowsKernel:
    """``rank_rows`` over the pipeline's rows gives ``rank_and_select``'s
    bits and order, and each sensor's rank in that order."""

    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(cohort=st.lists(tied_rows, min_size=1, max_size=60), v=vec5, w=weights5)
    def test_matches_rank_and_select_bit_for_bit(self, cohort, v, w):
        ids = tuple(f"s{i:03d}" for i in range(len(cohort)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w)
        order, ranked = rank_rows(ids, cohort, profile)
        result = rank_and_select(ids, cohort, profile)
        assert order == result.order
        assert [(sid, d_m.hex(), d_a.hex(), d_ma.hex()) for sid, d_m, d_a, d_ma, _ in ranked] \
            == [(r.sensor_id, r.d_m.hex(), r.d_a.hex(), r.d_ma.hex()) for r in result.records]
        assert [rank for *_, rank in ranked] == [order.index(sid) + 1 for sid in ids]


@pytest.mark.parametrize("rank", [rank_and_select, topsis_select])
class TestCohortValidation:
    rows = [[0.5, 0.5, 0.5, 0.5, 0.5], [0.2, 0.4, 0.6, 0.8, 1.0], [0.0, 0.1, 0.2, 0.3, 0.4]]

    def test_valid_cohort_is_accepted(self, rank):
        assert rank(("a", "b", "c"), self.rows, qos()).order

    @pytest.mark.parametrize("bad", [math.nan, 1.2, -0.1])
    def test_entry_outside_the_unit_interval_is_rejected(self, rank, bad):
        rows = np.array(self.rows)
        rows[1, 3] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rank(("a", "b", "c"), rows, qos())

    @pytest.mark.parametrize("ids", [("a", "c", "b"), ("a", "a", "c"), ("c", "b", "a")])
    def test_ids_not_strictly_ascending_are_rejected(self, rank, ids):
        with pytest.raises(ValueError, match="strictly ascending"):
            rank(ids, self.rows, qos())

    @pytest.mark.parametrize("ids, states", [
        (("a", "b", "c"), np.full((3, 4), 0.5)),           # four attributes
        (("a", "b", "c", "d"), np.full((3, 5), 0.5)),      # more ids than rows
        (("a", "b"), np.full((3, 5), 0.5)),                # more rows than ids
        (("a",), np.full(5, 0.5)),                         # one flat vector
    ])
    def test_shape_must_be_one_row_of_five_per_id(self, rank, ids, states):
        with pytest.raises(ValueError, match="shape"):
            rank(ids, states, qos())
