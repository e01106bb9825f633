import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edgeprep.model import (
    STATIC_ATTRIBUTE_NAMES,
    ConfigError,
    Direction,
    QosProfile,
    SensorSpec,
    static_score,
)
from edgeprep.ranking import (
    rank_and_select,
    rank_terms,
    scaling_coefficients,
    static_terms,
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

    @given(raw=st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                         st.floats(min_value=740.0, max_value=750.0)),
           direction=st.sampled_from(list(Direction)))
    def test_every_accepted_raw_value_scores_in_the_unit_interval(self, raw, direction):
        # the ranking kernel trusts the static scores of its rows: this
        # range and the refusals below are their only check
        try:
            score = static_score(raw, direction)
        except ValueError:
            # only a cost whose exp(-raw) underflows is refused
            assert direction is Direction.COST and math.exp(-raw) == 0.0
        else:
            assert 0.0 < score <= 1.0

    @pytest.mark.parametrize("raw", [746.0, 800.0, 10_000.0, 1e308])
    def test_a_cost_whose_score_underflows_is_refused(self, raw):
        with pytest.raises(ValueError, match="underflows to 0"):
            static_score(raw, Direction.COST)
        assert static_score(raw, Direction.BENEFIT) > 0.0

    @given(raw=st.one_of(st.floats(max_value=0.0, exclude_max=True),
                         st.sampled_from([math.inf, math.nan])),
           direction=st.sampled_from(list(Direction)))
    def test_every_other_raw_value_is_refused(self, raw, direction):
        with pytest.raises(ValueError, match="raw attribute value"):
            static_score(raw, direction)

    def test_profile_needs_every_static_attribute(self):
        spec = make_spec("s1")
        assert spec.static_scores == pytest.approx(
            (math.exp(-0.5), math.exp(-1.0), math.exp(-1.0 / 51.0)))
        # bit for bit the score of each attribute, in STATIC_ATTRIBUTE_NAMES order
        assert spec.static_scores == tuple(
            static_score(spec.static_attrs[name].value, spec.static_attrs[name].direction)
            for name in STATIC_ATTRIBUTE_NAMES)
        # the scores cannot go stale: the attributes are read-only
        with pytest.raises(TypeError):
            del spec.static_attrs["range"]
        attrs = {k: v for k, v in spec.static_attrs.items() if k != "range"}
        with pytest.raises(ConfigError, match="sensor 's1' lacks static attribute 'range'"):
            SensorSpec("s1", "temperature", "room", attrs)

    @pytest.mark.parametrize("response, why", [(-1.0, ">= 0"), (800.0, "underflows")])
    def test_profile_errors_name_the_sensor_and_the_attribute(self, response, why):
        message = f"sensor 's1' static attribute 'response_time': .*{why}"
        with pytest.raises(ConfigError, match=message):
            make_spec("s1", response=response)


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
    """The combined distance ``d_ma`` of the rows ``rank_and_select``
    returns: ``hypot(xi_m d_m, xi_a d_a)``, with the coefficients
    :func:`scaling_coefficients` gives for the cohort's components."""

    def test_zero_at_origin(self):
        ids, states = cohort_of(make_state("a", 1, 1, 1, 1, 1), make_state("b", 0.5))
        _, d_m, d_a, d_ma, _ = record_of(rank_and_select(ids, states, qos()), "a")
        assert (d_m, d_a, d_ma) == (0.0, 0.0, 0.0)

    def test_single_component_reduction(self):
        # every row parallel to the utopia: no angular term, xi_a is 1
        rows = [(x,) * 5 for x in (1.0, 0.5, 0.25)]
        _, ranked = rank_and_select(("a", "b", "c"), rows, qos())
        _, d_ms, d_as, d_mas, _ = zip(*ranked)
        xi_m, xi_a = scaling_coefficients(d_ms, d_as)
        assert xi_a == 1.0
        assert d_as == (0.0, 0.0, 0.0)
        assert d_mas == tuple(xi_m * d_m for d_m in d_ms)

    def test_three_four_five(self):
        # the cohort means scale c's components to 3 (magnitude) and 4 (angle)
        profile = QosProfile(service_id="svc", utopia=(1, 0, 0, 0, 0), weights=(1, 1, 0, 0, 0))
        rows = [(1, 0, 0, 0, 0), (0.75, 0, 0, 0, 0), (1, 0.75, 0, 0, 0), (1, 0, 0, 0, 0)]
        ranking = rank_and_select(("a", "b", "c", "d"), rows, profile)
        _, d_ms, d_as, _, _ = zip(*ranking[1])
        xi_m, xi_a = scaling_coefficients(d_ms, d_as)
        _, d_m, d_a, d_ma, _ = record_of(ranking, "c")
        assert xi_m * d_m == 3.0
        assert xi_a * d_a == pytest.approx(4.0, rel=1e-15)
        assert d_ma == 5.0


class TestRankAndSelect:
    def test_singleton_cohort(self):
        order, ranked = rank_and_select(*cohort_of(make_state("only")), qos())
        assert order == ("only",)
        assert [(sid, rank) for sid, *_, rank in ranked] == [("only", 1)]

    def test_utopia_sensor_ranks_first(self):
        cohort = [
            make_state("ideal", 1, 1, 1, 1, 1),
            make_state("low", 0.2, 0.3, 0.1, 0.4, 0.2),
            make_state("mid", 0.5, 0.5, 0.5, 0.5, 0.5),
        ]
        ranking = rank_and_select(*cohort_of(*cohort), qos())
        order, _ = ranking
        assert order[0] == "ideal"
        *_, d_ma, rank = record_of(ranking, "ideal")
        assert (d_ma, rank) == (0.0, 1)

    def test_three_sensor_brute_force_agreement(self):
        cohort = [
            make_state("u1", 1, 1, 1, 1, 1),
            make_state("u2", 0.5, 0.4, 0.6, 0.5, 0.45),
            make_state("u3", 0.1, 0.3, 0.2, 0.1, 0.15),
        ]
        order, ranked = rank_and_select(*cohort_of(*cohort), qos())
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
        assert order[:1] == ("u1",)
        for (_, _, _, d_ma, _), expected in zip(ranked, combined):
            assert d_ma == pytest.approx(expected, abs=1e-12)

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
        order, ranked = rank_and_select(*cohort_of(*cohort), qos())
        dup = ("zz", dict(cohort)[order[-1]])
        extended = rank_and_select(*cohort_of(*cohort, dup), qos())
        for sid, d_m, d_a, _, _ in ranked:
            _, after_m, after_a, _, _ = record_of(extended, sid)
            assert (after_m, after_a) == (d_m, d_a)

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
            order, _ = rank_and_select(*cohort_of(*cohort), qos(weights=tuple(w)))
            above = order.index("s0") < order.index("s1")
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
        base, _ = rank_and_select(*cohort_of(*cohort), profile)
        worst = base[-1]
        dup_vals = matrix[int(worst[1:])]
        extended, _ = rank_and_select(*cohort_of(*cohort, make_state("zdup", *dup_vals)), profile)
        first_original = next(sid for sid in extended if sid != "zdup")
        assert first_original == base[0]


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
        order, ranked = topsis_select(*cohort_of(*cohort), qos(weights=weights))
        d_plus, d_minus, closeness = self.brute_force(matrix, weights)
        assert order == ("s0", "s1", "s2")  # dominant on the heavy attribute
        for (sid, d_m, d_a, d_ma, rank), dp_, dm_, c in zip(ranked, d_plus, d_minus, closeness):
            assert d_m == pytest.approx(dp_, abs=1e-12)
            assert d_a == pytest.approx(dm_, abs=1e-12)
            assert d_ma == pytest.approx(1.0 - c, abs=1e-12)
            assert rank == order.index(sid) + 1

    def test_identical_rows_tie_break_by_id(self):
        cohort = [make_state(sid, 0.5, 0.5, 0.5, 0.5, 0.5) for sid in ("a", "b", "c")]
        order, ranked = topsis_select(*cohort_of(*cohort), qos())
        assert order == ("a", "b", "c")
        assert [(sid, d_ma, rank) for sid, _, _, d_ma, rank in ranked] == [
            ("a", 0.0, 1), ("b", 0.0, 2), ("c", 0.0, 3)]

    def test_singleton_closeness_is_one(self):
        order, [(_, _, _, d_ma, rank)] = topsis_select(
            *cohort_of(make_state("solo", 0.4, 0.4, 0.4, 0.4, 0.4)), qos())
        assert order == ("solo",)
        assert (d_ma, rank) == (0.0, 1)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
vec5 = st.tuples(unit, unit, unit, unit, unit)
#: weights a QosProfile accepts: finite, >= 0 and not all zero
weights5 = st.tuples(*[st.floats(min_value=0.0, max_value=10.0, allow_nan=False)] * 5).filter(
    lambda w: sum(w) > 0)


def numpy_topsis(matrix, weights):
    """``(d_plus, d_minus, d_ma)`` of a cohort, as numpy arrays: the numpy
    TOPSIS body that ``topsis_select`` replaced, kept as its bit-for-bit
    reference."""
    matrix = np.array(matrix, dtype=float)
    w = np.array(weights)
    norms = np.sqrt((matrix**2).sum(axis=0))
    normalized = np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)
    weighted = normalized * w
    ideal = weighted.max(axis=0)
    anti = weighted.min(axis=0)
    d_plus = np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted - anti) ** 2).sum(axis=1))
    closeness = np.ones(len(matrix))
    span = d_plus + d_minus
    np.divide(d_minus, span, out=closeness, where=span > 0)
    return d_plus, d_minus, 1.0 - closeness


class TestTopsisMatchesNumpy:
    @settings(deadline=None)
    @given(rows=st.lists(vec5, min_size=1, max_size=40),
           weights=st.tuples(*[st.one_of(st.just(0.0), unit, st.floats(1.0, 10.0))] * 5
                             ).filter(any),
           zero_column=st.one_of(st.none(), st.integers(0, 4)))
    def test_bit_for_bit(self, rows, weights, zero_column):
        if zero_column is not None:
            rows = [row[:zero_column] + (0.0,) + row[zero_column + 1:] for row in rows]
        sensor_ids = tuple(f"s{i:02d}" for i in range(len(rows)))
        order, ranked = topsis_select(sensor_ids, rows, qos(weights=weights))
        d_plus, d_minus, d_ma = numpy_topsis(rows, weights)
        assert order == tuple(sensor_ids[i] for i in np.argsort(d_ma, kind="stable"))
        assert [tuple(map(float.hex, row[1:4])) for row in ranked] == [
            tuple(map(float.hex, values)) for values in zip(d_plus.tolist(), d_minus.tolist(),
                                                            d_ma.tolist())]


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
        ranking = rank_and_select(*cohort_of(state, make_state("t", *([0.3] * 5))), profile)
        *_, d_ma, _ = record_of(ranking, "s")
        if u == (1.0, 1.0, 1.0, 1.0, 1.0):
            assert d_ma == 0.0
        else:
            assert d_ma > 0.0


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


def reference_ranking(ids, cohort, v, w):
    """The ranking of ``cohort`` from the references: each row's 1-D
    components, the cohort's :func:`scaling_coefficients`, ``math.hypot``,
    and the ids sorted by ``(d_ma, id)`` with each one's place as its rank."""
    d_ms, d_as = zip(*(one_row_components(u, v, w) for u in cohort))
    xi_m, xi_a = scaling_coefficients(d_ms, d_as)
    d_mas = [math.hypot(xi_m * dm, xi_a * da) for dm, da in zip(d_ms, d_as)]
    order = tuple(sid for _, sid in sorted(zip(d_mas, ids)))
    return order, list(zip(ids, d_ms, d_as, d_mas, [order.index(sid) + 1 for sid in ids]))


#: rows of a cohort, often repeated, so that equal distances are drawn
tied_rows = st.one_of(vec5, st.sampled_from([(0.0,) * 5, (0.5,) * 5, (1.0,) * 5,
                                             (0.2, 0.4, 0.6, 0.8, 1.0)]))


class TestRankingMatchesComponents:
    """The checked ranking gives the bits of the reference components, and
    the order and ranks they imply."""

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
        d_ms, d_as = zip(*(one_row_components(u, v, w) for u in cohort))
        assert [row_components(u, v, w) for u in cohort] == list(zip(d_ms, d_as))
        xi_m, xi_a = scaling_coefficients(d_ms, d_as)
        n = len(cohort)
        sum_m, sum_a = left_to_right(d_ms), left_to_right(d_as)
        assert (xi_m, xi_a) == (n / sum_m if sum_m > 0 else 1.0,
                                n / sum_a if sum_a > 0 else 1.0)
        ranking = rank_and_select(ids, np.array(cohort), profile)
        assert ranking == reference_ranking(ids, cohort, v, w)

    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(cohort=st.lists(tied_rows, min_size=1, max_size=60), v=vec5, w=weights5)
    def test_equal_distances_keep_id_order(self, cohort, v, w):
        ids = tuple(f"s{i:03d}" for i in range(len(cohort)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w)
        assert rank_and_select(ids, cohort, profile) == reference_ranking(ids, cohort, v, w)

    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(cohort=cohorts, v=vec5, w=weights5)
    def test_components_equal_the_numpy_kernel_bit_for_bit(self, cohort, v, w):
        # the rows go in as tuples of Python floats, as the pipeline passes them
        ids = tuple(f"s{i:03d}" for i in range(len(cohort)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w)
        ranking = rank_and_select(ids, list(cohort), profile)
        _, ranked = ranking
        _, d_ms, d_as, d_mas, _ = zip(*ranked)
        d_m, d_a = numpy_row_distances(np.array(cohort), np.array(profile.utopia),
                                       np.array(profile.weights))
        assert hexes(d_ms) == hexes(d_m)
        assert hexes(d_as) == hexes(d_a)
        assert all(type(x) is float for x in d_ms + d_as + d_mas)


#: weights a QosProfile accepts, each entry 0 about half the time
sparse_weights5 = st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))]
                            * 5).filter(lambda w: sum(w) > 0)


class TestRankRowsKernel:
    """The cycle's kernel ranks the α and β of a cohort against the terms
    fixed once for its static scores and profile, and gives the ranking
    that :func:`rank_and_select` gives the whole rows, bit for bit; both
    give the bits of the reference components."""

    # shrinking a failing 120-row cohort takes minutes; the unshrunk
    # example is reported instead
    @settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(states=st.integers(min_value=1, max_value=120).flatmap(
               lambda n: st.lists(st.tuples(unit, unit, unit, unit, unit, unit),
                                  min_size=n, max_size=n)),
           v=vec5, w=sparse_weights5, beta_source=st.sampled_from(["interval", "cumulative"]))
    def test_terms_fixed_once_give_the_bits_of_rank_and_select(self, states, v, w, beta_source):
        # each state is (alpha, beta, beta_cumulative) and three static scores
        ids = tuple(f"s{i:03d}" for i in range(len(states)))
        profile = QosProfile(service_id="svc", utopia=v, weights=w, beta_source=beta_source)
        column = 1 if beta_source == "interval" else 2
        terms = static_terms([state[3:] for state in states], profile)
        order, ranked = rank_terms(ids, [state[0] for state in states],
                                   [state[column] for state in states], terms)
        rows = [(state[0], state[column]) + state[3:] for state in states]
        for expected_order, expected in (rank_and_select(ids, rows, profile),
                                         reference_ranking(ids, rows, v, w)):
            assert order == expected_order
            assert len(ranked) == len(expected)
            for (sid, d_m, d_a, d_ma, rank), want in zip(ranked, expected):
                assert (sid, d_m.hex(), d_a.hex(), d_ma.hex(), rank) == (
                    want[0], want[1].hex(), want[2].hex(), want[3].hex(), want[4])


@pytest.mark.parametrize("rank", [rank_and_select, topsis_select])
class TestCohortValidation:
    rows = [[0.5, 0.5, 0.5, 0.5, 0.5], [0.2, 0.4, 0.6, 0.8, 1.0], [0.0, 0.1, 0.2, 0.3, 0.4]]

    def test_valid_cohort_is_accepted(self, rank):
        order, ranked = rank(("a", "b", "c"), self.rows, qos())
        assert sorted(order) == ["a", "b", "c"]
        assert [(sid, r) for sid, *_, r in ranked] == [
            (sid, order.index(sid) + 1) for sid in ("a", "b", "c")]

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
