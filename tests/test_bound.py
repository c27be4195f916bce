"""Proven stabilization bounds: the box they give and the answers it proves."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankgrowth import (
    CERTIFIED,
    OperatorSystem,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    augment,
    default_box,
)
from rankgrowth.backends import (
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
)
from rankgrowth.cli import EXIT_CERTIFIED, EXIT_TRUNCATED, execute
from rankgrowth.engine import _bound_box
from rankgrowth.errors import BasisBudgetExceeded, InputError
from rankgrowth.toric import shadow_generators
from oracles import (
    ideal_points_of_degree,
    quotient_orbit_rank,
    shadowed_generators,
    sumset_count,
)

PARTS = [[1], [2], [1, 1], [3], [1, 2]]
REF_ANTICHAIN = [(0, 0, 3), (1, 2, 0), (2, 0, 1)]


def _analyze(sys, A, cumulative, cfg=None):
    if cumulative:
        return analyze_cumulative(sys, A, [], cfg)
    return analyze_graded(sys, A, [], cfg)


def _default_box_result(sys, A, cumulative):
    """The result at the box the pipeline used before bounds, given explicitly."""
    m = sys.m + sys.k if cumulative else sys.m
    return _analyze(sys, A, cumulative, StabilizationConfig(box=default_box(m)))


def _beyond(threshold):
    """Points at and beyond a threshold: offsets 0 and 2 in every coordinate."""
    return [
        tuple(t + o for t, o in zip(threshold, offsets))
        for offsets in itertools.product((0, 2), repeat=len(threshold))
    ]


def _minimal(points):
    pts = set(points)
    return sorted(
        p for p in pts if not any(q != p and all(map(int.__le__, q, p)) for q in pts)
    )


@st.composite
def ideal_problems(draw):
    parts = draw(st.sampled_from(PARTS))
    m = sum(parts)
    point = st.tuples(*[st.integers(0, 4)] * m)
    antichain = _minimal(draw(st.lists(point, min_size=1, max_size=3)))
    return antichain, parts, draw(st.booleans())


@st.composite
def quotient_problems(draw):
    parts = draw(st.sampled_from(PARTS))
    m = sum(parts)
    relations = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), max_size=2))
    generator = draw(st.tuples(*[st.integers(0, 2)] * m))
    return generator, relations, parts, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(ideal_problems())
def test_ideal_bound_results_equal_brute_force(problem):
    antichain, parts, cumulative = problem
    sys, A = make_ideal_system(antichain, parts)
    result = _analyze(sys, A, cumulative)
    assert result.evidence == "bound"
    assert result.status == CERTIFIED
    P = result.polynomial
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == ideal_points_of_degree(
            antichain, sys.m, parts, s, cumulative
        )


@settings(max_examples=30, deadline=None)
@given(quotient_problems())
def test_quotient_bound_results_equal_brute_force(problem):
    generator, relations, parts, cumulative = problem
    sys, A = make_monomial_module_system(sum(parts), parts, [generator], relations)
    result = _analyze(sys, A, cumulative)
    assert result.evidence == "bound"
    assert result.status == CERTIFIED
    P = result.polynomial
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == quotient_orbit_rank(
            [generator], relations, parts, s, cumulative
        )


@st.composite
def seeded_problems(draw):
    """An ideal system or a monomial module with a drawn seed set: ideal seeds
    anywhere in N^m, module generators repeated, killed or off the origin."""
    parts = draw(st.sampled_from(PARTS))
    m = sum(parts)

    def points(top, **size):
        return draw(st.lists(st.tuples(*[st.integers(0, top)] * m), **size))

    is_ideal = draw(st.booleans())
    if is_ideal:
        killed = _minimal(points(4, min_size=1, max_size=3))
        seeds = points(3, min_size=1, max_size=3)
    else:
        killed = points(3, max_size=3)
        seeds = points(2, min_size=1, max_size=3)
    return killed, seeds, parts, is_ideal, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(seeded_problems())
def test_ideal_and_module_bounds_hold_for_any_seeds(problem):
    killed, seeds, parts, is_ideal, cumulative = problem
    if is_ideal:
        sys, _ = make_ideal_system(killed, parts)
        A = seeds
    else:
        sys, A = make_monomial_module_system(sum(parts), parts, seeds, killed)
    result = _analyze(sys, A, cumulative)
    assert result.evidence == "bound"
    assert result.status == CERTIFIED
    graded = augment(sys) if cumulative else sys
    assert _corners_under(result.table, graded.graded_bound(A))
    P = result.polynomial
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == quotient_orbit_rank(seeds, killed, parts, s, cumulative)


@settings(max_examples=25, deadline=None)
@given(ideal_problems())
def test_bound_box_agrees_with_the_default_box_where_that_certifies(problem):
    antichain, parts, cumulative = problem
    sys, A = make_ideal_system(antichain, parts)
    bound = _analyze(sys, A, cumulative)
    default = _default_box_result(sys, A, cumulative)
    assert default.evidence == "window"
    if default.status == CERTIFIED:
        assert bound.polynomial == default.polynomial
        assert bound.polynomial.threshold == default.polynomial.threshold
        assert bound.certificate.m_bar == default.certificate.m_bar
        assert bound.certificate.levels == default.certificate.levels
    assert len(bound.table.values) <= len(default.table.values)


def test_reference_ideal_and_ring_tabulate_only_the_bound_box():
    sys, A = make_ideal_system(REF_ANTICHAIN, [1, 2])
    result = analyze_cumulative(sys, A, [])
    # join (2, 2, 3), identity coordinates 0, plus the window 2
    assert result.table.box == (2, 4, 2, 4, 5)
    assert len(result.table.values) == 10_192
    assert result.polynomial == _default_box_result(sys, A, True).polynomial
    ring, seed = make_polynomial_ring_system(3)
    result = analyze_cumulative(ring, seed, [])
    assert (result.evidence, result.table.box) == ("bound", (2, 2, 2, 2))
    assert len(result.table.values) == 495


def test_far_ideal_is_proved_where_the_default_box_truncates():
    sys, A = make_ideal_system([(6, 9)], [2])
    assert _default_box_result(sys, A, False).status != CERTIFIED
    result = analyze_graded(sys, A, [])
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert result.table.box == (8, 11)
    for t in range(result.polynomial.threshold[0], 20):
        assert result.polynomial.evaluate((t,)) == ideal_points_of_degree(
            [(6, 9)], 2, [2], (t,)
        )


def test_bound_over_the_work_budget_falls_back_to_the_default_box():
    sys, A = make_ideal_system([(0, 3000)], [2])
    result = analyze_graded(sys, A, [])
    assert result.evidence == "window"
    assert result.table.box == default_box(2)
    assert "stabilization bound box (2, 3002)" in result.warnings[0]
    assert "default box" in result.warnings[0]


def test_an_explicit_box_wins_over_the_bound():
    sys, A = make_ideal_system([(6, 9)], [2])
    result = analyze_graded(sys, A, [], StabilizationConfig(box=(4, 4)))
    assert (result.evidence, result.table.box) == ("window", (4, 4))
    # the window check at this box certifies t + 1, which fails from t = 15
    assert result.polynomial != analyze_graded(sys, A, []).polynomial
    config = {
        "mode": "ideal-count",
        "backend": "ideal-count",
        "backend_data": {"complement_antichain": [[3, 5]]},
        "partition": [2],
    }
    code, doc = execute(dict(config, box=4))
    assert code == EXIT_TRUNCATED
    assert doc["staircase"]["evidence"] == "window"
    assert doc["staircase"]["box"] == [4, 4]
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["staircase"]["evidence"] == "bound"
    assert doc["staircase"]["box"] == [5, 7]


def test_bound_applies_to_any_seed_with_b_empty_and_no_context():
    sys, A = make_ideal_system([(2, 1)], [1, 1])
    # seed a is killed above max((2, 1) - a, 0): (2, 1) at the origin, (1, 1)
    # at (1, 0); the join plus the window is the box
    for seeds, box in [(A + A, (4, 3)), ([(1, 0)], (3, 3)), (A + [(1, 0)], (4, 3))]:
        result = analyze_graded(sys, seeds, [])
        assert (result.evidence, result.status) == ("bound", CERTIFIED)
        assert result.table.box == box
    assert analyze_graded(sys, A, [(1, 1)]).evidence == "window"
    context = analyze_graded(sys, A, [], context_sys=sys)
    assert context.evidence == "window"
    assert context.table.box == default_box(2)


def test_monomial_bound_covers_every_generator():
    sys, seeds = make_monomial_module_system(2, [2], [(0, 0)], [(2, 1), (0, 3)])
    assert sys.killed == ((2, 1), (0, 3))
    assert sys.graded_bound(seeds) == (2, 3)
    assert augment(sys).graded_bound(seeds) == (0, 2, 3)
    # off the origin the killed words shrink: (1, 0) under (2, 1) from (1, 1)
    one, seeds = make_monomial_module_system(2, [2], [(1, 1)], [(2, 1)])
    assert one.graded_bound(seeds) == (1, 0)
    # the zero vector of a killed generator contributes nothing
    two, seeds = make_monomial_module_system(
        2, [2], [(3, 3), (0, 0), (1, 0)], [(2, 1)]
    )
    assert seeds[0] == two.backend.zero
    assert two.graded_bound(seeds) == (2, 1)
    # a multiple of another seed is the same point, shadowed at every word
    assert two.graded_bound(seeds + [two.backend.monomial((1, 0), 2)]) == (2, 1)
    result = analyze_graded(two, seeds, [])
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert result.table.box == (4, 3)
    P = result.polynomial
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == quotient_orbit_rank(
            [(3, 3), (0, 0), (1, 0)], [(2, 1)], [2], s
        )


def test_cumulative_bound_gives_the_identity_coordinates_zero():
    sys, A = make_ideal_system([(3, 1, 2)], [1, 2])
    assert sys.killed == ((3, 1, 2),)
    assert sys.graded_bound(A) == (3, 1, 2)
    aug = augment(sys)
    assert aug.killed == sys.killed
    assert aug.graded_bound(A) == (0, 3, 0, 1, 2)
    assert sys.with_flags(["triangular"] * 2).killed == sys.killed
    # off the origin the killed word shrinks, and the identity coordinates
    # translate by zero, so they stay 0
    assert aug.graded_bound([(1, 0, 1)]) == (0, 2, 0, 1, 1)
    result = analyze_cumulative(sys, [(1, 0, 1)], [])
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert result.table.box == (2, 4, 2, 3, 3)
    P = result.polynomial
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == quotient_orbit_rank(
            [(1, 0, 1)], [(3, 1, 2)], [1, 2], s, True
        )


def test_a_malformed_bound_is_input_error():
    sys, A = make_ideal_system([(3, 1)], [2])
    for bad in [[(1,)], [(1, -1)], [(1.5, 1)], [(True, 1)], [[3, 1]]]:
        with pytest.raises(InputError, match="killed point"):
            OperatorSystem(
                sys.maps, sys.partition, sys.backend,
                translations=sys.translations, killed=bad,
            )
    # killed points need every translation vector zero or a unit vector
    for summands in [[[0, 1], [0, 2]], [[0, -1]]]:
        sumset = make_sumset_system(*summands)
        with pytest.raises(InputError, match="zero or unit translation vectors"):
            OperatorSystem(
                sumset.maps, sumset.partition, sumset.backend,
                translations=sumset.translations, killed=[(1,)],
            )
    with pytest.raises(InputError, match="zero or unit translation vectors"):
        OperatorSystem(sys.maps, sys.partition, sys.backend, killed=[(3, 1)])
    sumset = make_sumset_system([0, 1])
    for bad in [[[(0,)]], [[(0,), (1, 0)]], [[(0,), (1.0,)]], [[(0,), (True,)]]]:
        with pytest.raises(InputError, match="translation vectors"):
            OperatorSystem(
                sumset.maps, sumset.partition, sumset.backend, translations=bad
            )


def test_a_seed_that_reads_as_no_point_stays_on_the_window():
    sys, _ = make_monomial_module_system(2, [2], [(0, 0)], [(2, 1)])
    lb = sys.backend
    # two terms, or one term whose exponent vector has the wrong length
    for seed in [lb.vector([((0, 0), 1), ((1, 0), 1)]), lb.monomial((0, 0, 0))]:
        assert sys.graded_bound([seed]) is None
        result = analyze_graded(sys, [seed], [])
        assert result.evidence == "window"
        assert result.table.box == default_box(2)


def test_malformed_seeds_are_input_errors_before_the_bound_check():
    # the bound check keys A, so A is validated first
    ideal, _ = make_ideal_system([(2, 1)], [2])
    with pytest.raises(InputError, match="expected a point of N"):
        analyze_graded(ideal, [[0, 0]], [])
    ring, _ = make_polynomial_ring_system(2)
    with pytest.raises(InputError, match="not a canonical vector"):
        analyze_graded(ring, [[0, 1]], [])
    with pytest.raises(InputError, match="not a canonical vector"):
        analyze_cumulative(ring, [[0, 1]], [])


# ---------------------------------------------------------------------------
# sumsets: the bound from the truncated toric Gröbner basis
# ---------------------------------------------------------------------------

REF_SUMMANDS = [[0, 1, 4], [0, 3]]
# offsets past a threshold, one point each (the first k entries are used)
PAST = [(1, 2), (3, 1), (2, 4)]
# runtime caps, in words times seeds: the bound box and the brute-force
# sweep over it (larger draws are discarded, about one in ten), and five
# times that for the default box compared against (a draw whose default
# box is larger is checked without that comparison)
TABLE_LIMIT = 12_000


def _words(sys, box):
    return sys.partition.word_count(sys.partition.part_degree(box), "cumulative")


def _corners_under(table, join):
    return all(all(map(int.__le__, u, join)) for u, _, _ in table.corners)


@st.composite
def sumset_problems(draw):
    dim = draw(st.integers(1, 2))
    vector = st.tuples(*[st.integers(-3, 6)] * dim)
    parts = draw(
        st.lists(st.lists(vector, min_size=1, max_size=3), min_size=1, max_size=2)
    )
    seeds = draw(st.lists(vector, min_size=1, max_size=5))
    return parts, seeds, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(sumset_problems())
def test_sumset_bound_matches_brute_force(problem):
    parts, A, cumulative = problem
    sys = make_sumset_system(*parts)
    graded = augment(sys) if cumulative else sys
    seeds = sys.backend.sorted_elems(A)
    try:
        generators = shadow_generators(graded.translations, seeds)
    except BasisBudgetExceeded:
        box, warnings = _bound_box(graded, A, [], StabilizationConfig(), None)
        assert box is None and "divisor tests" in warnings[0]
        return
    join = graded.graded_bound(A)
    assert join == tuple(
        max((w[c] for ws in generators for w in ws), default=0)
        for c in range(graded.m)
    )
    box = tuple(c + 2 for c in join)
    assume(_words(graded, box) * len(seeds) <= TABLE_LIMIT)
    vectors = [list(v) for v in graded.translations]
    assert generators == shadowed_generators(vectors, seeds, box)

    result = _analyze(sys, A, cumulative)
    assert (result.evidence, result.table.box) == ("bound", box)
    assert result.status == CERTIFIED
    assert _corners_under(result.table, join)
    P = result.polynomial
    for offsets in PAST:
        s = tuple(t + o for t, o in zip(P.threshold, offsets))
        assert P.evaluate(s) == sumset_count(A, vectors, s)
    default = default_box(graded.m)
    if _words(graded, default) * len(seeds) <= 5 * TABLE_LIMIT:
        other = _default_box_result(sys, A, cumulative)
        assert _corners_under(other.table, join)
        if other.status == CERTIFIED:
            assert P == other.polynomial
            assert P.threshold == other.polynomial.threshold
            assert result.certificate.m_bar == other.certificate.m_bar
            assert result.certificate.levels == other.certificate.levels


def test_reference_sumset_tabulates_only_the_bound_box():
    sys = make_sumset_system(*REF_SUMMANDS)
    assert sys.graded_bound([(0,)]) == (3, 1, 1, 0, 1)
    result = analyze_graded(sys, [(0,)], [])
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert result.table.box == (5, 3, 3, 2, 3)
    assert len(result.table.values) == 7_644
    default = _default_box_result(sys, [(0,)], False)
    assert len(default.table.values) == 53_856
    assert result.polynomial == default.polynomial
    assert result.polynomial.threshold == default.polynomial.threshold
    config = {"mode": "sumset", "backend_data": {"summands": REF_SUMMANDS}, "A": [[0]]}
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["staircase"]["evidence"] == "bound"
    assert doc["staircase"]["box"] == [5, 3, 3, 2, 3]


def test_sumset_bound_cases_that_stay_on_the_window():
    sys = make_sumset_system(*REF_SUMMANDS)
    cases = [
        analyze_graded(sys, [], []),
        analyze_graded(sys, [(0,)], [], StabilizationConfig(box=(3, 3, 3, 3, 3))),
        analyze_graded(sys, [(0,)], [(1,)]),
        analyze_graded(sys, [(0,)], [], context_sys=sys),
    ]
    for result, box in zip(cases, [default_box(5), (3,) * 5, default_box(5)]):
        assert result.evidence == "window"
        assert result.table.box == box
    assert cases[0].polynomial.is_zero
    # a system without translation vectors knows no bound
    plain = OperatorSystem(sys.maps, sys.partition, sys.backend)
    assert plain.graded_bound([(0,)]) is None
    assert analyze_graded(plain, [(0,)], []).evidence == "window"


def test_sumset_bound_over_the_basis_budget_falls_back_to_the_default_box():
    sys = make_sumset_system([0, 1, 17, 40, 99])
    A = [(0,), (3,), (50,)]
    with pytest.raises(BasisBudgetExceeded):
        sys.graded_bound(A)
    result = analyze_graded(sys, A, [])
    assert result.evidence == "window"
    assert result.table.box == default_box(5)
    assert len(result.table.values) == _words(sys, default_box(5))
    assert "toric Gröbner basis" in result.warnings[0]
    assert "tabulated the default box instead" in result.warnings[0]


def test_cumulative_sumset_bound_keeps_the_translation_vectors():
    sys = make_sumset_system([0, 2], [1])
    aug = augment(sys)
    assert aug.translations == (((0,), (0,), (2,)), ((0,), (1,)))
    assert augment(aug).translations[0][:2] == ((0,), (0,))
    assert sys.with_flags(["triangular"] * 2).translations == sys.translations
    A = [(0,), (5,)]
    result = analyze_cumulative(sys, A, [])
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert result.table.box == tuple(c + 2 for c in aug.graded_bound(A))
    P = result.polynomial
    for t1, t2 in itertools.product(range(6), range(4)):
        s = (P.threshold[0] + t1, P.threshold[1] + t2)
        assert P.evaluate(s) == sumset_count(A, [[(0,), (0,), (2,)], [(0,), (1,)]], s)
