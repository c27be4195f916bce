"""Proven stabilization bounds: the box they give and the answers it proves."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rankgrowth import (
    BOX_TRUNCATED,
    CERTIFIED,
    OperatorSystem,
    Partition,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    augment,
    default_box,
    phi_closure_member,
)
from rankgrowth import operators, toric
from rankgrowth.backends import (
    GraphicBackend,
    TrivialBackend,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    make_translation_system,
    translation,
    vertex_map_edge_operator,
)
from rankgrowth.cli import EXIT_CERTIFIED, EXIT_TRUNCATED, execute, run
from rankgrowth.engine import _choose_box
from rankgrowth.errors import InputError
from rankgrowth.operators import product_leq
from rankgrowth.toric import shadow_generators
from oracles import (
    ideal_points_of_degree,
    matrix_rank,
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
    # the bound judges the default box too: it proves what it covers, and
    # a box that misses the bound cannot certify
    graded = augment(sys) if cumulative else sys
    needs = graded.partition.part_degree(tuple(c + 2 for c in graded.graded_bound(A)))
    covers = product_leq(needs, default.table.slice_cap)
    assert default.evidence == ("bound" if covers else "window")
    assert covers or default.status != CERTIFIED
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
    assert result.warnings[0].count("tabulated the default box instead") == 1
    # the default box misses the bound it fell back from, so it cannot
    # certify; it used to, with exit 0
    assert result.status == BOX_TRUNCATED
    assert result.warnings[1] == (
        "staircase not certified: the proven stabilization bound (0, 3000) "
        "needs box (2, 3002), which box (8, 8) misses"
    )


def test_an_explicit_box_wins_over_the_bound():
    sys, A = make_ideal_system([(6, 9)], [2])
    result = analyze_graded(sys, A, [], StabilizationConfig(box=(4, 4)))
    assert (result.evidence, result.table.box) == ("window", (4, 4))
    # the window check at this box passes t + 1, which fails from t = 15, so
    # the bound it misses keeps it from certifying
    assert result.polynomial != analyze_graded(sys, A, []).polynomial
    assert result.status == BOX_TRUNCATED
    assert result.certificate.failure == (
        "the proven stabilization bound (6, 9) needs box (8, 11), which box "
        "(4, 4) misses"
    )
    # a box that covers the bound proves what the bound box proves
    wide = analyze_graded(sys, A, [], StabilizationConfig(box=(2, 20)))
    assert (wide.evidence, wide.status) == ("bound", CERTIFIED)
    assert wide.polynomial == analyze_graded(sys, A, []).polynomial
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
    code, doc = execute(dict(config, box=7))
    assert (code, doc["staircase"]["evidence"]) == (EXIT_CERTIFIED, "bound")


def test_a_box_that_misses_the_known_bound_is_never_certified():
    # both certified 2*Y + 2 with exit 0; brute force gives Y + 31 from
    # degree 29 and Y + 2001 from degree 1999
    sys = make_translation_system([[(1, 0), (0, 1)]])
    near = [(30, 0), (0, 30)]
    result = analyze_graded(sys, near, [], StabilizationConfig(box=(8, 8)))
    assert (result.status, result.evidence) == (BOX_TRUNCATED, "window")
    assert result.certificate.failure == (
        "the proven stabilization bound (0, 30) needs box (2, 32), which box "
        "(8, 8) misses"
    )
    far = [(2000, 0), (0, 2000)]
    result = analyze_graded(sys, far, [])
    assert (result.status, result.evidence) == (BOX_TRUNCATED, "window")
    assert result.table.box == default_box(2)
    assert result.warnings[0].startswith(
        "stabilization bound box (2, 2002) needs 2,011,015 words"
    )
    assert "bound (0, 2000) needs box (2, 2002)" in result.certificate.failure
    covered = analyze_graded(sys, near, [], StabilizationConfig(box=(0, 40)))
    assert (covered.status, covered.evidence) == (CERTIFIED, "bound")
    assert covered.polynomial.pretty() == "Y + 31"
    # through the CLI: exit 2 where both exited 0
    config = {
        "mode": "dimension",
        "backend": "trivial",
        "backend_data": {"dimension": 2},
        "operators": [[1, 0], [0, 1]],
        "partition": [2],
    }
    for seeds, box in [(near, {"box": 8}), (far, {})]:
        code, doc = execute(dict(config, A=[list(a) for a in seeds], **box))
        assert (code, doc["status"]) == (EXIT_TRUNCATED, "box-truncated")
    # a closure query whose box misses the bound finds no witness, and can
    # no longer call that non-membership: the seed is killed at degree 20
    ideal, A = make_ideal_system([(20,)], [1])
    decision = phi_closure_member(ideal, A[0], [], StabilizationConfig(box=(4,)))
    assert decision.decision == "inconclusive"
    assert phi_closure_member(ideal, A[0], []).decision == "member"


@st.composite
def boxed_problems(draw):
    """A sumset or an ideal count, graded or cumulative, offsets of an explicit
    box in the graded system's coordinates, and its brute-force count."""
    if draw(st.booleans()):
        parts, A, cumulative = draw(sumset_problems())
        sys = make_sumset_system(*parts)
        graded = augment(sys) if cumulative else sys
        vectors = [list(v) for v in graded.translations]

        def brute(s):
            return sumset_count(A, vectors, s)

    else:
        antichain, parts, cumulative = draw(ideal_problems())
        sys, A = make_ideal_system(antichain, parts)
        graded = augment(sys) if cumulative else sys

        def brute(s):
            return ideal_points_of_degree(antichain, sys.m, parts, s, cumulative)

    # a box near the bound box: offsets from it, or from 2 without a bound
    offsets = draw(st.tuples(*[st.integers(-3, 3)] * graded.m))
    return sys, A, cumulative, graded, offsets, brute


@settings(max_examples=60, deadline=None)
@given(boxed_problems())
def test_a_known_bound_judges_every_explicit_box(problem):
    sys, A, cumulative, graded, offsets, brute = problem
    try:
        bound = graded.graded_bound(A)
    except InputError:  # no bound known: the box keeps window evidence
        bound = None
    base = bound or (0,) * graded.m
    box = tuple(max(c + 2 + o, 0) for c, o in zip(base, offsets))
    assume(_words(graded, box) * len(A) <= TABLE_LIMIT)
    result = _analyze(sys, A, cumulative, StabilizationConfig(box=box))
    if bound is None:
        assert result.evidence == "window"
        assert not any("default box" in w for w in result.warnings)
        return
    p = graded.partition
    needs = p.part_degree(tuple(c + 2 for c in bound))
    if not product_leq(needs, p.part_degree(box)):
        assert (result.evidence, result.status) == ("window", BOX_TRUNCATED)
        assert result.certificate.failure.startswith(
            f"the proven stabilization bound {bound} needs box "
        )
        return
    assert (result.evidence, result.status) == ("bound", CERTIFIED)
    assert _corners_under(result.table, bound)
    P = result.polynomial
    for offsets in PAST:
        s = tuple(t + o for t, o in zip(P.threshold, offsets))
        assert P.evaluate(s) == brute(s)


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
    for bad in [[(1,)], [(1, -1)], [(1.5, 1)], [(True, 1)], ["31"], [3]]:
        with pytest.raises(InputError, match="killed point must be a point of N"):
            OperatorSystem(
                sys.maps, sys.partition, sys.backend,
                translations=sys.translations, killed=bad,
            )
    # a list is a point too, kept as a tuple
    listed = OperatorSystem(
        sys.maps, sys.partition, sys.backend,
        translations=sys.translations, killed=[[3, 1]],
    )
    assert listed.killed == ((3, 1),)
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


def test_a_backend_that_counts_no_points_gets_no_bound():
    # translation vectors declared over forest rank: the bound's proof
    # counts points, so the graphic system keeps to the default box and
    # gives what the undeclared system gives
    maps = [vertex_map_edge_operator(lambda v, c=c: v + c) for c in (1, 2)]
    triangle = [(0, 1), (1, 2), (0, 2)]
    declared = OperatorSystem(
        maps, Partition([2]), GraphicBackend(), translations=[[(1, 1), (2, 2)]]
    )
    assert declared.graded_bound(triangle) is None
    result = analyze_graded(declared, triangle)
    undeclared = OperatorSystem(maps, Partition([2]), GraphicBackend())
    plain = analyze_graded(undeclared, triangle)
    assert (result.status, result.evidence, result.table.box) == (
        CERTIFIED,
        "window",
        default_box(2),
    )
    assert result.polynomial.pretty() == "Y + 2"
    assert result.polynomial.coeffs == plain.polynomial.coeffs
    assert result.polynomial.threshold == plain.polynomial.threshold


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
    p = sys.partition
    return p.word_count((0,) * p.k, p.part_degree(box))


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
    except InputError:
        box, evidence, warnings, _ = _choose_box(
            graded, A, [], StabilizationConfig(), None
        )
        assert (box, evidence) == (default_box(graded.m), "window")
        assert "divisor tests" in warnings[0]
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


def test_graded_bound_reads_its_seeds_once():
    # an iterator passed the test for no seeds before it was read, so an
    # empty one proved a bound for no seed at all
    sys = make_sumset_system([0, 1])
    assert sys.graded_bound(iter([])) is None
    assert sys.graded_bound(iter([(0,), (30,)])) == sys.graded_bound([(0,), (30,)])


def test_sumset_bound_over_the_basis_budget_falls_back_to_the_default_box():
    sys = make_sumset_system([0, 1, 17, 40, 99])
    A = [(0,), (3,), (50,)]
    with pytest.raises(InputError, match="toric Gröbner basis") as refused:
        sys.graded_bound(A)
    # the basis says only what it refused: it tabulated no box
    assert str(refused.value).endswith("; its divisor tests count as words")
    result = analyze_graded(sys, A, [])
    assert result.evidence == "window"
    assert result.table.box == default_box(5)
    assert len(result.table.values) == _words(sys, default_box(5))
    assert result.warnings[0] == f"{refused.value}; tabulated the default box instead"


@pytest.mark.parametrize("far", [25, 30])
def test_a_basis_within_the_work_budget_proves_the_brute_force_polynomial(far):
    # the basis had a budget of its own, 300,000 divisor tests, which left
    # these box-truncated; it now spends the one work budget
    sys = make_sumset_system([0, 1, 2])
    A = [(0,), (far,)]
    result = analyze_graded(sys, A, [])
    assert (result.status, result.evidence, result.warnings) == (CERTIFIED, "bound", [])
    P = result.polynomial
    assert P.pretty() == f"2*Y + {far + 1}"
    for s in _beyond(P.threshold):
        assert P.evaluate(s) == sumset_count(A, [[(0,), (1,), (2,)]], s)


def test_the_basis_reads_the_one_work_budget(monkeypatch):
    monkeypatch.setattr(operators, "MAX_WORDS", 300_000)
    sys = make_sumset_system([0, 1, 2])
    result = analyze_graded(sys, [(0,), (25,)], [])
    assert (result.evidence, result.table.box) == ("window", default_box(3))
    warning = result.warnings[0]
    assert warning.startswith("the toric Gröbner basis for the stabilization bound needs ")
    assert "words, over the limit of 300,000; its divisor tests" in warning
    assert warning.endswith("tabulated the default box instead")
    # a malformed seed is refused as one when the analysis first reads it,
    # never read as a budget fallback
    malformed = r"expected an integer vector.*\(0\.5,\)"
    with pytest.raises(InputError, match=malformed):
        analyze_graded(sys, [(0,), (0.5,)], [])
    with pytest.raises(InputError, match=malformed):
        phi_closure_member(sys, (0.5,))


def test_a_translation_system_takes_its_backends_killed_points():
    # declared without killed, the system used to prove a bound for the
    # plane and certify 1, though the point (5, 0) counts nothing
    unit = [[(1, 0)], [(0, 1)]]
    backend = TrivialBackend(2, killed=[(5, 0)])
    sys = OperatorSystem(
        [translation(v) for vecs in unit for v in vecs], Partition([1, 1]), backend,
        translations=unit,
    )
    assert sys.killed == ((5, 0),)
    result = analyze_graded(sys, [(0, 0)], [])
    ideal, A = make_ideal_system([(5, 0)], [1, 1])
    expected = analyze_graded(ideal, A, [])
    for got in (result, expected):
        assert (got.status, got.evidence) == (CERTIFIED, "bound")
        assert (got.polynomial.pretty(), got.polynomial.threshold) == ("0", (5, 0))
        assert got.table.box == (7, 2)
    # a declared point the backend also kills is listed once
    both = OperatorSystem(
        sys.maps, sys.partition, backend, translations=unit, killed=[(5, 0), (1, 1)]
    )
    assert both.killed == ((5, 0), (1, 1))


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


# ---------------------------------------------------------------------------
# the closed form for independent columns, with the basis as its reference
# ---------------------------------------------------------------------------


def _columns(translations):
    """Each map's translation vector stacked over its part's indicator."""
    k = len(translations)
    return [
        tuple(v) + tuple(int(p == i) for p in range(k))
        for i, vecs in enumerate(translations)
        for v in vecs
    ]


def _independent(translations):
    columns = _columns(translations)
    return matrix_rank(columns) == len(columns)


@st.composite
def injective_problems(draw):
    """Translation vectors with independent columns and 1-5 seed points in
    feeding order: unit-vector ideal and module systems or 1-D and 2-D
    sumsets, graded or augmented; a seed may repeat an earlier one or lie
    one translation vector from it."""
    cumulative = draw(st.booleans(), "augmented")
    if draw(st.booleans(), "unit vectors"):
        parts = draw(st.sampled_from(PARTS))
        sys, _ = make_ideal_system([(1,) * sum(parts)], parts)
    else:
        dim = draw(st.integers(1, 2), "dimension")
        sizes = draw(st.sampled_from([[1], [2], [1, 1], [1, 2], [2, 1], [3], [2, 2]]))
        vector = st.tuples(*[st.integers(-3, 6)] * dim)
        parts = [
            draw(st.lists(vector, min_size=d, max_size=d, unique=True)) for d in sizes
        ]
        sys = make_sumset_system(*parts)
    translations = (augment(sys) if cumulative else sys).translations
    assume(_independent(translations))
    vectors = [v for vecs in translations for v in vecs]
    dim = len(vectors[0])
    point = st.tuples(*[st.integers(0, 4)] * dim)
    seeds = [draw(point)]
    for _ in range(draw(st.integers(0, 4), "more seeds")):
        how = draw(st.sampled_from(["fresh", "repeated", "parallel"]))
        if how == "fresh":
            seeds.append(draw(point))
        else:
            seed = draw(st.sampled_from(seeds))
            if how == "parallel":
                step = draw(st.sampled_from(vectors))
                seed = tuple(a + b for a, b in zip(seed, step))
            seeds.append(seed)
    return translations, sorted(seeds)


@settings(max_examples=150, deadline=None)
@given(injective_problems())
def test_closed_form_shadows_equal_the_basis_and_brute_force(problem):
    translations, seeds = problem
    with mock.patch.object(toric, "_basis_generators", side_effect=AssertionError):
        generators = shadow_generators(translations, seeds)
    try:
        assert generators == toric._basis_generators(translations, seeds)
    except InputError:
        pass
    m = sum(map(len, translations))
    words = [w for ws in generators for w in ws]
    join = tuple(max((w[c] for w in words), default=0) for c in range(m))
    p = Partition([len(vecs) for vecs in translations])
    if p.word_count((0,) * p.k, p.part_degree(join)) * len(seeds) <= TABLE_LIMIT:
        assert generators == shadowed_generators(translations, seeds, join)


def test_dependent_columns_take_the_basis():
    three = make_sumset_system([0, 1, 3]).translations
    # a zero vector joins the part that already holds one
    cumulative = augment(make_sumset_system([0, 2])).translations
    for translations in [three, cumulative]:
        assert not _independent(translations)
        seeds = [(0,), (2,)]
        with mock.patch.object(
            toric, "_basis_generators", wraps=toric._basis_generators
        ) as basis:
            generators = shadow_generators(translations, seeds)
        assert basis.call_count == 1
        join = tuple(map(max, zip(*(w for ws in generators for w in ws))))
        assert generators == shadowed_generators(translations, seeds, join)


FAR_CONFIG = {
    "mode": "dimension",
    "backend": "trivial",
    "backend_data": {"dimension": 2},
    "operators": [[1, 0], [0, 1]],
    "partition": [2],
}


@pytest.mark.parametrize("k", [30, 40])
def test_far_seeds_prove_the_brute_force_polynomial(k, tmp_path):
    # the two orbits meet from degree k - 1 on, far outside the default box;
    # the basis for these seeds is over the work budget from k = 37
    sys = make_translation_system([[(1, 0), (0, 1)]])
    A = [(k, 0), (0, k)]
    result = analyze_graded(sys, A, [])
    assert (result.status, result.evidence, result.warnings) == (CERTIFIED, "bound", [])
    assert result.table.box == (2, k + 2)
    assert result.polynomial.pretty() == f"Y + {k + 1}"
    for t in range(result.polynomial.threshold[0], k + 10):
        truth = len({(a + i, b + t - i) for a, b in A for i in range(t + 1)})
        assert result.polynomial.evaluate((t,)) == truth
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(FAR_CONFIG, A=[list(a) for a in A])))
    code, doc = run(str(path))
    assert (code, doc["status"], doc["warnings"]) == (EXIT_CERTIFIED, CERTIFIED, [])
    assert doc["staircase"]["evidence"] == "bound"
    assert doc["polynomial"]["pretty"] == f"Y + {k + 1}"


# ---------------------------------------------------------------------------
# closure membership: the box analyze_graded tabulates
# ---------------------------------------------------------------------------

# runtime cap on the words of a closure problem's box
CLOSURE_LIMIT = 5_000


@st.composite
def closure_problems(draw):
    """An ideal count or a sumset and one seed, coordinates up to 20."""
    if draw(st.booleans(), "ideal"):
        parts = draw(st.sampled_from([[1], [2], [1, 1]]))
        m = sum(parts)
        point = st.tuples(*[st.integers(0, 20)] * m)
        antichain = _minimal(draw(st.lists(point, min_size=1, max_size=2)))
        sys, _ = make_ideal_system(antichain, parts)
        return sys, draw(st.tuples(*[st.integers(0, 3)] * m))
    summand = st.lists(st.integers(0, 20), min_size=1, max_size=2)
    sys = make_sumset_system(*draw(st.lists(summand, min_size=1, max_size=2)))
    return sys, (draw(st.integers(-3, 20)),)


def test_closure_membership_tabulates_the_bound_box():
    # the default box of 8 used to miss the drop at 20 and answer non-member
    sys, A = make_ideal_system([(20,)], [1])
    decision = phi_closure_member(sys, A[0], [])
    assert (decision.decision, decision.witness) == ("member", (20,))
    result = analyze_graded(sys, A, [])
    assert (result.evidence, result.polynomial.is_zero) == ("bound", True)
    # a non-member names the evidence of its run
    outside = phi_closure_member(make_sumset_system([0, 1]), (0,), [])
    assert outside.decision == "non-member"
    assert outside.detail.endswith("(bound evidence)")


@settings(max_examples=120, deadline=None)
@given(closure_problems())
@example((make_ideal_system([(0, 20)], [1, 1])[0], (0, 0)))
def test_closure_membership_agrees_with_the_phi_rank(problem):
    sys, a = problem
    box, *_ = _choose_box(sys, [a], [], StabilizationConfig(), None)
    assume(_words(sys, box) <= CLOSURE_LIMIT)
    decision = phi_closure_member(sys, a, [])
    result = analyze_graded(sys, [a], [])
    if result.status == CERTIFIED:
        assert decision.is_member == (result.phi_rank_value == 0)
    if decision.decision == "non-member":
        assert (result.status, result.phi_rank_value) == (CERTIFIED, 1)
