"""Proven stabilization bounds: the box they give and the answers it proves."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
)
from rankgrowth.cli import EXIT_CERTIFIED, EXIT_TRUNCATED, execute
from rankgrowth.errors import InputError
from oracles import ideal_points_of_degree, quotient_orbit_rank

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


def test_bound_applies_only_to_its_own_seed_with_b_empty_and_no_context():
    sys, A = make_ideal_system([(2, 1)], [1, 1])
    assert analyze_graded(sys, A + A, []).evidence == "bound"
    for seeds, B in [([(1, 0)], []), (A, [(1, 1)]), (A + [(1, 0)], [])]:
        assert analyze_graded(sys, seeds, B).evidence == "window"
    context = analyze_graded(sys, A, [], context_sys=sys)
    assert context.evidence == "window"
    assert context.table.box == default_box(2)


def test_monomial_bound_needs_one_generator():
    sys, _ = make_monomial_module_system(2, [2], [(0, 0)], [(2, 1), (0, 3)])
    assert sys.bound.graded == (2, 3)
    assert sys.bound.cumulative == (0, 2, 3)
    two, seeds = make_monomial_module_system(2, [2], [(0, 0), (1, 0)], [(2, 1)])
    assert two.bound is None
    assert analyze_graded(two, seeds, []).evidence == "window"


def test_cumulative_bound_is_declared_not_derived():
    sys, A = make_ideal_system([(3, 1, 2)], [1, 2])
    assert sys.bound.graded == (3, 1, 2)
    assert sys.bound.cumulative == (0, 3, 0, 1, 2)
    aug = augment(sys)
    assert aug.bound.graded == sys.bound.cumulative
    assert aug.bound.cumulative is None
    assert augment(aug).bound is None
    assert sys.with_flags(["triangular"] * 2).bound == sys.bound
    # a system declaring nothing for cumulative mode keeps the default box
    graded_only = OperatorSystem(
        sys.maps, sys.partition, sys.backend, bound=sys.bound._replace(cumulative=None)
    )
    result = analyze_cumulative(graded_only, A, [])
    assert result.evidence == "window"
    assert result.table.box == default_box(5)


def test_a_malformed_bound_is_input_error():
    sys, A = make_ideal_system([(3, 1)], [2])
    for bad in [(1,), (1, -1), (1.5, 1)]:
        with pytest.raises(InputError, match="stabilization bound"):
            OperatorSystem(
                sys.maps, sys.partition, sys.backend, bound=sys.bound._replace(graded=bad)
            )


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
