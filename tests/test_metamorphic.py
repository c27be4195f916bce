"""Metamorphic relations: changes to a problem that must keep its polynomial.

On a system of translations x -> x + v over the trivial backend, the rank
at part degree s counts the points of A + s_1 V_1 + ... + s_k V_k that
B's orbit at s does not hold.  Reordering the maps within a part leaves
every orbit slice as it is.  Translating every seed and base point by one
vector moves every orbit point by that vector, and relabelling the ground
set by a unimodular integer matrix (applied to every vector, seed and
base point) maps every orbit point through one bijection of Z^d.  So none
of the three may change the polynomial.  Moving a seed a from A into B
splits the rank of A over B exactly, slice by slice: the orbit of
B + a is B's orbit joined with a's, so the ranks telescope into
P(A | B) = P(A - a | B + a) + P(a | B).  Each relation runs on sumset
systems, which keep their vectors and prove a bound when B is empty, and
on plain translation systems, which tabulate the default box; in graded
and cumulative mode.
"""

from hypothesis import given, settings, strategies as st

from rankgrowth import (
    CERTIFIED,
    OperatorSystem,
    Partition,
    analyze_cumulative,
    analyze_graded,
)
from rankgrowth.backends import TrivialBackend, translation


def _system(parts, sumset: bool) -> OperatorSystem:
    vectors = [v for part in parts for v in part]
    return OperatorSystem(
        [translation(v) for v in vectors],
        Partition([len(part) for part in parts]),
        TrivialBackend(len(vectors[0])),
        translations=parts if sumset else None,
    )


def _solve(parts, A, B, sumset: bool, cumulative: bool):
    analyze = analyze_cumulative if cumulative else analyze_graded
    return analyze(_system(parts, sumset), A, B)


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 2))
    vector = st.tuples(*[st.integers(-2, 3)] * dim)
    # at most four coordinates once cumulative mode augments each part
    sizes = draw(st.sampled_from([[1], [2], [3], [1, 1]]))
    parts = [draw(st.lists(vector, min_size=d, max_size=d)) for d in sizes]
    A = draw(st.lists(vector, min_size=1, max_size=3))
    B = draw(st.lists(vector, max_size=2))
    return parts, A, B, draw(st.booleans()), draw(st.booleans()), vector


def _assert_same_polynomial(first, second):
    if first.status == CERTIFIED and second.status == CERTIFIED:
        assert first.polynomial == second.polynomial


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_permuting_maps_within_a_part_keeps_the_polynomial(problem, data):
    parts, A, B, sumset, cumulative, _ = problem
    permuted = [data.draw(st.permutations(part)) for part in parts]
    _assert_same_polynomial(
        _solve(parts, A, B, sumset, cumulative),
        _solve(permuted, A, B, sumset, cumulative),
    )


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_translating_seeds_and_base_points_keeps_the_polynomial(problem, data):
    parts, A, B, sumset, cumulative, vector = problem
    t = data.draw(vector)

    def moved(points):
        return [tuple(x + y for x, y in zip(p, t)) for p in points]

    _assert_same_polynomial(
        _solve(parts, A, B, sumset, cumulative),
        _solve(parts, moved(A), moved(B), sumset, cumulative),
    )


@st.composite
def unimodular(draw, dim: int):
    """Negation, or in dimension 2 also a coordinate swap or a shear."""
    if dim == 1:
        return ((-1,),)
    kind = draw(st.sampled_from(["negation", "swap", "shear"]))
    if kind == "negation":
        return ((-1, 0), (0, -1))
    if kind == "swap":
        return ((0, 1), (1, 0))
    return ((1, draw(st.sampled_from([-2, -1, 1, 2]))), (0, 1))


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_relabelling_the_ground_set_keeps_the_polynomial(problem, data):
    parts, A, B, sumset, cumulative, _ = problem
    matrix = data.draw(unimodular(len(A[0])))

    def relabelled(points):
        return [
            tuple(sum(a * x for a, x in zip(row, p)) for row in matrix) for p in points
        ]

    moved = [relabelled(part) for part in parts]
    _assert_same_polynomial(
        _solve(parts, A, B, sumset, cumulative),
        _solve(moved, relabelled(A), relabelled(B), sumset, cumulative),
    )


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_moving_a_seed_into_the_base_splits_the_polynomial(problem, data):
    parts, rest, B, sumset, cumulative, vector = problem
    a = data.draw(vector)
    whole = _solve(parts, rest + [a], B, sumset, cumulative)
    moved = _solve(parts, rest, B + [a], sumset, cumulative)
    alone = _solve(parts, [a], B, sumset, cumulative)
    if all(r.status == CERTIFIED for r in (whole, moved, alone)):
        assert whole.polynomial.subtract(alone.polynomial) == moved.polynomial
