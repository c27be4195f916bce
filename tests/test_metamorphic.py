"""Metamorphic relations: changes to a problem that must keep its polynomial.

On a system of translations x -> x + v over the trivial backend, the rank
at part degree s counts the points of A + s_1 V_1 + ... + s_k V_k that
B's orbit at s does not hold.  Reordering the maps within a part leaves
every orbit slice as it is, and translating every seed and base point by
one vector moves every orbit point by that vector, so neither may change
the polynomial.  Each relation runs on sumset systems, which keep their
vectors and prove a bound when B is empty, and on plain translation
systems, which tabulate the default box; in graded and cumulative mode.
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
