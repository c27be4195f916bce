"""Window-evidence audit: certified results without a proven bound, against
brute force.

Graphic, chain and circuit systems have no stabilization bound, so they
tabulate the default box and a certified result rests on the window
check plus pointwise verification (``evidence == "window"``).  Each test
draws a family of such systems, runs the pipeline at the default box and
checks every certified polynomial at every point of
``[threshold, threshold + 3]`` against ranks computed without rankgrowth's
pipeline.  Every map is a rotation of a cycle, so a word's image is a
rotation by the sum of its maps' steps, or, in the one family whose
polynomials grow, a shift of the integers by that sum.
"""

import itertools
from itertools import combinations

from hypothesis import given, settings, strategies as st

from rankgrowth import (
    CERTIFIED,
    OperatorSystem,
    Partition,
    SimplicialComplex,
    TrivialBackend,
    analyze_cumulative,
    analyze_graded,
    betti_polynomials,
    make_circuit_backend,
    make_graphic_system,
)
from rankgrowth.backends import translation
from rankgrowth.engine import WINDOW_EVIDENCE
from oracles import forest_rank, subcomplex_betti

SIZES = st.sampled_from([[1], [2], [1, 1]])


def _rotations(steps, s, n=None):
    """Every rotation ``sum(w_j * step_j) mod n`` over the words of part
    degree ``s``, with ``steps`` the maps' steps grouped by part; with
    ``n`` None, the plain sums."""
    total = {0}
    for part, degree in zip(steps, s):
        for _ in range(degree):
            total = {r + step for r in total for step in part}
            total = total if n is None else {r % n for r in total}
    return total


def _cumulative_rotations(steps, s, n=None):
    """The rotations of every part degree at or below ``s``."""
    ranges = (range(d + 1) for d in s)
    return set().union(*(_rotations(steps, t, n) for t in itertools.product(*ranges)))


def _steps(draw, sizes, n):
    """Each part's rotation steps, one a map."""
    step = st.integers(0, n - 1)
    return [draw(st.lists(step, min_size=d, max_size=d)) for d in sizes]


def _audit(polynomial, status, results, truth, span=3):
    assert all(result.evidence == WINDOW_EVIDENCE for result in results)
    if status != CERTIFIED:
        return
    ranges = (range(t, t + span + 1) for t in polynomial.threshold)
    for s in itertools.product(*ranges):
        assert polynomial.evaluate(s) == truth(s), (s, polynomial)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_certified_graphic_rotations_match_forest_rank(data):
    n = data.draw(st.integers(4, 7), "cycle length")
    sizes = data.draw(SIZES, "part sizes")
    steps = _steps(data.draw, sizes, n)
    cycle = [(i, (i + 1) % n) for i in range(n)]
    seeds = data.draw(st.lists(st.sampled_from(cycle), min_size=1, max_size=2))
    cumulative = data.draw(st.booleans(), "cumulative")
    vmaps = [
        {str(v): str((v + step) % n) for v in range(n)}
        for part in steps
        for step in part
    ]
    sys = make_graphic_system(vmaps, sizes)
    A = [(str(u), str(v)) for u, v in seeds]
    result = (analyze_cumulative if cumulative else analyze_graded)(sys, A, [])
    rotations = _cumulative_rotations if cumulative else _rotations

    def truth(s):
        shifts = rotations(steps, s, n)
        edges = [((u + r) % n, (v + r) % n) for r in shifts for u, v in seeds]
        return forest_rank(edges)

    _audit(result.polynomial, result.status, [result], truth)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_certified_graphic_shifts_match_forest_rank(data):
    # integer vertices under shifts v -> v + c: orbits never fill, so most
    # certified polynomials grow
    sizes = data.draw(SIZES, "part sizes")
    steps = _steps(data.draw, sizes, 4)  # each c in 0..3
    edge = st.tuples(st.integers(0, 3), st.integers(1, 3)).map(lambda e: (e[0], sum(e)))
    seeds = data.draw(st.lists(edge, min_size=1, max_size=3), "seed edges")
    cumulative = data.draw(st.booleans(), "cumulative")
    shifts = [lambda v, c=step: v + c for part in steps for step in part]
    sys = make_graphic_system(shifts, sizes)
    result = (analyze_cumulative if cumulative else analyze_graded)(sys, seeds)
    rotations = _cumulative_rotations if cumulative else _rotations

    def truth(s):
        edges = [(u + r, v + r) for r in rotations(steps, s) for u, v in seeds]
        return forest_rank(edges)

    _audit(result.polynomial, result.status, [result], truth, span=2)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_window_certified_betti_numbers_match_boundary_matrices(data):
    n = data.draw(st.integers(4, 6), "cycle length")
    cone = data.draw(st.booleans(), "cone")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    # the apex n of the cone is fixed by every rotation
    complex_ = SimplicialComplex([(n, *edge) for edge in cycle] if cone else cycle)
    sizes = data.draw(st.sampled_from([[1], [2]]), "part sizes")
    steps = _steps(data.draw, sizes, n)
    faces = st.sampled_from(sorted(complex_.simplices))
    seed = data.draw(st.lists(faces, min_size=1, max_size=3), "seed faces")
    A = sorted(SimplicialComplex(seed).simplices)
    dimension = data.draw(st.integers(0, 2 if cone else 1), "homology dimension")
    vmaps = [
        {v: (v + step) % n if v < n else v for v in range(n + 1)}
        for part in steps
        for step in part
    ]
    betti = betti_polynomials(complex_, vmaps, sizes, A, dimension)

    def truth(s):
        orbit = {
            tuple(sorted((v + r) % n if v < n else v for v in face))
            for r in _rotations(steps, s, n)
            for face in A
        }
        return subcomplex_betti(orbit, dimension)

    parts = [betti.free, betti.boundary, betti.boundary_up]
    _audit(betti.betti, betti.status, parts, truth)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_certified_uniform_circuits_match_min_of_size_and_rank(data):
    letters = "abcde"[: data.draw(st.integers(2, 5), "letters")]
    L = len(letters)
    rank = data.draw(st.integers(1, L), "uniform rank")
    sizes = data.draw(st.sampled_from([[1], [2]]), "part sizes")
    steps = _steps(data.draw, sizes, L)
    seeds = data.draw(st.lists(st.sampled_from(letters), min_size=1, unique=True))
    # U(rank, L) at every degree a check can reach: part degrees stay
    # below twice the default box of 8, plus the window and the audit's 3
    circuits = {(t,): combinations(letters, rank + 1) for t in range(32)}

    def rotation(step):
        def op(elem):
            (t,), payload = elem
            return ((t + 1,), letters[(letters.index(payload) + step) % L])

        return op

    maps = [rotation(step) for part in steps for step in part]
    A = [((0,), g) for g in seeds]
    sys = make_circuit_backend(sizes, circuits, maps, A)
    result = analyze_graded(sys, A, [])

    def truth(s):
        payloads = {
            (letters.index(g) + r) % L for r in _rotations(steps, s, L) for g in seeds
        }
        return min(len(payloads), rank)

    _audit(result.polynomial, result.status, [result], truth)


def test_late_drop_beyond_the_default_box_is_window_evidence_only():
    # two seeds 30 apart under the unit translations of the plane, which
    # the system does not declare, so no bound applies: their orbits
    # overlap from degree 29 on, far outside the default box of 8
    sys = OperatorSystem(
        [translation((1, 0)), translation((0, 1))], Partition([2]), TrivialBackend(2)
    )
    A = [(30, 0), (0, 30)]
    result = analyze_graded(sys, A, [])
    assert (result.status, result.evidence) == (CERTIFIED, WINDOW_EVIDENCE)
    assert result.table.box == (8, 8)
    assert result.polynomial.pretty() == "2*Y + 2"

    def truth(t):
        return len({(a + i, b + t - i) for a, b in A for i in range(t + 1)})

    # brute force is Y + 31 from degree 29 on
    assert [truth(t) for t in (28, 29, 40)] == [58, 60, 71]
    assert [result.polynomial.evaluate((t,)) for t in (28, 29, 40)] == [58, 60, 82]
