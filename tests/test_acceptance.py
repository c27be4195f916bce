"""Acceptance criteria: one test per criterion, exact equalities throughout.

Each test prints a PASS line with its wall time so the suite doubles as a
human-readable report (run with ``pytest -s tests/test_acceptance.py``).
"""

import itertools
import math
import random
import time

import pytest

from rankgrowth import (
    DecreasingTable,
    HypothesisError,
    OperatorSystem,
    Partition,
    SimplicialComplex,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    betti_polynomials,
    check_rank_axioms,
    detect_stabilization,
    graded_orbit,
    interpolate,
    numerator_from_table,
    realize_monomial_module,
)
from rankgrowth.backends import (
    ChainBoundaryOracle,
    ChainFreeOracle,
    CircuitBackend,
    GraphicBackend,
    IdealCountBackend,
    LinearBackend,
    TrivialBackend,
    make_counterexample_graph,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    translation,
)
from rankgrowth.operators import augment

from oracles import forest_rank, ideal_points_of_degree, subcomplex_betti


class budget:
    """Context manager asserting the criterion's stated time budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE PASS  {self.name}  ({elapsed:.2f}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_c01_partition_dependent_closure_rank():
    with budget("repeated-shift closure ranks (trivial vs split partition)", 1.0):
        backend = TrivialBackend(1)
        maps = [translation((1,)), translation((1,))]
        trivial_part = OperatorSystem(maps, Partition([2]), backend)
        split_part = OperatorSystem(maps, Partition([1, 1]), backend)
        assert analyze_graded(trivial_part, [(0,)]).phi_rank_value == 0
        assert analyze_graded(split_part, [(0,)]).phi_rank_value == 1


def test_c02_oscillating_gadget_graph():
    with budget("gadget graph: oscillation, refusal, cumulative fit", 5.0):
        sys, seed = make_counterexample_graph()
        for t in range(11):
            got = sys.backend.rank(graded_orbit(sys, seed, (t,)))
            assert got == (2 if t % 2 == 0 else 3)
        with pytest.raises(HypothesisError):
            analyze_graded(sys, seed)
        res = analyze_cumulative(sys, seed)
        assert res.status == "certified"
        t0 = res.polynomial.threshold[0]
        for t in range(t0, t0 + 6):
            edges = [
                sys.backend.endpoints((k, i))
                for i in range(t + 1)
                for k in ("a", "b", "c")
            ]
            assert res.polynomial.evaluate((t,)) == forest_rank(edges)


def test_c03_sumset_growth_suite():
    with budget("sumset growth: 50 random generator sets", 60.0):
        rng = random.Random(4242)
        for case in range(50):
            size = rng.randint(1, 4)
            B = sorted({rng.randint(0, 10) for _ in range(size)})
            sys = make_sumset_system(B)
            m = sys.m
            cfg = StabilizationConfig(box=(6,) * m) if m == 4 else None
            P = analyze_graded(sys, [(0,)], cfg=cfg).polynomial
            assert P.degree_in(0) <= m - 1  # degree below the set size
            t0 = P.threshold[0]
            sizes = _sumset_sizes_int([0], B, t0 + 10)
            for t in range(t0, t0 + 11):
                assert P.evaluate((t,)) == sizes[t], (B, t)


def _sumset_sizes_int(A, B, t_max):
    cur = set(A)
    sizes = [len(cur)]
    for _ in range(t_max):
        cur = {a + b for a in cur for b in B}
        sizes.append(len(cur))
    return sizes


def test_c04_polynomial_ring_suite():
    with budget("monomial counting in 1..3 variables plus quotients", 10.0):
        for m in (1, 2, 3):
            sys, seeds = make_polynomial_ring_system(m)
            P = analyze_graded(sys, seeds).polynomial
            for t in range(12):
                assert P.evaluate((t,)) == math.comb(t + m - 1, m - 1)
        quotients = [
            (2, [(2, 0)]),
            (2, [(1, 1)]),
            (3, [(2, 0, 0), (0, 2, 0)]),
            (3, [(1, 1, 0), (0, 0, 3)]),
        ]
        for num_vars, rels in quotients:
            sys, seeds = make_monomial_module_system(
                num_vars, [num_vars], [(0,) * num_vars], rels
            )
            P = analyze_graded(sys, seeds).polynomial
            t0 = P.threshold[0]
            for t in range(t0, t0 + 8):
                expect = ideal_points_of_degree(rels, num_vars, [num_vars], (t,))
                assert P.evaluate((t,)) == expect


def test_c05_lattice_ideal_suite():
    with budget("lattice ideal counting: 30 random antichains", 30.0):
        rng = random.Random(777)
        for case in range(30):
            m = rng.randint(1, 3)
            pts = [
                tuple(rng.randint(0, 3) for _ in range(m))
                for _ in range(rng.randint(0, 3))
            ]
            antichain = sorted(
                {
                    p
                    for p in pts
                    if not any(
                        q != p and all(a <= b for a, b in zip(q, p)) for q in pts
                    )
                }
            )
            if m >= 2 and rng.random() < 0.4:
                part_sizes = [1, m - 1]
            else:
                part_sizes = [m]
            k = len(part_sizes)
            sys, A = make_ideal_system(antichain, part_sizes)
            P = analyze_graded(sys, A).polynomial
            Q = analyze_cumulative(sys, A).polynomial
            for j in range(1, 11):
                s = tuple(t + j for t in P.threshold)
                expect = ideal_points_of_degree(antichain, m, part_sizes, s)
                assert P.evaluate(s) == expect
                sc = tuple(t + j for t in Q.threshold)
                expect_c = ideal_points_of_degree(
                    antichain, m, part_sizes, sc, cumulative=True
                )
                assert Q.evaluate(sc) == expect_c


def _random_staircase(rng, m, max_val=5, coord_bound=4):
    antichains = []
    for _ in range(rng.randint(0, max_val)):
        pts = [
            tuple(rng.randint(0, coord_bound) for _ in range(m))
            for _ in range(rng.randint(0, 3))
        ]
        antichains.append(
            sorted(
                {
                    p
                    for p in pts
                    if not any(
                        q != p and all(a <= b for a, b in zip(q, p)) for q in pts
                    )
                }
            )
        )

    def f(u):
        return sum(
            1
            for ac in antichains
            if not any(all(a <= b for a, b in zip(p, u)) for p in ac)
        )

    return f


def test_c06_round_trip_suite():
    with budget("staircase round trip: 200 random decreasing functions", 60.0):
        rng = random.Random(31337)
        for case in range(200):
            m = rng.randint(1, 3)
            k = rng.randint(1, min(2, m))
            sizes = [1, m - 1] if (k == 2) else [m]
            p = Partition(sizes)
            f = _random_staircase(rng, m)
            table = DecreasingTable.from_function(f, (6,) * m, p)
            cert = detect_stabilization(table, StabilizationConfig(window=2))
            num = numerator_from_table(table, cert.m_bar, p)
            P = interpolate(num, sizes)
            cap = table.slice_cap
            for s in itertools.product(
                *(range(t, c + 1) for t, c in zip(P.threshold, cap))
            ):
                assert P.evaluate(s) == table.graded_sum(s)
            factor = math.prod(math.factorial(d - 1) for d in sizes)
            assert P.leading_coefficient() * factor == num.at_ones()


def _random_trivial_system(rng):
    m = 2
    maps = [
        translation((rng.randint(0, 3), rng.randint(0, 3))) for _ in range(m)
    ]
    backend = TrivialBackend(2)
    A = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
    return maps, backend, A


def _random_linear_system(rng):
    m = 2
    backend = LinearBackend()
    rels = []
    if rng.random() < 0.5:
        rels = [tuple(rng.randint(1, 2) for _ in range(m))]
    sys, seeds = make_monomial_module_system(m, [m], [(0, 0)], rels)
    extra = backend.monomial((rng.randint(0, 1), rng.randint(0, 1)))
    A = seeds + ([extra] if rng.random() < 0.5 else [])
    return list(sys.maps), backend, A


def test_c07_partition_invariance_suite():
    with budget("augmented closure rank across partitions: 30 systems", 60.0):
        rng = random.Random(2718)
        for case in range(30):
            maps, backend, A = (
                _random_trivial_system(rng)
                if case % 2 == 0
                else _random_linear_system(rng)
            )
            values = []
            for sizes in ([2], [1, 1]):
                sys = OperatorSystem(maps, Partition(sizes), backend)
                values.append(analyze_graded(augment(sys), A).phi_rank_value)
                Q = analyze_cumulative(sys, A).polynomial
                lead = Q.leading_coefficient() * math.prod(
                    math.factorial(d) for d in sizes
                )
                assert lead.denominator == 1 and lead >= 0
            assert values[0] == values[1], (case, values)


def test_c08_level_ideal_loop_closure():
    with budget("level ideals recover graded sums: 20 random tables", 10.0):
        rng = random.Random(1618)
        for case in range(20):
            m = rng.randint(1, 3)
            k = rng.randint(1, min(2, m))
            sizes = [1, m - 1] if k == 2 else [m]
            f = _random_staircase(rng, m)
            table = DecreasingTable.from_function(f, (5,) * m, Partition(sizes))
            real = realize_monomial_module(table)
            assert real.counts_ok, real.mismatches


def test_c09_betti_suite():
    with budget("Betti growth: three shift families vs boundary matrices", 30.0):
        # family 1: a five-cycle fixed by the identity
        K1 = SimplicialComplex([(i, (i + 1) % 5) for i in range(5)])
        ident = {v: v for v in range(5)}
        A1 = sorted(K1.simplices)
        for n in (0, 1):
            res = betti_polynomials(K1, [ident], [1], A1, n)
            t0 = max(res.betti.threshold)
            for t in range(t0 + 1, t0 + 9):
                assert res.betti.evaluate((t,)) == subcomplex_betti(A1, n)

        # family 2: an edge pushed along a long path, cumulative orbits
        L = 30
        K2 = SimplicialComplex([(i, i + 1) for i in range(L)])
        shift = {i: i + 1 for i in range(L)}
        shift[L] = L
        A2 = [(0,), (1,), (0, 1)]
        for n in (0, 1):
            res = betti_polynomials(K2, [shift], [1], A2, n, cumulative=True)
            t0 = max(res.betti.threshold)
            for t in range(t0 + 1, t0 + 9):
                orbit = [(i, i + 1) for i in range(t + 1)]
                assert res.betti.evaluate((t,)) == subcomplex_betti(orbit, n)

        # family 3: a hollow triangle translated to a fresh copy each step
        copies = 25
        def tri(j):
            return [
                (3 * j, 3 * j + 1),
                (3 * j + 1, 3 * j + 2),
                (3 * j, 3 * j + 2),
            ]
        K3 = SimplicialComplex([e for j in range(copies) for e in tri(j)])
        shift3 = {v: v + 3 for v in range(3 * (copies - 1))}
        shift3.update({v: v for v in range(3 * (copies - 1), 3 * copies)})
        A3 = sorted(SimplicialComplex(tri(0)).simplices)
        for n in (0, 1):
            res = betti_polynomials(K3, [shift3], [1], A3, n)
            t0 = max(res.betti.threshold)
            for t in range(t0 + 1, t0 + 9):
                assert res.betti.evaluate((t,)) == subcomplex_betti(tri(t), n)


def test_c10_matroid_axiom_fuzzing():
    with budget("rank axiom fuzzing: 1000 checks per backend", 60.0):
        rng = random.Random(99991)

        lb = LinearBackend()
        linear_pool = [
            lb.vector([(k, rng.randint(-2, 2)) for k in rng.sample(range(4), 2)])
            for _ in range(24)
        ]

        K = SimplicialComplex(
            [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)]
        )
        chain_free = ChainFreeOracle(K, 1)
        chain_bnd = ChainBoundaryOracle(K, 1)
        chain_pool = [("s", s) for s in K.of_dimension(1)] + [("0",)]

        circuits = {
            (0,): [frozenset({"a", "b", "c"})],
            (1,): [frozenset(p) for p in itertools.combinations("xyz", 2)],
        }
        circuit_pool = [((0,), g) for g in "abc"] + [((1,), g) for g in "xyz"]

        backends = [
            (TrivialBackend(2), [
                (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(24)
            ]),
            (IdealCountBackend(2, [(3, 0), (0, 3)]), [
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(24)
            ]),
            (lb, linear_pool),
            (GraphicBackend(), [
                ("abcdef"[rng.randrange(6)], "abcdef"[rng.randrange(6)])
                for _ in range(24)
            ]),
            (chain_free, chain_pool),
            (chain_bnd, chain_pool),
            (CircuitBackend(circuits), circuit_pool),
        ]
        for backend, pool in backends:
            sets = [
                [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 5))]
                for _ in range(1000)
            ]
            failures = check_rank_axioms(backend, sets, rng)
            assert failures == [], (type(backend).__name__, failures[:3])
