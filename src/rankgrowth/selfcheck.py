"""Built-in golden corpus: small worked examples with known answers.

Every item recomputes a value whose expected result was fixed by hand or
by an independent brute-force count, and fails loudly on any drift, also
under ``python -O``.  Run via ``rankgrowth selfcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple

from .engine import (
    DecreasingTable,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    detect_stabilization,
    dominant_terms,
    interpolate,
    numerator_from_table,
    phi_closure_member,
    realize_monomial_module,
    tabulate_f,
)
from .errors import HypothesisError
from .operators import (
    OperatorSystem,
    Partition,
    apply_word,
    augment,
    check_system,
    degrees_below,
    graded_orbit,
    lex_key,
)
from .backends import (
    LinearBackend,
    TrivialBackend,
    make_counterexample_graph,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    translation,
)

CHECKS: List[Tuple[str, Callable]] = []


def _expect(ok: bool) -> None:
    """Fail the running check; unlike ``assert``, this survives ``python -O``."""
    if not ok:
        raise AssertionError("expected condition does not hold")


def check(name: str):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn

    return wrap


def _poly_values(P, points):
    return [P.evaluate((t,)) for t in points]


def _repeated_shift_system():
    """Two literal copies of x -> x+1 on the trivial matroid over Z."""
    backend = TrivialBackend(1)
    return backend, [translation((1,)), translation((1,))]


@check("trivial rank is cardinality")
def _check_trivial_rank():
    backend = TrivialBackend(1)
    _expect(backend.rank([(7,), (9,), (7,)]) == 2)


@check("linear rank by exact row reduction")
def _check_linear_rank():
    lb = LinearBackend()
    vs = [lb.vector([(0, 1)]), lb.vector([(1, 1)]), lb.vector([(0, 1), (1, 1)])]
    _expect(lb.rank(vs) == 2)


@check("relative rank over a base set")
def _check_relative_rank():
    backend = TrivialBackend(1)
    _expect(backend.relative_rank([(1,), (2,)], [(2,), (3,)]) == 1)
    lb = LinearBackend()
    A = [lb.vector([(0, 1), (1, 1)])]
    B = [lb.vector([(0, 1)]), lb.vector([(1, 1)])]
    _expect(lb.relative_rank(A, B) == 0)
    _expect(backend.relative_rank([], [(5,)]) == 0)


@check("lexicographic order favors the last coordinate")
def _check_lex():
    _expect(lex_key((1, 0)) < lex_key((0, 1)))
    _expect(lex_key((5, 1)) < lex_key((0, 2)))


@check("word application composes shift maps")
def _check_apply_word():
    backend = TrivialBackend(1)
    sys = OperatorSystem(
        [translation((1,)), translation((3,))], Partition([2]), backend
    )
    _expect(apply_word(sys, (0,), (2, 1)) == (5,))
    _expect(apply_word(sys, (0,), (0, 0)) == (0,))


@check("graded orbit of shifts is an interval")
def _check_graded_orbit():
    sys = make_sumset_system([0, 1])
    got = sorted(graded_orbit(sys, [(0,)], (2,)))
    _expect(got == [(0,), (1,), (2,)])


@check("cumulative orbit equals graded orbit of the augmented system")
def _check_cumulative_orbit():
    sys = make_sumset_system([1, 3])
    aug = augment(sys)
    for t in range(5):
        union = {x for u in degrees_below((t,)) for x in graded_orbit(sys, [(0,)], u)}
        _expect(sorted(union) == sorted(graded_orbit(aug, [(0,)], (t,))))


@check("augmentation grows every part by one")
def _check_augment_shape():
    sys = make_sumset_system([2])
    _expect(augment(sys).partition.part_sizes == (2,))
    _expect(augment(augment(sys)).partition.part_sizes == (3,))


@check("system check passes for commuting shifts")
def _check_system_shifts():
    sys = make_sumset_system([1, 3])
    rep = check_system(sys, [(0,)], depth=3)
    _expect(rep.commutation_ok and rep.triangular_ok)


@check("system check flags non-commuting maps")
def _check_system_noncommuting():
    backend = TrivialBackend(1)

    def double(x):
        return (2 * x[0],)

    sys = OperatorSystem([translation((1,)), double], Partition([2]), backend)
    rep = check_system(sys, [(0,)], depth=3)
    _expect(not rep.commutation_ok)


@check("oscillating gadget graph: triangular fails, augmented passes")
def _check_counterexample_flags():
    sys, seed = make_counterexample_graph()
    rep = check_system(sys, seed, depth=3)
    _expect(rep.commutation_ok)
    _expect(not rep.parts_triangular[0])
    _expect(rep.parts_quasi_triangular[0])


@check("gadget graph ranks alternate two and three")
def _check_counterexample_ranks():
    sys, seed = make_counterexample_graph()
    ranks = [sys.backend.rank(graded_orbit(sys, seed, (t,))) for t in range(6)]
    _expect(ranks == [2, 3, 2, 3, 2, 3])


@check("marginal rank of a fresh monomial")
def _check_marginal_linear():
    sys, seeds = make_polynomial_ring_system(2)
    for u in [(0, 1), (1, 0)]:
        _expect(tabulate_f(sys, seeds, [], box=u).values[u] == 1)


@check("marginal ranks of repeated shifts select the lex-least word")
def _check_marginal_repeated():
    backend, maps = _repeated_shift_system()
    sys = OperatorSystem(maps, Partition([2]), backend)
    table = tabulate_f(sys, [(0,)], [], box=(5, 5))
    for (u1, u2), v in table.values.items():
        _expect(v == (1 if u2 == 0 else 0))


@check("sumset marginals are all ones for distinct shifts")
def _check_marginal_sumset():
    sys = make_sumset_system([0, 1])
    table = tabulate_f(sys, [(0,)], [], box=(5, 5))
    _expect(set(table.values.values()) == {1})
    _expect(table.is_decreasing)


@check("empty seed tabulates to zero")
def _check_empty_seed():
    sys = make_sumset_system([0, 1])
    table = tabulate_f(sys, [], [], box=(4, 4))
    _expect(set(table.values.values()) == {0})


@check("staircase of a univariate drop")
def _check_staircase():
    table = DecreasingTable.from_function(
        lambda u: 2 if u[0] == 0 else (1 if u[0] == 1 else 0), (6,), Partition([1])
    )
    cert = detect_stabilization(table, StabilizationConfig())
    _expect(cert.levels[0] == ((2,),))
    _expect(cert.levels[1] == ((1,),))
    _expect(cert.levels[2] == ((0,),))
    _expect(cert.m_bar == (2,))
    _expect(cert.window_certified)


@check("numerator of a constant table")
def _check_numerator_constant():
    p = Partition([1])
    table = DecreasingTable.from_function(lambda u: 3, (6,), p)
    cert = detect_stabilization(table, StabilizationConfig())
    num = numerator_from_table(table, cert.m_bar)
    _expect(num.coeffs == {(0,): 3})


@check("numerator of the (2,1,0,...) staircase")
def _check_numerator_staircase():
    p = Partition([1])
    table = DecreasingTable.from_function(
        lambda u: max(0, 2 - u[0]), (6,), p
    )
    cert = detect_stabilization(table, StabilizationConfig())
    num = numerator_from_table(table, cert.m_bar)
    _expect(num.coeffs == {(0,): 2, (1,): -1, (2,): -1})


@check("numerator of a point indicator in two variables")
def _check_numerator_indicator():
    p = Partition([1, 1])
    table = DecreasingTable.from_function(
        lambda u: 1 if u == (0, 0) else 0, (4, 4), p
    )
    num = numerator_from_table(table, (1, 1))
    _expect(num.coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


@check("binomial-basis interpolation")
def _check_interpolate():
    from .engine import GeneratingNumerator

    P = interpolate(GeneratingNumerator({(0,): 1}, (0,), (2,)))
    _expect(P.coeffs == {(1,): Fraction(1), (0,): Fraction(1)})
    P2 = interpolate(GeneratingNumerator({(0,): 3, (1,): -2}, (1,), (1,)))
    _expect(P2.coeffs == {(0,): Fraction(1)})
    P3 = interpolate(GeneratingNumerator({(0, 0): 1}, (0, 0), (1, 1)))
    _expect(P3.coeffs == {(0, 0): Fraction(1)})


@check("sumset growth of {0,1} is t + 1")
def _check_khovanskii_small():
    sys = make_sumset_system([0, 1])
    P = analyze_graded(sys, [(0,)]).polynomial
    _expect(_poly_values(P, range(5)) == [1, 2, 3, 4, 5])


@check("monomial count in three variables")
def _check_hilbert_three():
    sys, seeds = make_polynomial_ring_system(3)
    P = analyze_graded(sys, seeds).polynomial
    _expect(_poly_values(P, range(6)) == [1, 3, 6, 10, 15, 21])


@check("seed inside the base orbit gives the zero polynomial")
def _check_seed_in_base():
    sys = make_sumset_system([0, 1])
    P = analyze_graded(sys, [(0,)], [(0,)]).polynomial
    _expect(P.is_zero)


@check("cumulative growth of a single shift")
def _check_cumulative_shift():
    sys = make_sumset_system([1])
    Q = analyze_cumulative(sys, [(0,)]).polynomial
    _expect(_poly_values(Q, range(4)) == [1, 2, 3, 4])


@check("gadget graph cumulative polynomial matches union-find counts")
def _check_counterexample_cumulative():
    sys, seed = make_counterexample_graph()
    res = analyze_cumulative(sys, seed)
    backend = sys.backend
    for t in range(8):
        edges = [(k, i) for i in range(t + 1) for k in ("a", "b", "c")]
        _expect(res.polynomial.evaluate((t,)) == backend.rank(edges))


@check("gadget graph refuses the graded pipeline")
def _check_counterexample_refusal():
    sys, seed = make_counterexample_graph()
    try:
        analyze_graded(sys, seed)
    except HypothesisError:
        return
    raise AssertionError("graded pipeline accepted a non-triangular system")


@check("ideal counting, graded and cumulative")
def _check_ideal_counts():
    sys, A = make_ideal_system([(2, 0)], [2])
    P = analyze_graded(sys, A).polynomial
    _expect(_poly_values(P, range(1, 6)) == [2, 2, 2, 2, 2])
    Q = analyze_cumulative(sys, A).polynomial
    _expect(_poly_values(Q, range(5)) == [1, 3, 5, 7, 9])
    full, A2 = make_ideal_system([], [2])
    _expect(_poly_values(analyze_graded(full, A2).polynomial, range(4)) == [1, 2, 3, 4])


@check("context system identical to the primary changes nothing")
def _check_context_same():
    sys = make_sumset_system([0, 1])
    P = analyze_graded(sys, [(0,)]).polynomial
    Pc = analyze_graded(sys, [(0,)], context_sys=sys).polynomial
    _expect(P == Pc)


@check("difference sets of equal seed and base vanish")
def _check_context_difference():
    sys = make_sumset_system([0, 1])
    Pc = analyze_graded(sys, [(0,)], [(0,)], context_sys=sys).polynomial
    _expect(Pc.is_zero)


@check("word counts between two part degrees")
def _check_word_count():
    _expect(Partition([1]).word_count((7,), (7,)) == 1)
    _expect(Partition([2]).word_count((3,), (3,)) == 4)
    _expect(Partition([1, 1]).word_count((0, 0), (2, 3)) == 12)


@check("repeated shift maps: partition decides the closure rank")
def _check_partition_dependence():
    backend, maps = _repeated_shift_system()
    trivial_part = OperatorSystem(maps, Partition([2]), backend)
    split_part = OperatorSystem(maps, Partition([1, 1]), backend)
    _expect(analyze_graded(trivial_part, [(0,)]).phi_rank_value == 0)
    _expect(analyze_graded(split_part, [(0,)]).phi_rank_value == 1)


@check("polynomial ring seed has augmented rank one")
def _check_phi_star_rank():
    sys, seeds = make_polynomial_ring_system(1)
    _expect(analyze_graded(augment(sys), seeds).phi_rank_value == 1)


@check("closure membership trichotomy")
def _check_closure():
    sys = make_sumset_system([0, 1])
    inside = phi_closure_member(sys, (0,), [(0,)])
    _expect(inside.decision == "member" and inside.witness == (0,))
    outside = phi_closure_member(sys, (0,), [])
    _expect(outside.decision == "non-member")
    tiny = phi_closure_member(
        sys, (0,), [], StabilizationConfig(box=(0, 0), window=2)
    )
    _expect(tiny.decision == "inconclusive")


@check("dominant terms under both coordinate orders")
def _check_dominant():
    from .engine import GrowthPolynomial

    P = GrowthPolynomial(
        {(2, 1): Fraction(1), (1, 2): Fraction(1), (1, 1): Fraction(1)},
        (2, 2),
        (0, 0),
    )
    _expect({e for e, _ in dominant_terms(P)} == {(2, 1), (1, 2)})
    Q = GrowthPolynomial({(2,): Fraction(3), (1,): Fraction(1)}, (2,), (0,))
    _expect(dominant_terms(Q) == {((2,), Fraction(3))})
    C = GrowthPolynomial({(0,): Fraction(5)}, (0,), (0,))
    _expect(dominant_terms(C) == {((0,), Fraction(5))})


@check("level ideals recover the table's graded sums")
def _check_realize_module():
    p = Partition([1])
    table = DecreasingTable.from_function(lambda u: max(0, 2 - u[0]), (6,), p)
    real = realize_monomial_module(table)
    _expect([lvl.n for lvl in real.ideals] == [1, 2])
    _expect(real.ideals[0].frontier == ((1,),))
    _expect(real.ideals[1].frontier == ((0,),))
    _expect(real.counts_ok)
    flat = DecreasingTable.from_function(lambda u: 1, (5, 5), Partition([2]))
    _expect(realize_monomial_module(flat).counts_ok)
    empty = DecreasingTable.from_function(lambda u: 0, (4,), p)
    _expect(realize_monomial_module(empty).ideals == [])


@check("monomial quotient by a square")
def _check_monomial_quotient():
    sys, seeds = make_monomial_module_system(2, [2], [(0, 0)], relations=[(2, 0)])
    P = analyze_graded(sys, seeds).polynomial
    _expect(_poly_values(P, range(1, 6)) == [2, 2, 2, 2, 2])
    ring, seeds2 = make_polynomial_ring_system(2)
    P2 = analyze_graded(ring, seeds2).polynomial
    _expect(_poly_values(P2, range(5)) == [1, 2, 3, 4, 5])


@check("orthogonal shift grid factors")
def _check_grid():
    sys = make_sumset_system([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    P = analyze_graded(sys, [(0, 0)]).polynomial
    for s1 in range(4):
        for s2 in range(4):
            _expect(P.evaluate((s1, s2)) == (s1 + 1) * (s2 + 1))


@check("reference sumset: the proven bound box gives the default box's answer")
def _check_sumset_bound():
    sys = make_sumset_system([0, 1, 4], [0, 3])
    bound = analyze_graded(sys, [(0,)], [])
    default = analyze_graded(sys, [(0,)], [], StabilizationConfig(box=(5,) * 5))
    _expect((bound.evidence, bound.table.box) == ("bound", (5, 3, 3, 2, 3)))
    _expect(bound.status == default.status == "certified")
    _expect(bound.polynomial == default.polynomial)
    _expect(bound.polynomial.threshold == default.polynomial.threshold)


@check("sumset {0,1,2} seeded at {0,25}: the toric basis proves 2*Y + 26")
def _check_toric_basis():
    sys = make_sumset_system([0, 1, 2])
    _expect(sys.graded_bound([(0,), (25,)]) == (1, 25, 13))
    result = analyze_graded(sys, [(0,), (25,)], [])
    _expect((result.evidence, result.status) == ("bound", "certified"))
    _expect(result.polynomial.pretty() == "2*Y + 26")


@dataclass
class SelfCheckReport:
    passed: List[str] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def selfcheck(verbose: bool = True) -> SelfCheckReport:
    report = SelfCheckReport()
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            report.failed.append((name, f"{type(exc).__name__}: {exc}"))
            if verbose:
                print(f"FAIL  {name}: {exc}")
        else:
            report.passed.append(name)
            if verbose:
                print(f"PASS  {name}")
    if verbose:
        print(f"{len(report.passed)} passed, {len(report.failed)} failed")
    return report
