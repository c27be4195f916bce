"""Pipeline mathematics: marginals, staircases, numerators, interpolation."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankgrowth import (
    BOX_TRUNCATED,
    ContractError,
    DecreasingTable,
    GrowthPolynomial,
    HypothesisError,
    InputError,
    OperatorError,
    OperatorSystem,
    Partition,
    StabilizationConfig,
    WINDOW_CERTIFIED,
    analyze_cumulative,
    analyze_graded,
    detect_stabilization,
    dominant_terms,
    interpolate,
    numerator_from_table,
    phi_closure_member,
    realize_monomial_module,
    tabulate_f,
    verify_fit,
)
from rankgrowth import engine
from rankgrowth.engine import GeneratingNumerator
from rankgrowth.backends import (
    TrivialBackend,
    make_counterexample_graph,
    make_ideal_system,
    make_polynomial_ring_system,
    make_sumset_system,
    translation,
)
from rankgrowth.operators import apply_word, graded_orbit, product_leq
from oracles import (
    greedy_frontier,
    greedy_staircase,
    reference_scan,
    reference_tabulate,
    successor_violations,
)


# ---------------------------------------------------------------------------
# marginal ranks
# ---------------------------------------------------------------------------

def test_eval_f_single_variable_has_empty_lex_base():
    sys = make_sumset_system([1])
    for u in range(5):
        assert tabulate_f(sys, [(0,)], [], box=(u,)).values[(u,)] == 1


def test_eval_f_word_must_be_natural_numbers():
    sys = make_sumset_system([1])
    for word, message in [
        ((1.5,), "box must be integers"),
        ((True,), "box must be integers"),
        ((-1,), "nonnegative"),
        ((1, 1), "box has 2 coordinates, system has 1"),
    ]:
        with pytest.raises(InputError, match=message):
            tabulate_f(sys, [(0,)], [], box=word)


def test_eval_f_fresh_monomial():
    sys, seeds = make_polynomial_ring_system(2)
    assert tabulate_f(sys, seeds, [], box=(0, 1)).values[(0, 1)] == 1
    for bad in [(1,), (1, -1)]:
        with pytest.raises(InputError):
            tabulate_f(sys, seeds, [], box=bad)
    with pytest.raises(InputError):
        tabulate_f(make_sumset_system([0, 1]), [(0, 0)], [], box=(1, 1))


def _with_extra_translations(sys, extra):
    """Context system: each part of a sumset system plus one more shift."""
    maps, sizes = [], []
    for i, v in enumerate(extra):
        part = list(sys.part_maps(i)) + [translation((v,))]
        maps.extend(part)
        sizes.append(len(part))
    return OperatorSystem(maps, Partition(sizes), sys.backend)


@st.composite
def small_problems(draw):
    """(system, A, B, box, context system or None) on sumsets or lattice ideals."""
    context_sys = None
    if draw(st.booleans()):
        summand = st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True)
        sys = make_sumset_system(*draw(st.lists(summand, min_size=1, max_size=2)))
        point = st.tuples(st.integers(0, 6))
        if draw(st.booleans()):
            extra = draw(st.lists(st.integers(-3, 3), min_size=sys.k, max_size=sys.k))
            context_sys = _with_extra_translations(sys, extra)
        A = draw(st.lists(point, max_size=2))
    else:
        sizes = draw(st.sampled_from([[1], [2], [1, 1], [1, 2]]))
        point = st.tuples(*[st.integers(0, 3)] * sum(sizes))
        pts = set(draw(st.lists(point, max_size=3)))
        antichain = [
            p for p in pts if not any(q != p and product_leq(q, p) for q in pts)
        ]
        sys, origin = make_ideal_system(antichain, sizes)
        A = draw(st.lists(point, max_size=2)) or origin
    B = draw(st.lists(point, max_size=2))
    box = (draw(st.integers(0, 2)),) * sys.m
    return sys, A, B, box, context_sys


def _context_example():
    # the context's shift -1 carries B = {1} onto the seed 0, which the
    # primary shifts never do, so ignoring the context changes the values
    sys = make_sumset_system([0, 1])
    return sys, [(0,)], [(1,)], (3, 3), _with_extra_translations(sys, [-1])


@given(small_problems())
@example((make_sumset_system([0, 2, 3]), [(0,)], [(1,)], (3, 3, 3), None))
@example(_context_example())
@settings(max_examples=30, deadline=None)
def test_eval_f_agrees_with_tabulation(problem):
    # a word's marginal does not depend on the box it is tabulated in
    sys, A, B, box, context_sys = problem
    table = tabulate_f(sys, A, B, box=box, context_sys=context_sys)
    rng = random.Random(0)
    words = rng.sample(sorted(table.values), min(25, len(table.values)))
    for u in words:
        alone = tabulate_f(sys, A, B, box=u, context_sys=context_sys)
        assert alone.values[u] == table.values[u]


@given(small_problems())
@example((make_sumset_system([0, 1, 5], [2]), [(0,), (3,)], [(1,)], (3,) * 4, None))
@example(_context_example())
@settings(max_examples=30, deadline=None)
def test_graded_sum_identity(problem):
    # summing marginals over a slice telescopes to the orbit's relative rank,
    # which verify_fit computes directly as its pointwise evidence
    sys, A, B, box, context_sys = problem
    table = tabulate_f(sys, A, B, box=box, context_sys=context_sys)
    zero = (0,) * sys.k
    silent = GrowthPolynomial({}, zero, zero)
    report = verify_fit(silent, sys, A, B, (zero, table.slice_cap), context_sys)
    base_sys = context_sys or sys
    for s, direct, _ in report.points:
        orbit_rank = sys.backend.relative_rank(
            graded_orbit(sys, A, s), graded_orbit(base_sys, B, s)
        )
        assert table.graded_sum(s) == direct == orbit_rank


def _noncommuting_example():
    # +1 and doubling do not commute, so every image depends on the path
    # apply_word takes: it always decrements the highest nonzero coordinate
    def double(x):
        return (2 * x[0],)

    sys = OperatorSystem([translation((1,)), double], Partition([2]), TrivialBackend(1))
    return sys, [(1,), (3,)], [(4,)], (3, 3), None


def _forced_counterexample():
    sys, seed = make_counterexample_graph()
    return sys.with_flags(["triangular"]), seed, [], (8,), None


@given(small_problems())
@example((make_sumset_system([0, 1, 5], [2]), [(0,), (3,)], [(1,)], (3,) * 4, None))
@example(_context_example())
@example(_noncommuting_example())
@example(_forced_counterexample())
@settings(max_examples=40, deadline=None)
def test_tabulation_matches_reference_kernel(problem):
    sys, A, B, box, context_sys = problem
    table = tabulate_f(sys, A, B, box=box, context_sys=context_sys)
    values, violations, corners = reference_tabulate(sys, A, B, box, context_sys)
    assert list(table.values.items()) == list(values.items())
    assert table.violations == violations
    assert table.corners == corners


def test_tabulation_orbits_b_only_when_b_is_nonempty(monkeypatch):
    slices = []
    honest = engine.graded_orbit

    def counting(sys, A, s, cache=None):
        slices.append(s)
        return honest(sys, A, s, cache)

    monkeypatch.setattr(engine, "graded_orbit", counting)
    sys = make_sumset_system([0, 1])
    tabulate_f(sys, [(0,)], [], box=(2, 2))
    assert slices == []
    tabulate_f(sys, [(0,)], [(5,)], box=(2, 2))
    assert slices == [(0,), (1,), (2,), (3,), (4,)]


def test_map_failure_during_tabulation_names_map_and_word():
    def shift(x):
        if x[0] >= 3:
            raise ValueError(f"no image of {x[0]}")
        return (x[0] + 1,)

    sys = OperatorSystem([translation((0,)), shift], Partition([2]), TrivialBackend(1))
    with pytest.raises(OperatorError) as direct:
        apply_word(sys, (0,), (0, 4))
    with pytest.raises(OperatorError) as tabulated:
        tabulate_f(sys, [(0,)], [], box=(4, 4))
    assert str(tabulated.value) == str(direct.value)
    assert "map 2 failed while applying word (0, 4)" in str(tabulated.value)
    assert isinstance(tabulated.value.__cause__, ValueError)


def test_builder_failure_during_tabulation_is_not_rewrapped():
    class Broken(TrivialBackend):
        def basis_builder(self):
            builder = super().basis_builder()

            def add(elem):
                raise ContractError(f"refused {elem}")

            builder.add = add
            return builder

    sys = OperatorSystem([translation((1,))], Partition([1]), Broken(1))
    with pytest.raises(ContractError, match="refused"):
        tabulate_f(sys, [(0,)], [], box=(2,))


def test_tabulate_validates_an_explicit_box():
    sys = make_sumset_system([0, 1])
    with pytest.raises(InputError, match="nonnegative"):
        tabulate_f(sys, [(0,)], [], box=(-1, 3))
    with pytest.raises(InputError, match="box has 1 coordinates, system has 2"):
        tabulate_f(sys, [(0,)], [], box=(3,))
    assert tabulate_f(sys, [(0,)], [], box=(2, 2)).box == (2, 2)
    assert tabulate_f(sys, [(0,)], []).box == engine.default_box(2)
    # only integers proper: no truncated floats, strings or bools
    for box in [(1.9, 1.9), ("x", 1), (True, 1), 3]:
        with pytest.raises(InputError, match="box must be integers"):
            tabulate_f(sys, [(0,)], [], box=box)
    for window in ["2", 1.8, True, None]:
        with pytest.raises(InputError, match="window width must be an integer"):
            StabilizationConfig(window=window)


def test_work_budget_rejects_a_huge_box_before_any_word():
    def never(x):
        raise AssertionError("no map may run")

    sys = OperatorSystem([never] * 6, Partition([6]), TrivialBackend(1))
    words = math.comb(126, 6)  # part degrees up to 120 over 6 slots
    assert words > 4_000_000_000
    budget = rf"{words:,} words.*{engine.MAX_WORDS:,}.*--box"
    with pytest.raises(InputError, match=budget):
        tabulate_f(sys, [(0,)], [], box=(20,) * 6)
    with pytest.raises(InputError, match=rf"{words:,} words"):
        DecreasingTable.from_function(never, (20,) * 6, Partition([6]))


def test_from_function_box_must_be_natural_numbers():
    # (1.9,) used to become the box (1,)
    for box in [(1.9,), (True,), ("2",), (-1,)]:
        with pytest.raises(InputError, match="box must be natural numbers"):
            DecreasingTable.from_function(lambda u: 1, box, Partition([1]))
    assert DecreasingTable.from_function(lambda u: 1, (2,), Partition([1])).box == (2,)


def test_lattice_cache_evicts_least_recent_within_its_word_budget():
    cache = engine._LatticeCache(budget=30)
    line = (1,)  # the lattice of cap (c,) over one slot holds c + 1 words
    first = cache(line, (9,))
    assert cache(line, (9,)) is first
    cache(line, (14,))
    cache(line, (9,))  # now more recent than (14,)
    cache(line, (4,))
    assert (list(cache.lattices), cache.words) == (
        [(line, (14,)), (line, (9,)), (line, (4,))],
        30,
    )
    cache(line, (5,))  # 6 more words: the least recent, (14,), goes
    assert (list(cache.lattices), cache.words) == (
        [(line, (9,)), (line, (4,)), (line, (5,))],
        21,
    )
    assert cache(line, (9,)) is first


def test_lattice_cache_does_not_keep_a_lattice_over_its_budget():
    cache = engine._LatticeCache(budget=30)
    cache((1,), (9,))
    big = cache((1,), (30,))  # 31 words
    assert big.words == [(c,) for c in range(31)]
    assert (list(cache.lattices), cache.words) == ([((1,), (9,))], 10)
    assert cache((1,), (30,)) is not big
    assert engine._word_lattice.budget == engine.LATTICE_CACHE_WORDS


def test_tabulate_sumset_is_decreasing_all_ones():
    sys = make_sumset_system([0, 1])
    table = tabulate_f(sys, [(0,)], [], box=(5, 5))
    assert table.is_decreasing
    assert set(table.values.values()) == {1}


def test_tabulate_empty_seed_is_zero():
    sys = make_sumset_system([0, 1])
    table = tabulate_f(sys, [], [], box=(4, 4))
    assert set(table.values.values()) == {0}


def test_tabulate_counterexample_declared_triangular_has_violations():
    sys, seed = make_counterexample_graph()
    forced = sys.with_flags(["triangular"])
    table = tabulate_f(forced, seed, [], box=(8,))
    assert table.violations
    u, up = table.violations[0]
    assert table.values[u] < table.values[up]


def test_tabulate_values_bounded_by_seed_size():
    sys = make_sumset_system([0, 1, 2])
    A = [(0,), (1,)]
    table = tabulate_f(sys, A, [], box=(3, 3, 3))
    assert all(0 <= v <= len(A) for v in table.values.values())


# ---------------------------------------------------------------------------
# stabilization detection
# ---------------------------------------------------------------------------

def test_detect_constant_function():
    table = DecreasingTable.from_function(lambda u: 4, (6, 6), Partition([2]))
    cert = detect_stabilization(table)
    assert cert.m_bar == (0, 0)
    assert cert.window_certified


def test_detect_univariate_staircase():
    table = DecreasingTable.from_function(
        lambda u: 2 if u[0] == 0 else (1 if u[0] == 1 else 0), (6,), Partition([1])
    )
    cert = detect_stabilization(table)
    assert cert.levels[0] == ((2,),)
    assert cert.levels[1] == ((1,),)
    assert cert.levels[2] == ((0,),)
    assert cert.m_bar == (2,)
    assert cert.window_certified


def test_detect_drop_at_box_edge_is_truncated():
    table = DecreasingTable.from_function(
        lambda u: 1 if u[0] < 6 else 0, (6,), Partition([1])
    )
    cert = detect_stabilization(table)
    assert cert.status == BOX_TRUNCATED


def test_negative_table_value_is_input_error():
    # the only table on which the old band re-scan ever fired
    with pytest.raises(InputError, match=r"natural numbers, got -1 at \(1,\)"):
        DecreasingTable.from_function(
            lambda u: 0 if u[0] == 0 else -1, (6,), Partition([1])
        )
    values = {(0, 0): 1, (1, 0): 0, (0, 1): -2}
    with pytest.raises(InputError, match=r"got -2 at \(0, 1\)"):
        DecreasingTable((1, 0), Partition([2]), values, (1,))


def test_detect_certifies_exactly_when_the_band_is_tabulated():
    # corners (0,) and (3,): m_bar (3,), band cap (3 + window,) against box 6
    table = DecreasingTable.from_function(
        lambda u: 1 if u[0] < 3 else 0, (6,), Partition([1])
    )
    for window, status in [
        (1, WINDOW_CERTIFIED),
        (3, WINDOW_CERTIFIED),
        (4, BOX_TRUNCATED),
    ]:
        cert = detect_stabilization(table, StabilizationConfig(window=window))
        assert (cert.m_bar, cert.status) == ((3,), status)
    assert cert.failure == "window (7,) exceeds tabulated part degrees (6,)"


def test_detect_requires_decreasing():
    table = DecreasingTable.from_function(lambda u: u[0], (4,), Partition([1]))
    with pytest.raises(ContractError):
        detect_stabilization(table)


@st.composite
def staircase_tables(draw):
    """from_function tables with m <= 3, parts [m] or [1, m - 1]; some not decreasing."""
    m = draw(st.integers(1, 3))
    parts = draw(st.sampled_from([[m], [1, m - 1]] if m > 1 else [[1]]))
    box = tuple(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
    point = st.tuples(*[st.integers(0, 4)] * m)
    if draw(st.booleans()):
        # a sum of ideal indicators is decreasing
        ideals = draw(st.lists(st.lists(point, max_size=3), max_size=4))

        def f(u):
            return sum(not any(product_leq(p, u) for p in gens) for gens in ideals)

    else:
        noise = draw(st.dictionaries(point, st.integers(0, 3), max_size=6))

        def f(u):
            return noise.get(u, 1)

    return DecreasingTable.from_function(f, box, Partition(parts))


@given(staircase_tables(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_one_pass_staircase_matches_greedy_reference(table, window):
    assert table.violations == successor_violations(table.values)
    assert (table.violations, table.corners) == reference_scan(table.values)
    p = table.partition
    cfg = StabilizationConfig(window=window)
    if table.violations:
        with pytest.raises(ContractError):
            detect_stabilization(table, cfg)
        return
    cert = detect_stabilization(table, cfg)
    got = (cert.levels, cert.m_bar, cert.status, cert.failure)
    assert got == greedy_staircase(
        table.values, p.part_sizes, table.slice_cap, window
    )
    assert list(cert.levels) == list(range(table.values[(0,) * p.m] + 1))
    for level in realize_monomial_module(table).ideals:
        assert level.frontier == greedy_frontier(table.values, level.n)


def test_table_off_its_slice_cap_lattice_is_input_error():
    p = Partition([2])
    lattice = {(0, 0): 2, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 0, (0, 2): 0}
    table = DecreasingTable((1, 1), p, dict(lattice), (2,))
    assert table.corners == [
        ((0, 0), 2, 3),
        ((1, 0), 1, 2),
        ((0, 1), 1, 2),
        ((1, 1), 0, 1),
        ((0, 2), 0, 1),
    ]
    missing = dict(lattice)
    del missing[(0, 1)]
    beyond = dict(lattice)
    beyond[(3, 0)] = 0
    shuffled = dict(reversed(list(lattice.items())))
    off_lattice = r"not the 6 words under slice cap \(2,\)"
    for values in (missing, beyond, shuffled):
        with pytest.raises(InputError, match=off_lattice):
            DecreasingTable((1, 1), p, values, (2,))
    with pytest.raises(InputError, match=r"slice cap \(2, 2\) has 2 entries"):
        DecreasingTable((1, 1), p, lattice, (2, 2))


def test_table_word_beyond_slice_cap_is_input_error():
    p = Partition([1])
    values = {(0,): 2, (1,): 1, (2,): 1}
    table = DecreasingTable((1,), p, values, (2,))
    assert table.corners == [((0,), 2, 3), ((1,), 1, 2)]
    with pytest.raises(InputError, match=r"not the 2 words under slice cap \(1,\)"):
        DecreasingTable((1,), p, values, (1,))


def test_joint_staircase_bound_beyond_slices_degrades_gracefully():
    # two incomparable drops whose join exceeds the tabulated part degrees:
    # the pipeline must return a box-truncated result, not crash
    sys, A = make_ideal_system([(5, 0), (0, 5)], [2])
    cfg = StabilizationConfig(box=(4, 4))
    table = tabulate_f(sys, A, [], box=cfg.box)
    cert = detect_stabilization(table, cfg)
    assert cert.m_bar == (5, 5)  # joint bound, part degree 10 > slice cap 8
    res = analyze_graded(sys, A, [], cfg)
    assert res.status == BOX_TRUNCATED
    # an adequate box certifies the same system
    ok = analyze_graded(sys, A, [], StabilizationConfig(box=(8, 8)))
    assert ok.status == "certified"


# ---------------------------------------------------------------------------
# numerator and interpolation
# ---------------------------------------------------------------------------

def test_numerator_examples():
    p1 = Partition([1])
    const = DecreasingTable.from_function(lambda u: 3, (6,), p1)
    num = numerator_from_table(const, (0,), p1)
    assert num.coeffs == {(0,): 3}

    stair = DecreasingTable.from_function(lambda u: max(0, 2 - u[0]), (6,), p1)
    num2 = numerator_from_table(stair, (2,), p1)
    assert num2.coeffs == {(0,): 2, (1,): -1, (2,): -1}

    p11 = Partition([1, 1])
    point = DecreasingTable.from_function(
        lambda u: 1 if u == (0, 0) else 0, (4, 4), p11
    )
    num3 = numerator_from_table(point, (1, 1), p11)
    assert num3.coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}


def test_numerator_substitution_collapses_parts():
    # indicator of the origin in two merged variables: (1 - Y)^2
    p = Partition([2])
    point = DecreasingTable.from_function(
        lambda u: 1 if u == (0, 0) else 0, (4, 4), p
    )
    num = numerator_from_table(point, (1, 1), p)
    assert num.coeffs == {(0,): 1, (1,): -2, (2,): 1}


def test_interpolate_examples():
    P = interpolate(GeneratingNumerator({(0,): 1}, (0,), (2,)), (2,))
    assert P.coeffs == {(1,): Fraction(1), (0,): Fraction(1)}
    P2 = interpolate(GeneratingNumerator({(0,): 3, (1,): -2}, (1,), (1,)), (1,))
    assert P2.coeffs == {(0,): Fraction(1)}
    P3 = interpolate(GeneratingNumerator({(0, 0): 1}, (0, 0), (1, 1)), (1, 1))
    assert P3.coeffs == {(0, 0): Fraction(1)}


def test_interpolate_leading_coefficient_identity():
    num = GeneratingNumerator({(0,): 2, (1,): 1, (2,): -1}, (2,), (3,))
    P = interpolate(num, (3,))
    assert P.leading_coefficient() * math.factorial(2) == num.at_ones()


# ---------------------------------------------------------------------------
# round trip: staircase -> numerator -> polynomial -> graded sums
# ---------------------------------------------------------------------------

def _random_decreasing(rng, m, max_val=5, coord_bound=4):
    """Sum of ideal indicators: ideals given by complement antichains."""
    levels = rng.randint(0, max_val)
    antichains = []
    for _ in range(levels):
        pts = [
            tuple(rng.randint(0, coord_bound) for _ in range(m))
            for _ in range(rng.randint(0, 3))
        ]
        minimal = [
            p
            for p in pts
            if not any(
                q != p and all(a <= b for a, b in zip(q, p)) for q in pts
            )
        ]
        antichains.append(sorted(set(minimal)))

    def f(u):
        total = 0
        for ac in antichains:
            if not any(all(a <= b for a, b in zip(p, u)) for p in ac):
                total += 1
        return total

    return f


def _round_trip_once(rng, m, k):
    sizes = []
    remaining = m
    for i in range(k - 1):
        take = rng.randint(1, remaining - (k - 1 - i))
        sizes.append(take)
        remaining -= take
    sizes.append(remaining)
    p = Partition(sizes)
    f = _random_decreasing(rng, m)
    box = (6,) * m
    table = DecreasingTable.from_function(f, box, p)
    assert table.is_decreasing
    cert = detect_stabilization(table, StabilizationConfig(window=2))
    num = numerator_from_table(table, cert.m_bar, p)
    P = interpolate(num, sizes)
    # graded sums reproduced exactly at and above the threshold
    cap = table.slice_cap
    for s in itertools.product(*(range(t, c + 1) for t, c in zip(P.threshold, cap))):
        expect = table.graded_sum(s)
        assert P.evaluate(s) == expect
    # numerator at ones equals the top coefficient times the factorials
    factor = math.prod(math.factorial(d - 1) for d in sizes)
    assert P.leading_coefficient() * factor == num.at_ones()
    # degree bounds
    for i in range(k):
        assert P.degree_in(i) <= sizes[i] - 1


def test_round_trip_small_batch():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 3)
        k = rng.randint(1, min(2, m))
        _round_trip_once(rng, m, k)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    k = rng.randint(1, min(2, m))
    _round_trip_once(rng, m, k)


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def test_dimension_polynomial_khovanskii():
    sys = make_sumset_system([0, 1])
    res = analyze_graded(sys, [(0,)])
    assert [res.polynomial.evaluate((t,)) for t in range(5)] == [1, 2, 3, 4, 5]
    assert res.status == "certified"


def test_dimension_polynomial_hilbert():
    sys, seeds = make_polynomial_ring_system(3)
    P = analyze_graded(sys, seeds).polynomial
    for t in range(8):
        assert P.evaluate((t,)) == (t + 1) * (t + 2) // 2


def test_dimension_polynomial_seed_in_base():
    sys = make_sumset_system([0, 1])
    assert analyze_graded(sys, [(0,)], [(0,)]).polynomial.is_zero


def test_dimension_refuses_undeclared():
    sys, seed = make_counterexample_graph()
    with pytest.raises(HypothesisError):
        analyze_graded(sys, seed)


def test_dimension_refuses_on_violation_witness():
    sys, seed = make_counterexample_graph()
    with pytest.raises(HypothesisError) as err:
        analyze_graded(sys.with_flags(["triangular"]), seed)
    assert err.value.witness is not None


def test_cumulative_polynomial_shift():
    sys = make_sumset_system([1])
    Q = analyze_cumulative(sys, [(0,)]).polynomial
    assert [Q.evaluate((t,)) for t in range(5)] == [1, 2, 3, 4, 5]


def test_cumulative_polynomial_counterexample():
    sys, seed = make_counterexample_graph()
    res = analyze_cumulative(sys, seed)
    assert res.status == "certified"
    for t in range(10):
        assert res.polynomial.evaluate((t,)) == 2 * t + 2


def test_cumulative_degree_bound():
    sys = make_sumset_system([0, 1], [2, 5])
    Q = analyze_cumulative(sys, [(0,)]).polynomial
    for i, d in enumerate(sys.partition.part_sizes):
        assert Q.degree_in(i) <= d


def test_cumulative_box_expansion_accepts_original_length():
    sys = make_sumset_system([1, 2])
    cfg = StabilizationConfig(box=(4, 4))
    Q = analyze_cumulative(sys, [(0,)], cfg=cfg).polynomial
    assert Q.evaluate((3,)) == 7  # |{0..2*3}| cumulative of shifts {1,2} from 0


def test_cumulative_box_length_names_the_callers_m():
    sys = make_sumset_system([1, 2])
    with pytest.raises(InputError, match="box has 1 coordinates, system has 2$"):
        analyze_cumulative(sys, [(0,)], cfg=StabilizationConfig(box=(4,)))
    short = analyze_cumulative(sys, [(0,)], cfg=StabilizationConfig(box=(4, 4)))
    full = analyze_cumulative(sys, [(0,)], cfg=StabilizationConfig(box=(4, 4, 4)))
    assert short.table.box == full.table.box == (4, 4, 4)
    assert short.polynomial == full.polynomial


def test_context_polynomial_matches_plain_when_equal():
    sys = make_sumset_system([0, 1])
    context = analyze_graded(sys, [(0,)], context_sys=sys)
    assert context.polynomial == analyze_graded(sys, [(0,)]).polynomial


def test_context_polynomial_difference_sets():
    sys = make_sumset_system([0, 1])
    assert analyze_graded(sys, [(0,)], [(0,)], context_sys=sys).polynomial.is_zero


def test_context_requires_subtuple():
    a = make_sumset_system([0, 1])
    b = make_sumset_system([0, 1])  # distinct map objects
    with pytest.raises(Exception):
        analyze_graded(a, [(0,)], context_sys=b)


def test_context_with_strictly_larger_context():
    backend = TrivialBackend(1)
    f0, f1, f2 = translation((0,)), translation((1,)), translation((2,))
    phi = OperatorSystem([f0, f1], Partition([2]), backend)
    psi = OperatorSystem([f0, f1, f2], Partition([3]), backend)
    P = analyze_graded(phi, [(0,)], [(0,)], context_sys=psi).polynomial
    # seed orbit {0..t} sits inside base orbit {0..2t}
    assert P.is_zero


# ---------------------------------------------------------------------------
# closure rank and membership
# ---------------------------------------------------------------------------

def test_phi_rank_partition_dependence():
    backend = TrivialBackend(1)
    maps = [translation((1,)), translation((1,))]
    for sizes, rank in [([2], 0), ([1, 1], 1)]:
        sys = OperatorSystem(maps, Partition(sizes), backend)
        assert analyze_graded(sys, [(0,)]).phi_rank_value == rank


def test_phi_rank_equals_numerator_at_ones():
    sys = make_sumset_system([0, 1, 3])
    res = analyze_graded(sys, [(0,)], [])
    val = res.phi_rank_value
    assert val == res.numerator.at_ones()
    factor = math.factorial(sys.partition.part_sizes[0] - 1)
    assert res.polynomial.leading_coefficient() * factor == val


def test_phi_rank_drifted_interpolation_is_contract_error(monkeypatch):
    honest = engine.interpolate

    def drifted(numerator, d):
        P = honest(numerator, d)
        bumped = {e: c + 1 for e, c in P.coeffs.items()}
        return GrowthPolynomial(bumped, P.degree_bound, P.threshold)

    monkeypatch.setattr(engine, "interpolate", drifted)
    res = analyze_graded(make_sumset_system([0, 1]), [(0,)])
    with pytest.raises(ContractError, match="leading coefficient"):
        res.phi_rank_value


def test_phi_closure_trichotomy():
    sys = make_sumset_system([0, 1])
    assert phi_closure_member(sys, (0,), [(0,)]).decision == "member"
    assert phi_closure_member(sys, (0,), []).decision == "non-member"
    tiny = StabilizationConfig(box=(0, 0))
    assert phi_closure_member(sys, (0,), [], tiny).decision == "inconclusive"


def test_phi_closure_non_member_tabulates_once(monkeypatch):
    calls = []
    honest = engine.tabulate_f

    def counting(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(engine, "tabulate_f", counting)
    sys = make_sumset_system([0, 1])
    assert phi_closure_member(sys, (0,), []).decision == "non-member"
    assert len(calls) == 1


def test_phi_closure_dependency_beyond_box_is_inconclusive():
    # duplicated shifts have a genuine witness at degree one, invisible in
    # a zero box: the honest answer is inconclusive, never a false negative
    backend = TrivialBackend(1)
    dup = OperatorSystem(
        [translation((1,)), translation((1,))], Partition([2]), backend
    )
    dec = phi_closure_member(dup, (0,), [], StabilizationConfig(box=(0, 0)))
    assert dec.decision == "inconclusive"


def test_phi_closure_member_witness_degree():
    sys = make_sumset_system([1, 1])  # dedups to a single +1 map
    backend = TrivialBackend(1)
    dup = OperatorSystem(
        [translation((1,)), translation((1,))], Partition([2]), backend
    )
    dec = phi_closure_member(dup, (0,), [])
    assert dec.decision == "member"
    assert dec.witness == (1,)


def test_phi_closure_quasi_only_is_inconclusive():
    sys, seed = make_counterexample_graph()
    dec = phi_closure_member(sys, ("a", 0), [])
    assert dec.decision == "inconclusive"


# ---------------------------------------------------------------------------
# dominant terms, module realization, verification
# ---------------------------------------------------------------------------

def test_dominant_terms_examples():
    P = GrowthPolynomial(
        {(2, 1): Fraction(1), (1, 2): Fraction(1), (1, 1): Fraction(1)},
        (2, 2),
        (0, 0),
    )
    assert {e for e, _ in dominant_terms(P)} == {(2, 1), (1, 2)}
    Q = GrowthPolynomial({(2,): Fraction(3), (1,): Fraction(1)}, (2,), (0,))
    assert dominant_terms(Q) == {((2,), Fraction(3))}
    Z = GrowthPolynomial({}, (1,), (0,))
    assert dominant_terms(Z) == set()


def test_dominant_terms_invariance_same_closure():
    # seeds generating the same orbit closure share dominant terms
    sys, _ = make_polynomial_ring_system(2, [1, 1])
    backend = sys.backend
    A = [backend.monomial((0, 0))]
    A2 = [backend.monomial((0, 0)), backend.monomial((1, 0))]
    QA = analyze_cumulative(sys, A).polynomial
    QA2 = analyze_cumulative(sys, A2).polynomial
    assert dominant_terms(QA) == dominant_terms(QA2)
    assert QA != QA2  # the polynomials themselves differ


def test_realize_monomial_module_examples():
    p = Partition([1])
    flat = DecreasingTable.from_function(lambda u: 1, (6, 6), Partition([2]))
    real = realize_monomial_module(flat)
    assert len(real.ideals) == 1 and real.counts_ok

    stair = DecreasingTable.from_function(lambda u: max(0, 2 - u[0]), (6,), p)
    real2 = realize_monomial_module(stair)
    assert real2.ideals[0].frontier == ((1,),)
    assert real2.ideals[1].frontier == ((0,),)
    sums = [stair.graded_sum((t,)) for t in range(4)]
    assert sums == [2, 1, 0, 0]

    zero = DecreasingTable.from_function(lambda u: 0, (5,), p)
    assert realize_monomial_module(zero).ideals == []


def test_realize_rejects_non_decreasing():
    bad = DecreasingTable.from_function(lambda u: u[0], (4,), Partition([1]))
    with pytest.raises(ContractError):
        realize_monomial_module(bad)


def test_verify_fit_perturbed_constant():
    sys = make_sumset_system([0, 1])
    res = analyze_graded(sys, [(0,)], [])
    P = res.polynomial
    bumped = GrowthPolynomial(
        {e: c for e, c in P.coeffs.items()} | {(0,): P.coeffs.get((0,), 0) + 1},
        P.degree_bound,
        P.threshold,
    )
    rep = verify_fit(bumped, sys, [(0,)], [], ((0,), (4,)))
    assert len(rep.mismatches) == len(rep.points)


def test_verify_fit_window_below_threshold():
    P = GrowthPolynomial({(0,): Fraction(1)}, (1,), (3,))
    sys = make_sumset_system([0, 1])
    with pytest.raises(ContractError):
        verify_fit(P, sys, [(0,)], [], ((0,), (4,)))


def test_polynomial_pretty_formats():
    P = GrowthPolynomial(
        {(2,): Fraction(1, 2), (1,): Fraction(3, 2), (0,): Fraction(1)}, (2,), (0,)
    )
    assert P.pretty() == "1/2*Y^2 + 3/2*Y + 1"
    Q = GrowthPolynomial(
        {(0,): Fraction(2), (1,): Fraction(-1), (2,): Fraction(-1)}, (2,), (0,)
    )
    assert Q.pretty() == "-Y^2 - Y + 2"
    Z = GrowthPolynomial({}, (1,), (0,))
    assert Z.pretty() == "0"
    M = GrowthPolynomial({(1, 2): Fraction(5)}, (1, 2), (0, 0))
    assert M.pretty() == "5*Y1*Y2^2"


def test_ideal_pipeline_against_counts():
    sys, A = make_ideal_system([(2, 1)], [2])
    P = analyze_graded(sys, A).polynomial
    # points (r1, r2) with r1+r2=t outside the shadow of (2,1)
    def count(t):
        return sum(
            1
            for r1 in range(t + 1)
            if not (r1 >= 2 and (t - r1) >= 1)
        )
    for t in range(3, 9):
        assert P.evaluate((t,)) == count(t)
