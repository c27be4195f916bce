"""Pipeline mathematics: marginals, staircases, numerators, interpolation."""

import itertools
import math
import random
import re
import time
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
from rankgrowth import engine, operators
from rankgrowth.engine import GeneratingNumerator
from rankgrowth.backends import (
    ChainFreeOracle,
    CircuitBackend,
    GraphicBackend,
    SimplicialComplex,
    TrivialBackend,
    make_counterexample_graph,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    translation,
)
from rankgrowth.operators import apply_word, check_system, graded_orbit, product_leq
from oracles import (
    greedy_frontier,
    greedy_staircase,
    permutation_dominant_terms,
    reference_evaluate,
    reference_interpolate,
    reference_lattice,
    reference_scan,
    reference_tabulate,
    reference_verify,
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
        ((1.5,), "box must be natural numbers"),
        ((True,), "box must be natural numbers"),
        ((-1,), "box must be natural numbers"),
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
    # +1 and doubling do not commute, so every image of A depends on the
    # path apply_word takes: it always decrements the highest nonzero
    # coordinate.  B is empty: B's orbits step by part degree and refuse
    # such maps (test_noncommuting_maps_with_b_are_refused_by_tabulation)
    def double(x):
        return (2 * x[0],)

    sys = OperatorSystem([translation((1,)), double], Partition([2]), TrivialBackend(1))
    return sys, [(1,), (3,)], [], (3, 3), None


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


def test_noncommuting_maps_with_b_are_refused_by_tabulation():
    # B's orbits step one part degree at a time, as verification's do:
    # {4} reaches {5, 8}, then {6, 10, 9, 16}, four points where commuting
    # maps give at most three; B's word walk used to apply one fixed order
    sys, A, _, box, _ = _noncommuting_example()
    with pytest.raises(HypothesisError, match="maps do not commute") as refused:
        tabulate_f(sys, A, [(4,)], box=box)
    assert refused.value.witness == (2,)


def test_tabulation_orbits_b_only_when_b_is_nonempty(monkeypatch):
    # A's images come from one lattice walk; B's orbits from one stepped
    # orbit over the slices, in the context system when one is given; an
    # empty B's stepped orbit runs no map and counts no word, as
    # test_stepped_orbits_of_no_seeds_run_nothing checks
    walks, steps = [], []
    honest_images, honest_steps = operators._images, engine._stepped_orbits

    def counting_images(maps, seeds, lattice):
        walks.append((maps, list(seeds), lattice.slices[-1][0]))
        return honest_images(maps, seeds, lattice)

    def counting_steps(sys, seeds, lo, hi):
        steps.append((sys, list(seeds), lo, hi))
        return honest_steps(sys, seeds, lo, hi)

    def unused(*args, **kwargs):
        raise AssertionError("tabulation takes no image from graded_orbit or apply_word")

    monkeypatch.setattr(engine, "_images", counting_images)
    monkeypatch.setattr(engine, "_stepped_orbits", counting_steps)
    monkeypatch.setattr(operators, "graded_orbit", unused)
    monkeypatch.setattr(operators, "apply_word", unused)
    sys = make_sumset_system([0, 1])
    tabulate_f(sys, [(0,)], [], box=(2, 2))
    assert (walks, steps) == ([(sys.maps, [(0,)], (4,))], [(sys, [], (0,), (4,))])
    context = _with_extra_translations(sys, [3])
    for base in [None, context]:
        walks.clear()
        steps.clear()
        tabulate_f(sys, [(0,)], [(5,)], box=(2, 2), context_sys=base)
        assert walks == [(sys.maps, [(0,)], (4,))]
        assert steps == [(base or sys, [(5,)], (0,), (4,))]


def test_check_mode_takes_no_image_from_graded_orbit_or_apply_word(monkeypatch):
    # check mode steps the word lattice, as tabulation does
    def unused(*args, **kwargs):
        raise AssertionError("check mode takes no image from graded_orbit or apply_word")

    monkeypatch.setattr(operators, "graded_orbit", unused)
    monkeypatch.setattr(operators, "apply_word", unused)
    report = check_system(make_sumset_system([0, 1], [2]), [(0,), (3,)], depth=5)
    assert report.commutation_ok and report.triangular_ok


def test_tabulation_and_check_mode_share_one_lattice_walk(monkeypatch):
    # tabulation walks every seed at once, check mode one seed at a time,
    # both in sorted seed order through the same function
    assert engine._images is operators._images
    walks = []
    honest = operators._images

    def counting(maps, seeds, lattice):
        walks.append(list(seeds))
        return honest(maps, seeds, lattice)

    monkeypatch.setattr(engine, "_images", counting)
    monkeypatch.setattr(operators, "_images", counting)
    sys = make_sumset_system([0, 1])
    tabulate_f(sys, [(3,), (0,)], [], box=(2, 2))
    assert walks == [[(0,), (3,)]]
    walks.clear()
    check_system(sys, [(3,), (0,)], depth=4)
    assert walks == [[(0,)], [(3,)]]


def test_a_context_over_the_work_budget_runs_no_map_of_b():
    # a 3,321-word table whose B orbit in a six-shift context needs 470
    # million words: it used to walk them slice by slice for minutes
    def never(x):
        raise AssertionError("no map of the context may run")

    sys = make_sumset_system([0, 1])
    context = OperatorSystem(
        list(sys.maps) + [never] * 4, Partition([6]), sys.backend
    )
    with pytest.raises(InputError, match="470,155,077 words.*--box"):
        tabulate_f(sys, [(0,)], [(1,)], box=(40, 40), context_sys=context)
    # an empty B walks no context word at all
    table = tabulate_f(sys, [(0,)], [], box=(40, 40), context_sys=context)
    assert len(table.values) == 3321


def _counted_translation(v, calls):
    """The shift by ``v``, appending ``v`` to ``calls`` at each call."""
    shift = translation((v,))

    def phi(x):
        calls.append(v)
        return shift(x)

    return phi


def _six_shift_context(sys, shifts=None):
    """A context of the two-shift system ``sys``: one part of six maps, the
    last four the shifts by 2..5 unless ``shifts`` are given."""
    shifts = shifts or [translation((v,)) for v in range(2, 6)]
    return OperatorSystem(list(sys.maps) + shifts, Partition([6]), sys.backend)


def test_a_context_over_the_work_budget_is_refused_before_a_walks():
    # the context's words are counted before any map runs, A's included;
    # A's 3,321-word walk used to run first
    calls = []
    sys = OperatorSystem(
        [_counted_translation(v, calls) for v in (0, 1)],
        Partition([2]),
        TrivialBackend(1),
    )
    context = _six_shift_context(sys)
    with pytest.raises(InputError, match="470,155,077 words"):
        tabulate_f(sys, [(0,)], [(1,)], box=(40, 40), context_sys=context)
    assert calls == []


def test_a_context_solve_builds_only_the_lattice_of_a(monkeypatch):
    builds = []
    honest = operators._build_word_lattice

    def counting(part_sizes, cap):
        builds.append((part_sizes, cap))
        return honest(part_sizes, cap)

    monkeypatch.setattr(operators, "_build_word_lattice", counting)
    monkeypatch.setattr(engine, "_word_lattice", operators._LatticeCache(1000))
    sys = make_sumset_system([0, 1])
    context = _six_shift_context(sys)
    cfg = StabilizationConfig(box=(8, 8))
    result = analyze_graded(sys, [(0,)], [(1,)], cfg, context)
    assert (result.status, result.polynomial.pretty()) == ("certified", "1")
    # the context's (6,) under (16,) would be 74,613 words
    assert builds == [((2,), (16,))]


def test_a_six_shift_context_at_box_14_steps_b_by_part_degree():
    # B's word walk built and walked the context's 1,344,904 words under
    # part degree 28; stepping runs each extra shift once on each point of
    # each orbit it steps from, 5t + 1 points at degree t
    calls = []
    sys = make_sumset_system([0, 1])
    extra = [_counted_translation(v, calls) for v in range(2, 6)]
    context = _six_shift_context(sys, extra)
    cfg = StabilizationConfig(box=(14, 14))
    result = analyze_graded(sys, [(0,)], [(1,)], cfg, context)
    assert (result.status, result.polynomial.pretty()) == ("certified", "1")
    assert result.table.slice_cap == (28,)
    assert result.verification.window == ((1,), (3,))
    tabulated = sum(5 * t + 1 for t in range(28))  # degrees 0..27 step to 1..28
    verified = 1 + 6 + 11  # degrees 0..2 step to the window's 1..3
    assert len(calls) == 4 * (tabulated + verified)


def test_the_work_budget_refusal_of_a_context_names_it():
    sys = make_sumset_system([0, 1])
    context = _with_extra_translations(sys, [2])
    limit = "over the limit of 2,000,000"
    with pytest.raises(InputError) as primary:
        tabulate_f(sys, [(0,)], [(1,)], box=(2000, 2000), context_sys=context)
    assert str(primary.value) == (
        f"tabulating part degrees up to (4000,) needs 8,006,001 words, {limit}; "
        "use a smaller box (--box)"
    )
    with pytest.raises(InputError) as walked_in_context:
        tabulate_f(sys, [(0,)], [(1,)], box=(200, 200), context_sys=context)
    assert str(walked_in_context.value) == (
        f"tabulating part degrees up to (400,) needs 10,827,401 words, {limit}; "
        "B's orbits run in the context system with parts of sizes [3]; "
        "use a smaller box (--box)"
    )


def _context_variant(case):
    """A primary system, a context that breaks one rule, and its message."""
    sys = make_sumset_system([0, 1])
    if case == "backend":
        context = OperatorSystem(sys.maps, sys.partition, TrivialBackend(1))
        return sys, context, "context system must share the backend"
    if case == "parts":
        maps = list(sys.maps) + [translation((2,))]
        context = OperatorSystem(maps, Partition([2, 1]), sys.backend)
        return sys, context, "context system must use the same number of parts"
    maps = [translation((0,)), translation((1,))]  # equal maps, other objects
    context = OperatorSystem(maps, Partition([2]), sys.backend)
    return sys, context, (
        "part 1: context operators hold a map of the primary system "
        "fewer times than the primary does"
    )


@pytest.mark.parametrize("case", ["backend", "parts", "subtuple"])
def test_a_context_system_must_extend_the_primary(case):
    sys, context, message = _context_variant(case)
    with pytest.raises(InputError, match=f"^{message}$"):
        tabulate_f(sys, [(0,)], [(1,)], box=(2, 2), context_sys=context)
    with pytest.raises(InputError, match=f"^{message}$"):
        analyze_graded(sys, [(0,)], [(1,)], context_sys=context)
    # verification used to step B's orbits in such a context and report
    P = GrowthPolynomial({}, (0,), (0,))
    with pytest.raises(InputError, match=f"^{message}$"):
        verify_fit(P, sys, [(0,)], [(1,)], ((0,), (2,)), context)


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


def test_b_map_failure_during_tabulation_names_map_and_part_degree():
    # B's orbit steps by part degree, so its failure reads as verification's;
    # it used to name the context word B's walk was applying
    def shift(x):
        if x[0] >= 4:
            raise ValueError(f"no image of {x[0]}")
        return (x[0] + 1,)

    unit = translation((1,))
    primary = OperatorSystem([unit], Partition([1]), TrivialBackend(1))
    context = OperatorSystem([unit, shift], Partition([2]), primary.backend)
    with pytest.raises(OperatorError) as failed:
        tabulate_f(primary, [(0,)], [(1,)], box=(4,), context_sys=context)
    assert str(failed.value) == (
        "map 2 failed while reaching part degree (4,): no image of 4"
    )
    assert isinstance(failed.value.__cause__, ValueError)


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
    with pytest.raises(InputError, match="box must be natural numbers"):
        tabulate_f(sys, [(0,)], [], box=(-1, 3))
    with pytest.raises(InputError, match="box has 1 coordinates, system has 2"):
        tabulate_f(sys, [(0,)], [], box=(3,))
    assert tabulate_f(sys, [(0,)], [], box=(2, 2)).box == (2, 2)
    assert tabulate_f(sys, [(0,)], []).box == engine.default_box(2)
    # only integers proper: no truncated floats, strings or bools
    for box in [(1.9, 1.9), ("x", 1), (True, 1), 3]:
        with pytest.raises(InputError, match="box must be natural numbers"):
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
    budget = rf"{words:,} words.*{operators.MAX_WORDS:,}.*--box"
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


def test_from_function_refuses_a_value_that_is_not_an_integer():
    # int() used to turn 1.7 into 1 at every word
    for value in [1.7, Fraction(3, 2), True, "2"]:
        message = f"marginal rank at (0,) must be an integer, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            DecreasingTable.from_function(lambda u: value, (2,), Partition([1]))
    # the refusal names the word
    with pytest.raises(InputError, match=re.escape("at (1, 1) must be an integer")):
        DecreasingTable.from_function(
            lambda u: 1.0 if u == (1, 1) else 1, (2, 2), Partition([2])
        )


def test_a_table_refuses_values_that_are_not_exactly_int():
    # the constructor took 1.7 and gave corners ((0,), 1.7, 2.7)
    p = Partition([1])
    for values, word, value in [
        ({(0,): 1.7, (1,): 1.5, (2,): 1}, (0,), 1.7),
        ({(0,): 2, (1,): True, (2,): 1.5}, (1,), True),
        ({(0,): 2, (1,): 1, (2,): Fraction(1)}, (2,), Fraction(1)),
    ]:
        message = f"marginal rank at {word} must be an integer, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            DecreasingTable((2,), p, values)
    assert DecreasingTable((2,), p, {(0,): 2, (1,): 1, (2,): 1}).corners == [
        ((0,), 2, 3),
        ((1,), 1, 2),
    ]


def test_a_table_refuses_a_box_outside_the_naturals():
    # the constructor checks its own box, before it reads its slice cap
    for box in [(-1,), (1.5,), (True,), ("2",), (1, -1)]:
        with pytest.raises(InputError, match="box must be natural numbers"):
            DecreasingTable(box, Partition([1] * len(box)), {})
    # a box that is no sequence used to end in a TypeError
    with pytest.raises(InputError, match=r"^box must be natural numbers .*, got 3$"):
        DecreasingTable(3, Partition([1]), {})


def test_evaluate_refuses_a_point_of_the_wrong_length():
    sys = make_sumset_system([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    P = analyze_graded(sys, [(0, 0)]).polynomial
    assert P.pretty() == "Y1*Y2 + Y1 + Y2 + 1"
    assert P.evaluate((2, 3)) == 12
    # zip used to drop the missing coordinates: (2,) gave 6 and () gave 4
    for s in [(2,), (), (2, 3, 4)]:
        with pytest.raises(InputError, match=f"has {len(s)} coordinates, not 2$"):
            P.evaluate(s)


@st.composite
def lattice_shapes(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    k = len(sizes)
    # at most 3,375 words: fewer degrees as the parts grow in number
    cap = draw(st.lists(st.integers(0, 5 - k), min_size=k, max_size=k))
    return tuple(sizes), tuple(cap)


@given(lattice_shapes())
@example(((2, 1, 3), (2, 1, 2)))
@settings(max_examples=60, deadline=None)
def test_word_lattice_matches_the_recursive_reference(shape):
    sizes, cap = shape
    lattice = operators._build_word_lattice(sizes, cap)
    words, slices, top, up, down = reference_lattice(sizes, cap)
    assert lattice.words == words
    assert lattice.slices == slices
    assert list(lattice.top) == top
    assert [list(d) for d in lattice.down] == down
    # each word steps from the predecessor in its top coordinate
    assert all(lattice.down[top[n]][n] == up[n] for n in range(1, len(words)))


def test_lattice_cache_evicts_least_recent_within_its_word_budget():
    cache = operators._LatticeCache(budget=30)
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


def test_lattice_cache_keeps_its_newest_lattice_alone_over_its_budget():
    # a lattice over the budget used to be returned but not kept, so the
    # table that tabulated it built it again for its own checks
    cache = operators._LatticeCache(budget=30)
    cache((1,), (9,))
    big = cache((1,), (30,))  # 31 words: the others go, the newest stays
    assert big.words == [(c,) for c in range(31)]
    assert (list(cache.lattices), cache.words) == ([((1,), (30,))], 31)
    assert cache((1,), (30,)) is big
    cache((1,), (4,))  # the next build evicts it
    assert (list(cache.lattices), cache.words) == ([((1,), (4,))], 5)
    assert operators._word_lattice.budget == operators.LATTICE_CACHE_WORDS


def test_a_table_over_the_cache_budget_builds_its_lattice_once(monkeypatch):
    builds = []
    honest = operators._build_word_lattice

    def counting(part_sizes, cap):
        builds.append((part_sizes, cap))
        return honest(part_sizes, cap)

    monkeypatch.setattr(operators, "_build_word_lattice", counting)
    fresh = operators._LatticeCache(operators.LATTICE_CACHE_WORDS)
    monkeypatch.setattr(engine, "_word_lattice", fresh)
    # the 302,621 words under part degree 120 were built twice a solve
    sys = make_sumset_system([0, 1, 3])
    cfg = StabilizationConfig(box=(40, 40, 40))
    for built in [[((3,), (120,))], []]:  # the second solve builds nothing
        builds.clear()
        result = analyze_graded(sys, [(0,)], cfg=cfg)
        assert builds == built
        assert (result.status, result.polynomial.pretty()) == ("certified", "3*Y")
        assert len(result.table.values) == 302_621
    # a context builds no lattice, so A's is built once even when the
    # cache holds fewer words than the context's 35
    monkeypatch.setattr(engine, "_word_lattice", operators._LatticeCache(20))
    sys = make_sumset_system([0, 1])
    builds.clear()
    tabulate_f(sys, [(0,)], [(1,)], (2, 2), _with_extra_translations(sys, [2]))
    assert builds == [((2,), (4,))]


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
        DecreasingTable((1, 0), Partition([2]), values)


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
    table = DecreasingTable((1, 1), p, dict(lattice))
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
            DecreasingTable((1, 1), p, values)
    with pytest.raises(InputError, match=r"multi-index length 1 != m = 2"):
        DecreasingTable((1,), p, lattice)


def test_table_word_beyond_slice_cap_is_input_error():
    p = Partition([1])
    values = {(0,): 2, (1,): 1, (2,): 1}
    table = DecreasingTable((2,), p, values)
    assert (table.slice_cap, table.corners) == ((2,), [((0,), 2, 3), ((1,), 1, 2)])
    with pytest.raises(InputError, match=r"not the 2 words under slice cap \(1,\)"):
        DecreasingTable((1,), p, values)


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
    num = numerator_from_table(const, (0,))
    assert num.coeffs == {(0,): 3}

    stair = DecreasingTable.from_function(lambda u: max(0, 2 - u[0]), (6,), p1)
    num2 = numerator_from_table(stair, (2,))
    assert num2.coeffs == {(0,): 2, (1,): -1, (2,): -1}

    p11 = Partition([1, 1])
    point = DecreasingTable.from_function(
        lambda u: 1 if u == (0, 0) else 0, (4, 4), p11
    )
    num3 = numerator_from_table(point, (1, 1))
    assert num3.coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}


def test_numerator_substitution_collapses_parts():
    # indicator of the origin in two merged variables: (1 - Y)^2
    p = Partition([2])
    point = DecreasingTable.from_function(
        lambda u: 1 if u == (0, 0) else 0, (4, 4), p
    )
    num = numerator_from_table(point, (1, 1))
    assert num.coeffs == {(0,): 1, (1,): -2, (2,): 1}


def test_interpolate_examples():
    P = interpolate(GeneratingNumerator({(0,): 1}, (0,), (2,)))
    assert P.coeffs == {(1,): Fraction(1), (0,): Fraction(1)}
    P2 = interpolate(GeneratingNumerator({(0,): 3, (1,): -2}, (1,), (1,)))
    assert P2.coeffs == {(0,): Fraction(1)}
    P3 = interpolate(GeneratingNumerator({(0, 0): 1}, (0, 0), (1, 1)))
    assert P3.coeffs == {(0, 0): Fraction(1)}


def test_interpolate_leading_coefficient_identity():
    num = GeneratingNumerator({(0,): 2, (1,): 1, (2,): -1}, (2,), (3,))
    P = interpolate(num)
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
    num = numerator_from_table(table, cert.m_bar)
    P = interpolate(num)
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


def _result_values(result):
    """What a pipeline run concludes, for comparing two runs."""
    P = result.polynomial
    return (
        result.status, result.evidence, result.table.box, P, P.threshold,
        result.table.values, result.verification.points,
    )


def test_a_context_may_list_the_primary_maps_in_any_order():
    # B's orbit is a set of points, so the order of a part's maps cannot
    # change it; a reordered context used to be refused as no subtuple
    backend = TrivialBackend(1)
    f0, f1, f2 = translation((0,)), translation((1,)), translation((2,))
    phi = OperatorSystem([f0, f1], Partition([2]), backend)
    ordered = OperatorSystem([f0, f1, f2], Partition([3]), backend)
    reordered = OperatorSystem([f2, f1, f0], Partition([3]), backend)
    A, B = [(0,)], [(1,)]
    tables = [tabulate_f(phi, A, B, (4, 4), psi) for psi in (ordered, reordered)]
    assert tables[0].values == tables[1].values
    runs = [analyze_graded(phi, A, B, context_sys=psi) for psi in (ordered, reordered)]
    assert _result_values(runs[0]) == _result_values(runs[1])
    assert runs[0].status == "certified" and runs[0].polynomial.pretty() == "1"
    P, window = runs[0].polynomial, ((3,), (6,))
    reports = [verify_fit(P, phi, A, B, window, psi) for psi in (ordered, reordered)]
    assert reports[0].points == reports[1].points and reports[1].ok


def test_a_context_must_hold_each_primary_map_as_often_as_the_primary():
    backend = TrivialBackend(1)
    f0, f1 = translation((0,)), translation((1,))
    twice = OperatorSystem([f0, f0, f1], Partition([3]), backend)
    message = (
        "^part 1: context operators hold a map of the primary system "
        "fewer times than the primary does$"
    )
    refused = [
        OperatorSystem([f1, f0], Partition([2]), backend),  # f0 once
        OperatorSystem([f1, f0, translation((0,))], Partition([3]), backend),
    ]
    for context in refused:
        with pytest.raises(InputError, match=message):
            tabulate_f(twice, [(0,)], [(1,)], (2, 2, 2), context)
        with pytest.raises(InputError, match=message):
            analyze_graded(twice, [(0,)], [(1,)], context_sys=context)
    held = OperatorSystem([f1, f0, f0], Partition([3]), backend)
    result = analyze_graded(twice, [(0,)], [(1,)], context_sys=held)
    assert result.status == "certified"


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

    def drifted(numerator):
        P = honest(numerator)
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


def _falsely_declared_gadget():
    return make_counterexample_graph()[0].with_flags(["triangular"])


@st.composite
def _falsely_declared_gadgets(draw):
    edge = st.tuples(st.sampled_from("abc"), st.integers(0, 6))
    box = draw(st.one_of(st.none(), st.tuples(st.integers(0, 8))))
    B = draw(st.lists(edge, max_size=4))
    return _falsely_declared_gadget(), draw(edge), B, box


@given(_falsely_declared_gadgets())
# marginals alternate 0, 1, 0, 1, ...: a table with violations
@example(
    (_falsely_declared_gadget(), ("a", 0), [("b", 0), ("c", 0), ("c", 1), ("c", 3)], None)
)
@settings(max_examples=40, deadline=None)
def test_phi_closure_answers_on_a_falsely_declared_system(problem):
    # one seed makes every marginal 0 or 1, so an increase along the product
    # order starts at a zero, which has already answered member
    sys, a, B, box = problem
    dec = phi_closure_member(sys, a, B, StabilizationConfig(box=box))
    assert dec.decision in ("member", "non-member", "inconclusive")
    table = tabulate_f(sys, [a], B, box=box)
    if table.violations:
        assert dec.decision == "member"


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


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * k),
                st.integers(-3, 3).filter(bool),
                max_size=10,
            ),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_dominant_terms_are_the_permutation_definition(problem):
    k, coeffs = problem
    P = GrowthPolynomial(coeffs, (3,) * k, (0,) * k)
    assert dominant_terms(P) == permutation_dominant_terms(P.coeffs, k)


def test_dominant_terms_of_twelve_coordinates_return_at_once():
    # a search over the 12! = 479,001,600 coordinate orders takes minutes.
    # Each unit vector is largest at its own coordinate, but Y1*Y2 beats the
    # first two there and ties them everywhere else
    k = 12
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    coeffs = {e: i + 1 for i, e in enumerate(units)}
    coeffs[(0,) * k] = 5
    coeffs[(1, 1) + (0,) * (k - 2)] = -7
    P = GrowthPolynomial(coeffs, (1,) * k, (0,) * k)
    start = time.perf_counter()
    got = dominant_terms(P)
    assert time.perf_counter() - start < 1.0
    assert got == {((1, 1) + (0,) * (k - 2), -7)} | {
        (e, Fraction(i + 1)) for i, e in enumerate(units) if i >= 2
    }


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


def test_verification_over_the_work_budget_is_an_input_error(monkeypatch):
    # a window of 20000 used to verify 200 million words without end
    sys = make_sumset_system([0, 1])
    with pytest.raises(InputError, match="200,030,001 words.*--window"):
        analyze_graded(sys, [(0,)], [], StabilizationConfig(window=20000))
    # the budget counts the window's words exactly, part by part
    sys = make_sumset_system([0, 1], [0, 2, 5])
    P = GrowthPolynomial({(0, 0): Fraction(1)}, (0, 0), (0, 0))
    for lo, hi in [((1, 0), (2, 1)), ((0, 3), (2, 3)), ((2, 2), (4, 5))]:
        ranges = (range(a, b + 1) for a, b in zip(lo, hi))
        words = sum(
            sys.partition.word_count(s, s) for s in itertools.product(*ranges)
        )
        monkeypatch.setattr(operators, "MAX_WORDS", words)
        verify_fit(P, sys, [(0,)], [], (lo, hi))
        monkeypatch.setattr(operators, "MAX_WORDS", words - 1)
        with pytest.raises(InputError, match=f"needs {words:,} words"):
            verify_fit(P, sys, [(0,)], [], (lo, hi))
    # a negative window start used to walk a word down without end
    P = GrowthPolynomial({(0,): Fraction(1)}, (0,), (0,))
    with pytest.raises(InputError, match=r"window start must be a point of N\^1"):
        verify_fit(P, make_sumset_system([1]), [(0,)], [], ((-1,), (0,)))


_TWO = Partition([1, 1])


def _killing(x):
    sys, _ = make_ideal_system([(3, 1)], [2])
    return OperatorSystem(
        sys.maps, sys.partition, sys.backend, translations=sys.translations,
        killed=[x],
    )


def _verify_two(window):
    P = GrowthPolynomial({}, (1, 1), (0, 0))
    return verify_fit(P, make_sumset_system([0, 1], [0, 1]), [(0,)], [], window)


_POINT_ENTRIES = {
    "config box": lambda x: StabilizationConfig(box=x).resolved_box(2),
    "table box": lambda x: DecreasingTable(x, _TWO, {}),
    "function box": lambda x: DecreasingTable.from_function(lambda u: 1, x, _TWO),
    "window start": lambda x: _verify_two((x, (3, 3))),
    "window end": lambda x: _verify_two(((0, 0), x)),
    "staircase bound": lambda x: numerator_from_table(
        DecreasingTable.from_function(lambda u: 1, (2, 2), _TWO), x
    ),
    "part degree": lambda x: _TWO.words_of_part_degree(x),
    "killed point": _killing,
}


@pytest.mark.parametrize("entry", sorted(_POINT_ENTRIES))
@pytest.mark.parametrize(
    "point", [(1.5, 0), ("1", 0), (True, 0), (-1, 0), (1,), (1, 0, 0), 1]
)
def test_every_entry_refuses_a_point_outside_n2(entry, point):
    # verify_fit took (True, 0) and raised a TypeError on (1.5, 0) and
    # ("1", 0); numerator_from_table's int() read (1.7, 0), ("1", 0) and
    # (True, 0) as (1, 0) and gave (-1, 0) an empty numerator
    with pytest.raises(InputError):
        _POINT_ENTRIES[entry](point)


def test_a_list_is_a_point_of_n2_at_every_entry():
    assert StabilizationConfig(box=[2, 2]).resolved_box(2) == (2, 2)
    assert DecreasingTable.from_function(lambda u: 1, [2, 2], _TWO).box == (2, 2)
    table = DecreasingTable.from_function(lambda u: 1, (2, 2), _TWO)
    assert numerator_from_table(table, [0, 0]).coeffs == {(0, 0): 1}
    assert _TWO.words_of_part_degree([1, 0]) == [(1, 0)]
    assert _killing([3, 1]).killed == ((3, 1),)
    assert _verify_two(([0, 0], [1, 1])).window == ((0, 0), (1, 1))


def test_verify_fit_refuses_a_reversed_window():
    # the window (5,) to (3,) used to verify no point and report ok, even
    # for the wrong polynomial 7*Y
    P = GrowthPolynomial({(1,): Fraction(7)}, (1,), (0,))
    sys = make_sumset_system([0, 1])
    with pytest.raises(InputError) as refused:
        verify_fit(P, sys, [(0,)], [], ((5,), (3,)))
    assert str(refused.value) == "window end (3,) is below its start (5,)"
    report = verify_fit(P, sys, [(0,)], [], ((5,), (5,)))  # one point
    assert report.mismatches == [((5,), 6, 35)]
    # one coordinate below is enough
    with pytest.raises(InputError, match=re.escape("(2, 2) is below its start (1, 3)")):
        _verify_two(((1, 3), (2, 2)))


def test_verification_budget_counts_the_window_in_the_b_system(monkeypatch):
    # 15 words of degree 0..4 in the primary's two shifts, 35 in the
    # context's three; the context's were never counted
    sys = make_sumset_system([0, 1])
    context = _with_extra_translations(sys, [2])
    P = GrowthPolynomial({}, (0,), (0,))
    window = ((0,), (4,))
    monkeypatch.setattr(operators, "MAX_WORDS", 34)
    verify_fit(P, sys, [(0,)], [], window, context)
    with pytest.raises(InputError, match="needs 35 words.*--window"):
        verify_fit(P, sys, [(0,)], [(1,)], window, context)
    monkeypatch.setattr(operators, "MAX_WORDS", 35)
    verify_fit(P, sys, [(0,)], [(1,)], window, context)


def test_verification_counts_the_b_system_only_for_nonempty_seeds_of_b():
    # an empty iterator is truthy: it used to count the context's
    # 26,854,464 words and refuse a window of 3 points
    sys = make_sumset_system([0, 1])
    context = _six_shift_context(sys)
    P = GrowthPolynomial({}, (0,), (0,))
    window = ((60,), (62,))
    for B in ([], (), iter([])):
        report = verify_fit(P, sys, [(0,)], B, window, context)
        assert [s for s, _, _ in report.points] == [(60,), (61,), (62,)]
    with pytest.raises(InputError, match="needs 26,854,464 words"):
        verify_fit(P, sys, [(0,)], iter([(1,)]), window, context)


@st.composite
def orbit_problems(draw):
    """(system, A, B, window, context system or None) over sumsets, ideals
    with killed points, monomial modules and context systems."""
    kind = draw(st.sampled_from(["sumset", "ideal", "module", "context"]))
    context_sys = None
    if kind in ("sumset", "context"):
        dim = draw(st.integers(1, 2)) if kind == "sumset" else 1
        vector = st.tuples(*[st.integers(-2, 4)] * dim)
        summand = st.lists(vector, min_size=1, max_size=3, unique=True)
        sys = make_sumset_system(*draw(st.lists(summand, min_size=1, max_size=2)))
        point = st.tuples(*[st.integers(0, 5)] * dim)
        if kind == "context":
            extra = draw(st.lists(st.integers(-3, 3), min_size=sys.k, max_size=sys.k))
            context_sys = _with_extra_translations(sys, extra)
        A = draw(st.lists(point, max_size=3))
        B = draw(st.lists(point, min_size=kind == "context", max_size=2))
    else:
        sizes = draw(st.sampled_from([[1], [2], [1, 1], [1, 2], [3]]))
        point = st.tuples(*[st.integers(0, 3)] * sum(sizes))
        pts = set(draw(st.lists(point, max_size=3)))
        killed = [p for p in pts if not any(q != p and product_leq(q, p) for q in pts)]
        if kind == "ideal":
            sys, origin = make_ideal_system(killed, sizes)
            A = draw(st.lists(point, max_size=3)) or origin
            B = draw(st.lists(point, max_size=2))
        else:
            gens = draw(st.lists(point, min_size=1, max_size=4))
            sys, elems = make_monomial_module_system(sum(sizes), sizes, gens, killed)
            lb = sys.backend
            # a seed's terms joined with a multiple of the next seed's, so
            # that orbits hold vectors of several terms, not only monomials
            mix = [
                lb.vector(dict(x) | {k: c * draw(st.integers(-2, 2)) for k, c in y})
                for x, y in zip(elems, elems[1:])
            ]
            A = draw(st.lists(st.sampled_from(elems + mix), min_size=1, max_size=3))
            B = draw(st.lists(st.sampled_from(elems + mix), max_size=2))
    lo = tuple(draw(st.integers(0, 3)) for _ in range(sys.k))
    hi = tuple(a + draw(st.integers(0, 2)) for a in lo)
    return sys, A, B, (lo, hi), context_sys


def _context_window_example():
    sys, A, B, _, context_sys = _context_example()
    return sys, A, B, ((0,), (4,)), context_sys


@given(orbit_problems())
@example(_context_window_example())
@settings(max_examples=80, deadline=None)
def test_stepped_orbits_are_the_graded_orbits(problem):
    sys, A, B, (lo, hi), context_sys = problem
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    for system, seeds in ((sys, A), (context_sys or sys, B)):
        sorted_seeds = system.backend.sorted_elems(seeds)
        stepped = list(engine._stepped_orbits(system, sorted_seeds, lo, hi))
        assert [s for s, _ in stepped] == points
        for s, orbit in stepped:
            assert len(orbit) == len(set(orbit)), s
            assert set(orbit) == set(graded_orbit(system, seeds, s)), s
    # the report is the word-by-word one, for the pipeline's polynomial on
    # its window and for a guess on the drawn window
    zero = (0,) * sys.k
    fits = analyze_graded(sys, A, B, StabilizationConfig(box=(2,) * sys.m), context_sys)
    window = fits.verification.window
    assert (fits.verification.points, fits.verification.mismatches) == reference_verify(
        fits.polynomial, sys, A, B, window, context_sys
    )
    terms = {zero: Fraction(3, 2), (1,) + zero[1:]: 1}
    guess = GrowthPolynomial(terms, (1,) * sys.k, zero)
    report = verify_fit(guess, sys, A, B, (lo, hi), context_sys)
    assert report.window == (lo, hi)
    assert (report.points, report.mismatches) == reference_verify(
        guess, sys, A, B, (lo, hi), context_sys
    )


def test_stepped_orbits_of_no_seeds_run_nothing():
    # no seeds give an empty orbit at every part degree of the box, in
    # lex order from a start off the origin, with no map call
    calls = []

    def counted(x):
        calls.append(x)
        return x

    sys = OperatorSystem([counted] * 3, Partition([2, 1]), TrivialBackend(1))
    stepped = list(engine._stepped_orbits(sys, [], (2, 1), (3, 3)))
    points = list(itertools.product(range(2, 4), range(1, 4)))
    assert stepped == [(s, []) for s in points]
    assert calls == []


def test_verification_map_failure_names_map_and_part_degree():
    # the table stops at degree 3; the window reaches degree 5, whose
    # orbit needs the image of 4
    def shift(x):
        if x[0] >= 4:
            raise ValueError(f"no image of {x[0]}")
        return (x[0] + 1,)

    sys = OperatorSystem([shift], Partition([1]), TrivialBackend(1))
    cfg = StabilizationConfig(box=(3,), window=5)
    with pytest.raises(OperatorError) as failed:
        analyze_graded(sys, [(0,)], [], cfg)
    assert str(failed.value) == (
        "map 1 failed while reaching part degree (5,): no image of 4"
    )
    assert isinstance(failed.value.__cause__, ValueError)
    # B's orbit steps the same way, in the context system
    unit = translation((1,))
    primary = OperatorSystem([unit], Partition([1]), sys.backend)
    context = OperatorSystem([unit, shift], Partition([2]), sys.backend)
    P = GrowthPolynomial({}, (0,), (0,))
    with pytest.raises(OperatorError, match=r"^map 2 failed while reaching part "
                       r"degree \(4,\): no image of 4$"):
        verify_fit(P, primary, [(0,)], [(1,)], ((0,), (5,)), context)


def test_verification_refuses_an_orbit_only_noncommuting_maps_reach():
    # x -> 2x and x -> 2x + 1 write every binary string after the leading
    # 1: 2^t points at degree t, where commuting maps would give t + 1.
    # Tabulation applies the maps in one order and finds t + 1
    def double(x):
        return (2 * x[0],)

    def double_plus_one(x):
        return (2 * x[0] + 1,)

    sys = OperatorSystem([double, double_plus_one], Partition([2]), TrivialBackend(1))
    assert tabulate_f(sys, [(1,)], [], box=(8, 8)).graded_sum((5,)) == 6
    with pytest.raises(HypothesisError, match=r"part degree \(2,\) has 4 points, "
                       r"but commuting maps give at most 3") as refused:
        analyze_graded(sys, [(1,)], [])
    assert refused.value.witness == (2,)
    # the orbit is counted at every step, also below the window
    P = GrowthPolynomial({}, (1,), (0,))
    with pytest.raises(HypothesisError) as below:
        verify_fit(P, sys, [(1,)], [], ((5,), (6,)))
    assert below.value.witness == (2,)


@st.composite
def numerators(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    cap = tuple(draw(st.integers(0, 3)) for _ in sizes)
    exponent = st.tuples(*(st.integers(0, c) for c in cap))
    coeffs = draw(st.dictionaries(exponent, st.integers(-30, 30), max_size=6))
    return GeneratingNumerator(coeffs, cap, sizes)


def _points(k):
    return st.lists(st.tuples(*[st.integers(-12, 12)] * k), min_size=1, max_size=5)


@given(st.data(), numerators())
@settings(max_examples=150, deadline=None)
def test_integer_interpolation_is_the_fraction_one(data, num):
    P = interpolate(num)
    assert P.coeffs == reference_interpolate(num)
    assert all(type(c) is Fraction for c in P.coeffs.values())
    assert P.degree_bound == tuple(d - 1 for d in num.part_sizes)
    assert P.threshold == num.cap
    for s in data.draw(_points(P.k)):
        value = P.evaluate(s)
        assert type(value) is Fraction
        assert value == reference_evaluate(P.coeffs, s)


@given(st.data(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_integer_evaluation_is_the_fraction_one(data, k):
    bound = tuple(data.draw(st.integers(0, 3)) for _ in range(k))
    exponent = st.tuples(*(st.integers(0, b) for b in bound))
    coefficient = st.fractions(max_denominator=12).filter(lambda c: abs(c) < 50)
    coeffs = data.draw(st.dictionaries(exponent, coefficient, max_size=6))
    P = GrowthPolynomial(coeffs, bound, (0,) * k)
    for s in data.draw(_points(k)):
        assert P.evaluate(s) == reference_evaluate(coeffs, s)


def _flat_table():
    return DecreasingTable.from_function(lambda u: 1, (2,), Partition([1]))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: make_sumset_system(), "at least one summand set is required"),
        (
            lambda: make_monomial_module_system(3, [1, 1], [(0, 0, 0)]),
            "partition covers 2 maps but there are 3 variables",
        ),
        (lambda: GraphicBackend().validate(("0",)), "not an edge: ('0',)"),
        (lambda: SimplicialComplex([[0, 1], []]), "empty simplex"),
        (
            lambda: ChainFreeOracle(SimplicialComplex([[0, 1]]), 1).validate(
                ("s", (0, 2))
            ),
            "simplex (0, 2) is not in the complex",
        ),
        (
            lambda: CircuitBackend({}).validate((1,)),
            "expected a (degree, payload) element, got (1,)",
        ),
        (lambda: StabilizationConfig(window=0), "window width must be >= 1"),
        (
            lambda: numerator_from_table(_flat_table(), (1, 1)),
            "staircase bound must be a point of N^1 (integers >= 0), got (1, 1)",
        ),
        (
            lambda: numerator_from_table(_flat_table(), (3,)),
            "table does not cover (3,) required by the numerator",
        ),
        (
            lambda: GrowthPolynomial({(1, 0): 1}, (1,), (0,)),
            "exponent must be a point of N^1 (integers >= 0), got (1, 0)",
        ),
        (  # printed as "" and raised a TypeError in evaluate
            lambda: GrowthPolynomial({(-1,): 1}, (1,), (0,)),
            "exponent must be a point of N^1 (integers >= 0), got (-1,)",
        ),
        (
            lambda: GrowthPolynomial({(0.5,): 1}, (1,), (0,)),
            "exponent must be a point of N^1 (integers >= 0), got (0.5,)",
        ),
        (
            lambda: interpolate(GeneratingNumerator({(0,): 1}, (0,), (0,))),
            "part sizes must be positive integers, got (0,)",
        ),
        (  # int() used to read the size 1.5 as 1
            lambda: interpolate(GeneratingNumerator({(0,): 1}, (0,), (1.5,))),
            "part sizes must be positive integers, got (1.5,)",
        ),
        (  # Y^5/(1 - Y) is 0 below degree 5, yet gave 1 from threshold (0,)
            lambda: interpolate(GeneratingNumerator({(5,): 1}, (0,), (1,))),
            "numerator exponent (5,) exceeds cap (0,)",
        ),
        (  # zip dropped the second coordinate and gave Y + 1
            lambda: interpolate(GeneratingNumerator({(0, 0): 1}, (0,), (2,))),
            "numerator exponent must be a point of N^1 (integers >= 0), got (0, 0)",
        ),
        (  # became the threshold (0, 0) of a one-part polynomial
            lambda: interpolate(GeneratingNumerator({(0,): 1}, (0, 0), (1,))),
            "numerator cap must be a point of N^1 (integers >= 0), got (0, 0)",
        ),
        (  # raised a TypeError
            lambda: interpolate(GeneratingNumerator({(0,): 0.5}, (0,), (1,))),
            "numerator coefficient at (0,) must be an integer, got 0.5",
        ),
        (
            lambda: GrowthPolynomial({(2,): 1}, (1,), (0,)),
            "exponent (2,) exceeds degree bound (1,)",
        ),
        (  # became 3602879701896397/36028797018963968
            lambda: GrowthPolynomial({(0,): 0.1}, (0,), (0,)),
            "coefficient at (0,) must be an int or a Fraction, got 0.1",
        ),
        (  # was parsed as 1/3
            lambda: GrowthPolynomial({(0,): "1/3"}, (0,), (0,)),
            "coefficient at (0,) must be an int or a Fraction, got '1/3'",
        ),
        (  # became 1
            lambda: GrowthPolynomial({(0,): True}, (0,), (0,)),
            "coefficient at (0,) must be an int or a Fraction, got True",
        ),
        (
            lambda: GrowthPolynomial({}, (-1,), (0,)),
            "degree bound must be natural numbers (integers >= 0), got (-1,)",
        ),
        (  # made verify_fit's threshold check pass at every window
            lambda: GrowthPolynomial({}, (1,), ()),
            "threshold must be a point of N^1 (integers >= 0), got ()",
        ),
        (
            lambda: GrowthPolynomial({}, (1,), (-3,)),
            "threshold must be a point of N^1 (integers >= 0), got (-3,)",
        ),
        (
            lambda: GrowthPolynomial({}, (1,), (1.5,)),
            "threshold must be a point of N^1 (integers >= 0), got (1.5,)",
        ),
        (  # raised a TypeError
            lambda: GrowthPolynomial({(1,): 1}, (1,), (0,)).evaluate((1.5,)),
            "point (1.5,) must have integer coordinates",
        ),
        (  # read as 1
            lambda: GrowthPolynomial({(1,): 1}, (1,), (0,)).evaluate((True,)),
            "point (True,) must have integer coordinates",
        ),
        (  # raised a TypeError
            lambda: GrowthPolynomial({(1,): 1}, (1,), (0,)).evaluate(5),
            "point 5 must be a list or tuple of integers",
        ),
        (  # read as the point (3,)
            lambda: GrowthPolynomial({(1,): 1}, (1,), (0,)).evaluate(range(3, 4)),
            "point range(3, 4) must be a list or tuple of integers",
        ),
        (  # read its keys as the point (3,)
            lambda: GrowthPolynomial({(1,): 1}, (1,), (0,)).evaluate({3: 1}),
            "point {3: 1} must be a list or tuple of integers",
        ),
        (
            lambda: GrowthPolynomial({}, (1,), (0,)).subtract(
                GrowthPolynomial({}, (1, 1), (0, 0))
            ),
            "cannot combine polynomials of different arity",
        ),
        (
            lambda: verify_fit(
                GrowthPolynomial({}, (0,), (0,)), make_sumset_system([0, 1]),
                [(0,)], [], ((0, 0), (1, 1)),
            ),
            "window start must be a point of N^1 (integers >= 0), got (0, 0)",
        ),
        (  # raised an IndexError
            lambda: verify_fit(
                GrowthPolynomial({(0,): 1}, (1,), (0,)),
                make_sumset_system([0, 1], [0, 2]), [(0,)], [], ((2,), (3,)),
            ),
            "polynomial has k = 1 variables, system has k = 2 parts",
        ),
        (  # raised a ValueError
            lambda: verify_fit(
                GrowthPolynomial({}, (0, 0), (0, 0)), make_sumset_system([0, 1]),
                [(0,)], [], ((2, 2), (3, 3)),
            ),
            "polynomial has k = 2 variables, system has k = 1 parts",
        ),
        (  # raised a KeyError
            lambda: tabulate_f(
                make_sumset_system([0, 1]), [(0,)], [], box=(2, 2)
            ).graded_sum((9,)),
            "part degree (9,) is outside slice cap (4,)",
        ),
        (
            lambda: Partition([1]).words_of_part_degree((1, 1)),
            "part degree must be a point of N^1 (integers >= 0), got (1, 1)",
        ),
        (
            lambda: apply_word(make_sumset_system([1]), (0,), (1, 1)),
            "word must be a point of N^1 (integers >= 0), got (1, 1)",
        ),
        (
            lambda: check_system(make_sumset_system([1]), [(0,)], depth=0),
            "depth must be >= 1",
        ),
    ],
)
def test_each_malformed_argument_is_an_input_error_naming_it(call, message):
    with pytest.raises(InputError) as refused:
        call()
    assert str(refused.value) == message


_LINE = make_sumset_system([0, 1])
_SEED_ENTRIES = {
    "verify_fit": lambda x: verify_fit(
        GrowthPolynomial({}, (1,), (0,)), _LINE, [x], [], ((0,), (1,))
    ),
    "graded_orbit": lambda x: graded_orbit(_LINE, [x], (1,)),
    "tabulate_f": lambda x: tabulate_f(_LINE, [x], []),
    "check_system": lambda x: check_system(_LINE, [x]),
    "rank": lambda x: _LINE.backend.rank([x]),
    "relative_rank": lambda x: _LINE.backend.relative_rank([(0,)], [x]),
}


@pytest.mark.parametrize("entry", sorted(_SEED_ENTRIES))
@pytest.mark.parametrize("seed", [(0.5,), (0, 0), ("a",), None])
def test_every_entry_refuses_a_malformed_seed(entry, seed):
    # verify_fit and graded_orbit ran the maps on them unchecked: a report or
    # an orbit for (0.5,) and (0, 0), an OperatorError for ("a",) and None
    with pytest.raises(InputError, match="expected an integer vector of dimension 1"):
        _SEED_ENTRIES[entry](seed)


def test_an_analysis_reads_each_seed_argument_once():
    # the bound's reader used up an iterator A, so tabulation saw no seed
    # and certified 0; tabulation used up an iterator B, so verification saw
    # none and found 3 mismatches
    line = make_sumset_system([0, 1])
    result = analyze_graded(line, iter([(0,)]))
    assert (result.status, result.evidence, result.polynomial.pretty()) == (
        "certified", "bound", "Y + 1",
    )
    result = analyze_graded(line, [(0,)], iter([(0,)]))
    assert (result.status, result.polynomial.pretty()) == ("certified", "0")


_ITERABLE_FORMS = [
    list,
    tuple,
    iter,
    lambda seeds: (x for x in seeds),
    set,
    lambda seeds: dict.fromkeys(seeds).keys(),
]


@st.composite
def seeded_translation_systems(draw):
    """A small sumset or ideal-count system with seed lists A and B."""
    if draw(st.booleans()):
        summand = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        sys, point = make_sumset_system(summand), st.tuples(st.integers(-2, 2))
    else:
        m = draw(st.integers(1, 2))
        drawn = set(draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), max_size=2)))
        antichain = [
            r for r in drawn if not any(q != r and product_leq(q, r) for q in drawn)
        ]
        sys, _ = make_ideal_system(antichain, [m])
        point = st.tuples(*[st.integers(0, 2)] * m)
    A = draw(st.lists(point, min_size=1, max_size=3))
    B = draw(st.lists(point, max_size=2))
    return sys, A, B


@given(seeded_translation_systems())
@settings(max_examples=20, deadline=None)
def test_every_iterable_of_seeds_gives_the_list_result(problem):
    # each analysis reads A and B once, so a set, an iterator or a generator
    # is read as the list of the same seeds
    sys, A, B = problem
    graded = _result_values(analyze_graded(sys, A, B))
    cumulative = _result_values(analyze_cumulative(sys, A, B))
    closure = phi_closure_member(sys, A[0], B)
    for form in _ITERABLE_FORMS:
        assert _result_values(analyze_graded(sys, form(A), form(B))) == graded
        assert _result_values(analyze_cumulative(sys, form(A), form(B))) == cumulative
        assert phi_closure_member(sys, A[0], form(B)) == closure


def test_polynomial_evaluates_at_negative_integers():
    # only the threshold is a point of N^k: the polynomial itself is defined
    # on all of Z^k
    Q = GrowthPolynomial(
        {(0,): Fraction(2), (1,): Fraction(-1), (2,): Fraction(-1)}, (2,), (0,)
    )
    assert [Q.evaluate((t,)) for t in (-3, -1)] == [-4, 2]


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
