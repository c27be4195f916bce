"""Tabulation steps no pair from a dependent one in a translation system.

A (seed, word) pair that the builder rejects is in the span of what its
slice was fed before it.  Every map of a translation system preserves
spans and sends that earlier part of slice ``s`` into the earlier part of
slice ``s + e_part``, so each pair stepped from a rejected pair is
dependent too: the walk drops it, with no map call and no ``add``.  These
tests hold the dropping tables to the full walk of the reference kernel,
and pin where it applies: a system with ``translations`` over a backend
with ``points``, outside context mode.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankgrowth import (
    HypothesisError,
    OperatorError,
    OperatorSystem,
    Partition,
    augment,
    tabulate_f,
)
from rankgrowth.backends import (
    TrivialBackend,
    make_ideal_system,
    make_monomial_module_system,
    make_sumset_system,
    translation,
)
from rankgrowth.operators import product_leq
from oracles import reference_tabulate

MOST_WORDS = 1500  # keeps each drawn table, walked word by word, small


def _antichain(points):
    """The minimal points of ``points``."""
    return sorted(
        p for p in points if not any(q != p and product_leq(q, p) for q in points)
    )


@st.composite
def translation_problems(draw):
    """(system, A, B, box): a sumset with negative vectors, a lattice ideal
    with killed points or a monomial module over ``LinearBackend``, maybe
    augmented, at a box of at most 5 a coordinate and ``MOST_WORDS`` words."""
    kind = draw(st.sampled_from(["sumset", "ideal", "module"]))
    if kind == "sumset":
        summand = st.lists(st.integers(-3, 4), min_size=1, max_size=3, unique=True)
        sys = make_sumset_system(*draw(st.lists(summand, min_size=1, max_size=2)))
        point = st.tuples(st.integers(-4, 8))
        A = draw(st.lists(point, min_size=1, max_size=3))
        B = draw(st.lists(point, min_size=0, max_size=2))
    else:
        sizes = draw(st.sampled_from([[1], [2], [1, 1], [3], [1, 2]]))
        point = st.tuples(*[st.integers(0, 3)] * sum(sizes))
        killed = _antichain(set(draw(st.lists(point, min_size=1, max_size=3))))
        gens = draw(st.lists(point, min_size=1, max_size=3))
        gens_b = draw(st.lists(point, min_size=0, max_size=2))
        if kind == "ideal":
            sys, _ = make_ideal_system(killed, sizes)
            A, B = gens, gens_b
        else:
            sys, seeds = make_monomial_module_system(
                sum(sizes), sizes, gens + gens_b, killed
            )
            A, B = seeds[: len(gens)], seeds[len(gens) :]
            if draw(st.booleans()):  # a seed of two terms, one a fraction
                lb = sys.backend
                A.append(lb.vector([(gens[0], 1), (gens[-1], Fraction(-1, 2))]))
    if draw(st.booleans()):  # cumulative orbits
        sys = augment(sys)
    box = draw(st.lists(st.integers(0, 5), min_size=sys.m, max_size=sys.m))
    p = sys.partition
    while p.word_count((0,) * p.k, p.part_degree(box)) > MOST_WORDS:
        box[box.index(max(box))] -= 1
    return sys, A, B, tuple(box)


def _ideal_pair_example():
    # two seeds of one orbit and a B point above them: most pairs drop
    sys, _ = make_ideal_system([(3, 0, 0), (0, 2, 1)], [1, 2])
    return sys, [(0, 0, 0), (1, 0, 0)], [(0, 1, 0)], (4, 4, 4)


def _module_example():
    gens, relations = [(0, 0, 0), (1, 1, 0)], [(2, 2, 0)]
    sys, seeds = make_monomial_module_system(3, [1, 2], gens, relations)
    return augment(sys), seeds, [], (4, 3, 3, 2, 2)


@given(translation_problems())
@example(_ideal_pair_example())
@example((make_sumset_system([-2, 0, 3]), [(0,), (1,), (5,)], [(2,)], (5, 5, 5)))
@example(_module_example())
@settings(max_examples=60, deadline=None)
def test_dropping_tabulation_matches_the_full_reference_walk(problem):
    sys, A, B, box = problem
    table = tabulate_f(sys, A, B, box=box)
    values, violations, corners = reference_tabulate(sys, A, B, box)
    assert list(table.values.items()) == list(values.items())
    assert table.violations == violations
    assert table.corners == corners


def _counted_shift(calls):
    """The shift by 1, appending each point it is called on to ``calls``."""
    shift = translation((1,))

    def phi(x):
        calls.append(x)
        return shift(x)

    return phi


def _killed_line(calls, translations):
    """N with the points from 2 on killed, stepped by a counted shift."""
    return OperatorSystem(
        [_counted_shift(calls)],
        Partition([1]),
        TrivialBackend(1, [(2,)]),
        translations=translations,
    )


def test_an_ideal_killed_at_two_walks_two_words_of_ten():
    # the word 2 is killed, so the builder rejects it and the words 3..10,
    # each stepped from the one before, take no map call
    calls = []
    sys = _killed_line(calls, [[(1,)]])
    table = tabulate_f(sys, [(0,)], [], box=(10,))
    assert calls == [(0,), (1,)]
    ideal, origin = make_ideal_system([(2,)], [1])
    values, _, _ = reference_tabulate(ideal, origin, [], (10,))
    assert table.values == values == {(u,): int(u < 2) for u in range(11)}


@pytest.mark.parametrize("scope", ["no translations", "context mode"])
def test_outside_the_scope_every_pair_is_walked_in_order(scope):
    # without declared translations, or with B's orbits in a context, no
    # lemma covers the walk: every seed steps every nonzero word, word by
    # word with the seeds in order
    calls = []
    if scope == "no translations":
        sys, context = _killed_line(calls, None), None
    else:
        sys = _killed_line(calls, [[(1,)]])
        context = sys
    seeds = [(0,), (1,)]
    table = tabulate_f(sys, seeds, [], box=(10,), context_sys=context)
    assert calls == [(n - 1 + a,) for n in range(1, 11) for (a,) in seeds]
    assert table.values == {(0,): 2, (1,): 1, **{(u,): 0 for u in range(2, 11)}}


def _failing_a_and_noncommuting_b(fail_at):
    """A shift that raises at the point ``fail_at`` beside doubling.  From
    the seed 0 the shift reaches ``fail_at`` at part degree ``fail_at + 1``;
    B = {4} never reaches it, and has four points at part degree 2, where
    commuting maps give three."""

    def shift(x):
        if x[0] == fail_at:
            raise ValueError(f"no image of {x[0]}")
        return (x[0] + 1,)

    def double(x):
        return (2 * x[0],)

    return OperatorSystem([shift, double], Partition([2]), TrivialBackend(1))


@pytest.mark.parametrize(
    "fail_at, error, message",
    [
        (0, OperatorError, r"map 1 failed while applying word \(1, 0\)"),
        (1, OperatorError, r"map 1 failed while applying word \(2, 0\)"),
        (2, HypothesisError, r"the orbit at part degree \(2,\) has 4 points"),
    ],
)
def test_the_first_slice_to_fail_names_the_error(fail_at, error, message):
    # the walk steps A's slice at a part degree before B's orbit there,
    # and B's orbit before A's next slice; A's whole walk used to run
    # first, so its map failure won at every part degree
    sys = _failing_a_and_noncommuting_b(fail_at)
    with pytest.raises(error, match=message):
        tabulate_f(sys, [(0,)], [(4,)], box=(2, 2))
