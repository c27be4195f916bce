"""Multi-index orders, orbits, augmentation, and the sampled system checks."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rankgrowth import (
    InputError,
    OperatorSystem,
    Partition,
    QUASI_TRIANGULAR,
    apply_word,
    augment,
    check_system,
    cumulative_orbit,
    graded_orbit,
)
from rankgrowth.operators import lex_key
from rankgrowth.backends import (
    TrivialBackend,
    make_counterexample_graph,
    make_sumset_system,
    translation,
)


def test_part_degree_examples():
    p = Partition([2, 1])
    assert p.part_degree((2, 0, 1)) == (2, 1)
    assert p.part_degree((0, 0, 0)) == (0, 0)
    assert Partition([2]).part_degree((4, 1)) == (5,)
    with pytest.raises(InputError):
        p.part_degree((1, 2))
    assert [p.part_of(i) for i in range(3)] == [0, 0, 1]
    assert [Partition([1, 3, 2]).part_of(i) for i in range(6)] == [0, 1, 1, 1, 2, 2]
    for slot in (-1, 3):
        with pytest.raises(InputError):
            p.part_of(slot)
    # [2.9] used to become [2]
    for sizes in ([2.9], [True], ["2"], [0], []):
        with pytest.raises(InputError, match="positive integers"):
            Partition(sizes)


def test_lex_compare_last_coordinate_rules():
    assert lex_key((1, 0)) < lex_key((0, 1))
    assert lex_key((0, 0)) == lex_key((0, 0))
    assert lex_key((5, 1)) < lex_key((0, 2))
    assert lex_key((0, 2)) > lex_key((5, 1))


@given(
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_lex_is_a_total_order(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert (lex_key(a) == lex_key(b)) == (a == b)
    if lex_key(a) <= lex_key(b) and lex_key(b) <= lex_key(c):
        assert lex_key(a) <= lex_key(c)
    # a is smaller iff it is smaller at the highest coordinate where they differ
    differ = [i for i in range(3) if a[i] != b[i]]
    if differ:
        assert (lex_key(a) < lex_key(b)) == (a[differ[-1]] < b[differ[-1]])


def test_apply_word_shift_maps():
    sys = OperatorSystem(
        [translation((1,)), translation((3,))], Partition([2]), TrivialBackend(1)
    )
    assert apply_word(sys, (0,), (2, 1)) == (5,)
    assert apply_word(sys, (0,), (0, 0)) == (0,)


def test_apply_word_multiplication_map():
    from rankgrowth.backends import make_polynomial_ring_system

    sys, seeds = make_polynomial_ring_system(1)
    lb = sys.backend
    assert apply_word(sys, seeds[0], (3,)) == lb.monomial((3,))


def test_apply_word_cache_path_independence():
    # the cached value at r + e_i is map i applied to the value at r
    sys = make_sumset_system([1, 3, 5])
    cache = {}
    rng = random.Random(2)
    for _ in range(40):
        r = tuple(rng.randint(0, 3) for _ in range(3))
        expect = (sum(c * v for c, v in zip(r, (1, 3, 5))),)
        assert apply_word(sys, (0,), r, cache) == expect
    for (seed, word), val in cache.items():
        for i in range(3):
            if word[i]:
                prev = word[:i] + (word[i] - 1,) + word[i + 1 :]
                if (seed, prev) in cache:
                    assert sys.maps[i](cache[(seed, prev)]) == val


def test_apply_word_random_descent_orders_agree():
    sys = make_sumset_system([(1, 0), (0, 1)], [(2, 2)])
    rng = random.Random(9)
    for _ in range(25):
        r = tuple(rng.randint(0, 4) for _ in range(3))
        via_engine = apply_word(sys, (0, 0), r)
        # manual application in a random interleaving
        steps = [i for i, c in enumerate(r) for _ in range(c)]
        rng.shuffle(steps)
        x = (0, 0)
        for i in steps:
            x = sys.maps[i](x)
        assert x == via_engine


def test_graded_orbit_examples():
    sys = make_sumset_system([0, 1])
    assert graded_orbit(sys, [(0,)], (0,)) == [(0,)]
    assert sorted(graded_orbit(sys, [(0,)], (2,))) == [(0,), (1,), (2,)]
    assert graded_orbit(sys, [], (3,)) == []


def test_graded_orbit_of_no_seeds_builds_no_words(monkeypatch):
    calls = []
    honest = Partition.words_of_part_degree

    def counting(self, s):
        calls.append(s)
        return honest(self, s)

    monkeypatch.setattr(Partition, "words_of_part_degree", counting)
    sys = make_sumset_system([0, 1])
    assert graded_orbit(sys, [], (3,)) == []
    assert calls == []
    assert graded_orbit(sys, [(0,)], (3,)) == [(0,), (1,), (2,), (3,)]
    assert calls == [(3,)]


def test_graded_orbit_monotone_in_seed():
    sys = make_sumset_system([0, 2], [1])
    small = set(graded_orbit(sys, [(0,)], (2, 1)))
    large = set(graded_orbit(sys, [(0,), (7,)], (2, 1)))
    assert small <= large


def test_graded_orbit_word_count_bound():
    sys = make_sumset_system([0, 1, 5])
    p = sys.partition
    for t in range(5):
        orbit = graded_orbit(sys, [(0,), (100,)], (t,))
        assert len(orbit) <= 2 * p.word_count((t,))


def test_cumulative_orbit_examples():
    sys = make_sumset_system([1])
    assert sorted(cumulative_orbit(sys, [(0,)], (3,))) == [(0,), (1,), (2,), (3,)]
    assert cumulative_orbit(sys, [(0,)], (0,)) == [(0,)]


def test_cumulative_is_union_of_graded():
    sys = make_sumset_system([0, 3], [1, 2])
    got = set(cumulative_orbit(sys, [(0,)], (2, 2)))
    expect = set()
    for s1 in range(3):
        for s2 in range(3):
            expect |= set(graded_orbit(sys, [(0,)], (s1, s2)))
    assert got == expect


def test_cumulative_equals_graded_of_augmented():
    sys = make_sumset_system([1, 4], [2])
    aug = augment(sys)
    for s in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        assert sorted(cumulative_orbit(sys, [(0,)], s)) == sorted(
            graded_orbit(aug, [(0,)], s)
        )


def test_augment_shapes_and_idempotence_of_effect():
    sys = make_sumset_system([5])
    aug = augment(sys)
    assert aug.partition.part_sizes == (2,)
    assert augment(aug).partition.part_sizes == (3,)
    assert aug.augmented


def test_augmented_is_read_from_the_maps():
    sys = make_sumset_system([1], [2])
    assert not sys.augmented
    aug = augment(sys)
    assert aug.augmented and aug.with_flags(["triangular"] * 2).augmented
    # identity first in each part, however the system was built
    built = OperatorSystem(aug.maps, aug.partition, aug.backend)
    assert built.augmented
    halves = OperatorSystem(aug.maps, Partition([1, 3]), aug.backend)
    assert not halves.augmented
    with pytest.raises(TypeError):
        OperatorSystem(sys.maps, sys.partition, sys.backend, augmented=True)


@st.composite
def sizes_and_degrees(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    degrees = draw(st.lists(st.integers(0, 5), min_size=len(sizes), max_size=len(sizes)))
    return sizes, tuple(degrees)


@given(sizes_and_degrees())
@example(([2, 1], (2, 1)))
@settings(max_examples=60, deadline=None)
def test_word_enumeration_is_lex_sorted(case):
    sizes, s = case
    p = Partition(sizes)
    words = p.words_of_part_degree(s)
    blocks = [
        [c for c in itertools.product(range(t + 1), repeat=d) if sum(c) == t]
        for t, d in zip(s, sizes)
    ]
    expect = sorted(
        (tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*blocks)),
        key=lambda w: tuple(reversed(w)),
    )
    assert words == expect
    assert len(words) == p.word_count(s)


def test_word_count_closed_forms():
    assert Partition([1]).word_count((9,)) == 1
    assert Partition([2]).word_count((3,)) == 4
    assert Partition([1, 1]).word_count((2, 3), "cumulative") == 12
    assert Partition([3]).word_count((4,)) == math.comb(6, 2)


def test_check_system_commuting_shifts_pass():
    sys = make_sumset_system([1, 3])
    rep = check_system(sys, [(0,)], depth=3)
    assert rep.commutation_ok
    assert rep.triangular_ok
    assert rep.supports_declaration(sys)


def test_check_system_counterexample():
    sys, seed = make_counterexample_graph()
    rep = check_system(sys, seed, depth=3)
    assert rep.commutation_ok
    assert not rep.parts_triangular[0]
    assert rep.parts_quasi_triangular[0]
    assert rep.supports_declaration(sys)
    assert not rep.supports_declaration(sys.with_flags(["triangular"]))
    assert rep.triangular_failures  # carries a concrete witness


def test_check_system_rejects_a_negative_pair_count():
    # it used to sample no pair and report the declaration supported
    sys = make_sumset_system([1, 3])
    with pytest.raises(InputError, match="pair_count"):
        check_system(sys, [(0,)], depth=3, pair_count=-1)
    assert check_system(sys, [(0,)], depth=3, pair_count=0).supports_declaration(sys)


def test_check_system_noncommuting():
    backend = TrivialBackend(1)

    def double(x):
        return (2 * x[0],)

    sys = OperatorSystem([translation((1,)), double], Partition([2]), backend)
    rep = check_system(sys, [(0,)], depth=3)
    assert not rep.commutation_ok


def test_flags_validation():
    backend = TrivialBackend(1)
    with pytest.raises(InputError):
        OperatorSystem([translation((1,))], Partition([1]), backend, ["wrong"])
    sys = OperatorSystem(
        [translation((1,))], Partition([1]), backend, [QUASI_TRIANGULAR]
    )
    assert not sys.declared("triangular")
    assert sys.declared(QUASI_TRIANGULAR)
