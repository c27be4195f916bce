"""Multi-index orders, orbits, augmentation, and the sampled system checks."""

import ast
import itertools
import math
import random
import re
import time
from collections import Counter
from pathlib import Path

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
    graded_orbit,
)
from rankgrowth import operators
from rankgrowth.errors import OperatorError, OutOfBoxError
from rankgrowth.operators import SystemCheckReport, lex_key
from rankgrowth.backends import (
    GraphicBackend,
    LinearBackend,
    TrivialBackend,
    make_counterexample_graph,
    make_sumset_system,
    make_translation_system,
    translation,
)

from oracles import (
    cumulative_orbit,
    reference_check_failures,
    reference_check_pairs,
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


def test_apply_word_refuses_a_word_outside_the_naturals():
    # each word used to walk down without end; no map may run
    ran = []

    def shift(x):
        ran.append(x)
        return (x[0] + 1,)

    sys = OperatorSystem([shift, shift], Partition([2]), TrivialBackend(1))
    for word in [(0, -1), (0, 1.5), (-1, 3), (0.5, 0), (2, float("inf"))]:
        message = f"word must be a point of N^2 (integers >= 0), got {word}"
        with pytest.raises(InputError, match=re.escape(message)):
            apply_word(sys, (0,), word)
    assert ran == []
    assert apply_word(sys, (0,), (2, 1)) == (3,)


def test_words_of_a_part_degree_outside_the_naturals_are_refused():
    # a part of size 1 used to give the word (-1,), whose walk never ended
    for sizes, s in [([1], (-1,)), ([2], (-1,)), ([1, 1], (2, 0.5))]:
        message = f"part degree must be a point of N^{len(s)} (integers >= 0), got {s}"
        with pytest.raises(InputError, match=re.escape(message)):
            Partition(sizes).words_of_part_degree(s)
    with pytest.raises(InputError, match=re.escape("N^1 (integers >= 0), got (-1,)")):
        graded_orbit(make_sumset_system([1]), [(0,)], (-1,))


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
        assert len(orbit) <= 2 * p.word_count((t,), (t,))


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
    assert len(words) == p.word_count(s, s)


def test_word_count_closed_forms():
    assert Partition([1]).word_count((9,), (9,)) == 1
    assert Partition([2]).word_count((3,), (3,)) == 4
    assert Partition([1, 1]).word_count((0, 0), (2, 3)) == 12
    assert Partition([3]).word_count((4,), (4,)) == math.comb(6, 2)
    # between two part degrees: the sum of the graded counts, 0 when empty
    p = Partition([1, 2])
    graded = [p.word_count(s, s) for s in itertools.product(range(1, 4), range(2, 5))]
    assert p.word_count((1, 2), (3, 4)) == sum(graded)
    assert p.word_count((2, 2), (1, 4)) == 0


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


def test_check_system_validates_its_sample_before_keying_it():
    # the plane's translations cut the one-coordinate seed (0,) to a wrong
    # point, and the check reported the declaration supported
    sys = make_translation_system([[(1, 0), (0, 1)]])
    message = "expected an integer vector of dimension 2, got (0,)"
    for pair_count in (0, 40):  # with pairs it failed later, in relative_rank
        with pytest.raises(InputError, match=re.escape(message)):
            check_system(sys, [(0,)], depth=3, pair_count=pair_count)
    assert check_system(sys, [(0, 0)], depth=3, pair_count=0).supports_declaration(sys)
    # a one-pass sample is read once for validation and once for the walk
    swap = OperatorSystem(
        [translation((1, 0)), lambda x: (x[1], x[0])], Partition([2]), TrivialBackend(2)
    )
    report = check_system(swap, iter([(0, 1)]), depth=3, pair_count=0)
    assert report.commutation_failures


@pytest.mark.parametrize(
    "name,value",
    [
        ("depth", 2.5),  # used to end in a TypeError
        ("depth", True),  # used to run as depth 1
        ("depth", "3"),
        ("pair_count", 1.5),
        ("pair_count", False),  # used to run as 0 pairs
        ("pair_count", None),
    ],
)
def test_check_system_takes_only_integer_counts(name, value):
    with pytest.raises(InputError) as refused:
        check_system(make_sumset_system([1]), [(0,)], **{name: value})
    assert str(refused.value) == f"{name} must be an integer, got {value!r}"


def test_check_system_depth_is_within_the_work_budget(monkeypatch):
    # depth 100 over four shifts used to walk 4,249,575 words in 44 s
    def never(x):
        raise AssertionError("no map may run")

    sys = OperatorSystem([never] * 4, Partition([4]), TrivialBackend(1))
    with pytest.raises(InputError, match=r"depth 100 needs 4,249,575 words.*depth"):
        check_system(sys, [(0,)], depth=100)
    # seeds times words, the words of degree 0 .. depth - 2
    words = 2 * math.comb(8 + 4, 4)
    monkeypatch.setattr(operators, "MAX_WORDS", words - 1)
    with pytest.raises(InputError, match=f"depth 10 needs {words:,} words"):
        check_system(sys, [(0,), (1,)], depth=10)
    monkeypatch.setattr(operators, "MAX_WORDS", words)
    shifts = make_sumset_system([1, 2, 3, 4])
    # six pairs make at most 900 map calls, within the 990 as well
    assert check_system(shifts, [(0,), (1,)], depth=10, pair_count=6).commutation_ok


def test_check_system_seed_sample_is_within_the_work_budget(monkeypatch):
    # 100 million pairs over four shifts used to run for about eight hours
    def never(x):
        raise AssertionError("no map may run")

    sys = OperatorSystem([never] * 4, Partition([4]), TrivialBackend(1))
    with pytest.raises(InputError) as refused:
        check_system(sys, [(0,)], pair_count=100_000_000)
    assert str(refused.value) == (
        "testing 100,000,000 sampled pairs needs 2,400,000,000 words, over the "
        "limit of 2,000,000; a map call counts as a word; use a smaller "
        "seed_sample (--seed-sample)"
    )
    # each of the m = 4 maps runs once on each of a pair's 3 + 3 elements
    bound = 40 * 6 * 4
    calls = []

    def counted(step):
        def shift(x):
            calls.append(x)
            return step(x)

        return shift

    shifts = OperatorSystem(
        [counted(translation((v,))) for v in (1, 2, 3, 4)],
        Partition([4]),
        TrivialBackend(1),
    )
    monkeypatch.setattr(operators, "MAX_WORDS", bound - 1)
    with pytest.raises(InputError, match="^testing 40 sampled pairs needs 960 words"):
        check_system(shifts, [(0,)])
    assert calls == []
    monkeypatch.setattr(operators, "MAX_WORDS", bound)
    check_system(shifts, [(0,)], pair_count=0)
    unpaired = len(calls)
    assert check_system(shifts, [(0,)]).supports_declaration(shifts)
    assert 0 < len(calls) - 2 * unpaired <= bound


def test_check_system_commutation_calls_are_within_the_work_budget():
    # forty unit translations at depth 4 reach 861 points, where the maps'
    # 2 m (m - 1) calls a point came to 2,686,320 and took 6.3 s
    units = [tuple(int(i == j) for j in range(40)) for i in range(40)]
    start = time.perf_counter()
    with pytest.raises(InputError) as refused:
        check_system(make_translation_system([units]), [(0,) * 40], depth=4)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        "checking commutation at 861 orbit points to depth 4 needs 2,686,320 "
        "words, over the limit of 2,000,000; a map call counts as a word; use "
        "a smaller depth"
    )
    # the distinct points count, not seeds times words: forty translations
    # of Z^1 meet in 81 points, so 252,720 calls
    shifts = make_translation_system([[(v,) for v in range(1, 41)]])
    assert check_system(shifts, [(0,)], depth=4).commutation_ok


def test_check_system_skips_a_sampled_point_a_map_cannot_take():
    # the gadget graph of depth 2 has no shift of ('a', 2), which the
    # depth-3 graph maps to the triangularity failure below; the same
    # pairs are drawn from both, and the unmappable one is skipped
    big, seed = make_counterexample_graph(3)
    small, _ = make_counterexample_graph(2)
    with pytest.raises(OutOfBoxError):
        small.maps[0](("a", 2))
    assert check_system(big, seed, depth=4).triangular_failures == [
        "part 1: map 1 gives rank 3 > 2 on A=[('b', 0), ('a', 0), ('c', 0)], "
        "B=[('a', 2)]"
    ]
    report = check_system(small, seed, depth=4)
    assert report == SystemCheckReport(
        parts_triangular=(True,), parts_quasi_triangular=(True,)
    )


def test_check_system_skips_words_and_commutations_a_map_cannot_take():
    def nowhere(x):
        raise ValueError(f"no image of {x}")

    def double(x):
        return (2 * x[0],)

    sys = OperatorSystem(
        [translation((1,)), double, nowhere], Partition([2, 1]), TrivialBackend(1)
    )
    with pytest.raises(OperatorError, match="map 3 failed"):
        apply_word(sys, (1,), (0, 0, 1))
    report = check_system(sys, [(1,)], depth=4)
    # the walk goes on past the failing word (0, 0, 1) to the points 3 and 4
    # of degree 2; map 3 takes no point, so its commutations are skipped
    assert report.commutation_failures == [
        f"maps 1 and 2 disagree at ({x},): ({2 * x + 1},) vs ({2 * x + 2},)"
        for x in (1, 2, 3, 4)
    ]


def _fragile(calls, limit):
    """The map x -> 2x + 1, which raises from x = limit on; each call is
    recorded."""

    def fragile(x):
        calls.append(("fragile", x[0]))
        if x[0] >= limit:
            raise ValueError(f"no image of {x[0]}")
        return (2 * x[0] + 1,)

    return fragile


def test_check_system_walks_each_seed_and_word_once(monkeypatch):
    calls, walked = [], []

    def shift(x):
        calls.append(("shift", x[0]))
        return (x[0] + 1,)

    sys = OperatorSystem(
        [shift, _fragile(calls, 2)], Partition([1, 1]), TrivialBackend(1)
    )
    honest = sys.backend.dedupe

    def counting(elems):  # the calls made by the time each dedupe is done
        out = honest(elems)
        walked.append(list(calls))
        return out

    monkeypatch.setattr(sys.backend, "dedupe", counting)
    check_system(sys, [(2,), (0,)], depth=4)
    # the seeds are deduped before any map runs, then the walk's images as
    # they are made: the words (1, 0), (0, 1), (2, 0), (1, 1), (0, 2) in
    # lattice order, each from its predecessor; from the seed 2, (0, 1) and
    # (1, 1) raise, and (0, 2) steps from the skipped (0, 1), so no map runs
    assert walked == [[], [
        ("shift", 0), ("fragile", 0), ("shift", 1), ("fragile", 1), ("fragile", 1),
        ("shift", 2), ("fragile", 2), ("shift", 3), ("fragile", 3),
    ]]
    # commuting shifts: one call per seed and nonzero word
    counted = []

    def unit(v):
        step = translation(v)
        return lambda x: counted.append(x) or step(x)

    sys = OperatorSystem(
        [unit((1,)), unit((10,)), unit((100,))], Partition([3]), TrivialBackend(1)
    )
    check_system(sys, [(0,), (1000,)], depth=5, pair_count=0)
    words = Partition([3]).word_count((0,), (3,))  # degrees 0..3 in 3 slots
    points = 2 * words  # every image is distinct
    assert len(counted) == 2 * (words - 1) + points * 2 * 3 * 2


@settings(max_examples=60, deadline=None)
@given(
    affine=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=3
    ),
    fragile=st.tuples(st.integers(0, 2), st.integers(2, 4), st.integers(0, 3)),
    seeds=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    depth=st.integers(1, 5),
)
def test_check_system_orbit_is_apply_word_skipping_what_raises(
    affine, fragile, seeds, depth
):
    # the orbit check mode dedupes is, in order, each sorted seed's images
    # under apply_word at the words of degree below depth - 1 (at least the
    # zero word), less those whose word raised
    def step(a, b):
        return lambda x: (a * x[0] + b,)

    slot, modulus, residue = fragile
    maps = [step(a, b) for a, b in affine]
    slot %= len(maps)
    plain = maps[slot]

    def raising(x):
        if x[0] % modulus == residue:
            raise ValueError(f"no image of {x[0]}")
        return plain(x)

    maps[slot] = raising
    m = len(maps)
    sys = OperatorSystem(maps, Partition([m]), TrivialBackend(1))
    honest = sys.backend.dedupe
    deduped = []

    def capturing(elems):
        out = honest(elems)
        deduped.append(out)
        return out

    sys.backend.dedupe = capturing
    check_system(sys, [(a,) for a in seeds], depth=depth, pair_count=0)
    expected = []
    for a in sorted({(a,) for a in seeds}):
        for t in range(max(1, depth - 1)):
            for r in Partition((m,)).words_of_part_degree((t,)):
                try:
                    expected.append(apply_word(sys, a, r))
                except OperatorError:
                    continue
    assert deduped[1:] == [honest(expected)]


def test_check_system_skips_a_map_that_raises_on_part_of_the_orbit():
    # the report of the walk that retried each failing chain through
    # apply_word's memo, hard-coded
    sys = OperatorSystem(
        [translation((1,)), _fragile([], 5), translation((3,))],
        Partition([2, 1]),
        TrivialBackend(1),
    )
    report = check_system(sys, [(0,), (1,)], depth=6, pair_count=6)
    assert report == SystemCheckReport(
        commutation_failures=[
            "maps 1 and 2 disagree at (0,): (2,) vs (3,)",
            "maps 2 and 3 disagree at (0,): (7,) vs (4,)",
            "maps 1 and 2 disagree at (1,): (4,) vs (5,)",
            "maps 2 and 3 disagree at (1,): (9,) vs (6,)",
            "maps 1 and 2 disagree at (3,): (8,) vs (9,)",
            "maps 1 and 2 disagree at (2,): (6,) vs (7,)",
        ],
        parts_triangular=(True, True),
        parts_quasi_triangular=(True, True),
    )


@st.composite
def checked_systems(draw):
    """A system for check mode and its sample: sumsets; lookup tables on a
    graph's edges or on a linear space's basis keys, partial, so that some
    parts fail and some points have no image; the counterexample gadget;
    or a map that raises on part of the orbit (``_fragile``)."""
    kind = draw(st.sampled_from(["sumset", "graphic", "linear", "gadget", "fragile"]))
    sizes = draw(st.sampled_from([[1], [2], [1, 1], [3], [1, 2]]))
    m = sum(sizes)
    if kind == "sumset":
        sys = make_translation_system(
            [[(draw(st.integers(0, 4)),) for _ in range(d)] for d in sizes]
        )
        sample = [(a,) for a in draw(st.lists(st.integers(0, 6), max_size=3))]
    elif kind == "graphic":
        edges = list(itertools.combinations(range(4), 2))
        image = st.sampled_from(edges)
        table = st.dictionaries(image, image, min_size=len(edges) - 1)
        maps = [draw(table).__getitem__ for _ in range(m)]
        sys = OperatorSystem(maps, Partition(sizes), GraphicBackend())
        sample = draw(st.lists(image, max_size=4))
    elif kind == "linear":  # a table on vectors, so not a linear map
        backend = LinearBackend()
        vectors = [
            backend.vector(enumerate(c))
            for c in itertools.product((0, 1), repeat=3)
        ]
        image = st.sampled_from(vectors)
        table = st.dictionaries(image, image, min_size=len(vectors) - 1)
        maps = [draw(table).__getitem__ for _ in range(m)]
        sys = OperatorSystem(maps, Partition(sizes), backend)
        sample = draw(st.lists(image, max_size=4))
    elif kind == "gadget":
        sys, sample = make_counterexample_graph(draw(st.integers(1, 4)))
    else:
        limit = draw(st.integers(0, 6))
        sys = OperatorSystem(
            [translation((1,)), _fragile([], limit), translation((3,))],
            Partition(draw(st.sampled_from([[3], [2, 1], [1, 2]]))),
            TrivialBackend(1),
        )
        sample = [(a,) for a in draw(st.lists(st.integers(0, 6), max_size=3))]
    return sys, sample, draw(st.integers(1, 5)), draw(st.integers(0, 30))


@settings(max_examples=150, deadline=None)
@given(checked_systems())
@example((make_counterexample_graph(3)[0], [("a", 0), ("b", 0), ("c", 0)], 4, 40))
def test_check_system_reports_what_each_map_tested_alone_reports(problem):
    # one pass per pair and part gives the failures that testing each map
    # from scratch, with and without the identity, gives
    sys, sample, depth, pair_count = problem
    report = check_system(sys, sample, depth, pair_count)
    assert (
        report.triangular_failures,
        report.quasi_failures,
        report.parts_triangular,
        report.parts_quasi_triangular,
    ) == reference_check_failures(sys, sample, depth, pair_count)


def test_check_system_runs_each_map_once_on_each_element_of_a_pair():
    # a part of L maps used to run them L (L + 1) / 2 + (L + 1) (L + 2) / 2
    # times on each element: 16 with three maps
    calls = Counter()

    def counted(i, v):
        step = translation((v,))

        def shift(x):
            calls[i, x] += 1
            return step(x)

        return shift

    sizes = [3, 1]
    maps = [counted(i, v) for i, v in enumerate((1, 2, 5, 7))]
    sys = OperatorSystem(maps, Partition(sizes), TrivialBackend(1))
    seeds = [(0,), (4,)]
    check_system(sys, seeds, depth=4, pair_count=0)
    unpaired = Counter(calls)
    calls.clear()
    assert check_system(sys, seeds, depth=4).supports_declaration(sys)
    paired = calls - unpaired
    _, pairs = reference_check_pairs(sys, seeds, depth=4)
    held = Counter(x for A, B in pairs for x in A + B)
    # every map runs once on each element of each pair, and no more
    assert paired == Counter({(i, x): n for i in range(4) for x, n in held.items()})
    assert sum(paired.values()) <= 40 * 6 * sys.m


def test_the_walk_releases_each_slice_once_no_later_slice_reads_it():
    # degrees_below varies the first part slowest, so slice s is last read by
    # s + e_0, stride slices on; the walk used to hold every slice's images
    calls = []

    def counted(i, v):
        step = translation((v,))
        return lambda x: calls.append((i, x)) or step(x)

    sys = OperatorSystem(
        [counted(i, v) for i, v in enumerate((1, 10, 100))],
        Partition([1, 2]),
        TrivialBackend(1),
    )
    lattice = operators._word_lattice((1, 2), (3, 2))
    stride = 3  # the second part's degrees 0..2
    seeds = [(0,), (1000,)]
    yielded = operators._images(sys.maps, seeds, lattice)
    for q, (start, stop, images) in enumerate(yielded):
        assert (start, stop) == lattice.slices[q][1:]
        for p, (_, lo, hi) in enumerate(lattice.slices[: q + 1]):
            for a, img in zip(seeds, images):
                if p <= q - stride:
                    assert img[lo:hi] == [operators._SKIPPED] * (hi - lo)
                else:
                    words = lattice.words[lo:hi]
                    assert img[lo:hi] == [apply_word(sys, a, w) for w in words]
    # the same map calls in the same order: word by word, seeds in order, each
    # word's map on its tree parent's image
    expected = []
    for n in range(1, len(lattice.words)):
        i = lattice.top[n]
        parent = lattice.words[lattice.down[i][n]]
        expected += [(i, apply_word(sys, a, parent)) for a in seeds]
    calls.clear()
    list(operators._images(sys.maps, seeds, lattice))
    assert calls == expected


def test_check_system_of_an_empty_sample_draws_no_pair(monkeypatch):
    def never(x):
        raise AssertionError("no map may run")

    sys = OperatorSystem([never] * 2, Partition([1, 1]), TrivialBackend(1))
    ranked = []
    monkeypatch.setattr(sys.backend, "relative_rank", lambda A, B: ranked.append(B))
    report = check_system(sys, [], depth=3)
    assert report == SystemCheckReport(
        parts_triangular=(True, True), parts_quasi_triangular=(True, True)
    )
    assert ranked == []
    # no seeds walk no word, so no lattice is built, even one over the budget
    words = Partition([2]).word_count((0,), (2_000,))
    assert words > operators.MAX_WORDS
    assert check_system(sys, [], depth=2_002) == report


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


def test_operators_imports_nothing_from_the_engine():
    # check mode reached the word lattice through a lazy import of the engine
    tree = ast.parse(Path(operators.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    assert "InputError" in names  # the walk sees the module's own imports
    assert [n for n in names if "engine" in n.split(".")] == []
