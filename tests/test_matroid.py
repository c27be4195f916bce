"""Rank-oracle contract: derived operations and exact matroid axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankgrowth import (
    InputError,
    LinearBackend,
    RankOracle,
    TrivialBackend,
    check_rank_axioms,
)
from rankgrowth.backends import (
    ZERO_CHAIN,
    ChainFreeOracle,
    CircuitBackend,
    GraphicBackend,
    SimplicialComplex,
    make_graphic_system,
)
from rankgrowth.engine import analyze_graded

from oracles import (
    distinct_count,
    extend_basis,
    ideal_count,
    matrix_rank,
    nonzero_chain_count,
)


def test_rank_is_cardinality_on_trivial():
    backend = TrivialBackend(1)
    assert backend.rank([(7,), (9,), (7,)]) == 2
    assert backend.rank([]) == 0


def test_rank_linear_row_reduction():
    lb = LinearBackend()
    S = [lb.vector([(0, 1)]), lb.vector([(1, 1)]), lb.vector([(0, 1), (1, 1)])]
    assert lb.rank(S) == 2


def test_rank_graphic_triangle():
    gb = GraphicBackend()
    assert gb.rank([("a", "b"), ("b", "c"), ("a", "c")]) == 2


def test_rank_rejects_bad_element():
    backend = TrivialBackend(2)
    with pytest.raises(InputError):
        backend.validate((1,))
    with pytest.raises(InputError):
        TrivialBackend(2, []).validate((1, -1))
    # rank validates before it hashes, so a list is an input error
    with pytest.raises(InputError):
        TrivialBackend(2, []).rank([[0, 0]])
    with pytest.raises(InputError):
        ChainFreeOracle(SimplicialComplex([(0, 1)]), 1).rank([["s", (0, 1)]])
    # a canonical linear vector has nonzero int (not bool) or Fraction
    # coefficients and strictly increasing keys
    lb = LinearBackend()
    for bad in [
        ((0, Fraction(0)),),
        ((0, Fraction(1)), (0, Fraction(-1))),
        ((1, Fraction(1)), (0, Fraction(1))),
        ((0, Fraction(1)), ("x", Fraction(1))),
        ((0, 0),),
        ((0, True),),
    ]:
        with pytest.raises(InputError):
            lb.rank([bad])
    for good in [((0, 1),), ((0, Fraction(1)),), ((0, 1), (1, Fraction(1, 2)))]:
        assert lb.rank([good]) == 1


def test_an_oracle_must_implement_basis_builder():
    class RankOnly(RankOracle):
        def rank(self, elems):
            return len(set(elems))

    with pytest.raises(TypeError):
        RankOnly()


_TRIANGLE_AND_TAIL = SimplicialComplex([(0, 1, 2), (2, 3)])
_POINTS = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(
    pts=st.lists(_POINTS, max_size=8),
    cut=st.lists(_POINTS, max_size=3),
    chains=st.lists(
        st.sampled_from(
            [("s", e) for e in _TRIANGLE_AND_TAIL.of_dimension(1)] + [ZERO_CHAIN]
        ),
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_derived_rank_matches_set_count_references(pts, cut, chains):
    assert TrivialBackend(2).rank(pts) == distinct_count(pts)
    cut = set(cut)
    antichain = [
        p for p in cut if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in cut)
    ]
    ideal = TrivialBackend(2, antichain)
    assert ideal.rank(pts) == ideal_count(pts, antichain)
    free = ChainFreeOracle(_TRIANGLE_AND_TAIL, 1)
    assert free.rank(chains) == nonzero_chain_count(chains, ZERO_CHAIN)


def test_relative_rank_examples():
    backend = TrivialBackend(1)
    assert backend.relative_rank([(1,), (2,)], [(2,), (3,)]) == 1
    lb = LinearBackend()
    assert lb.relative_rank(
        [lb.vector([(0, 1), (1, 1)])], [lb.monomial(0), lb.monomial(1)]
    ) == 0
    assert backend.relative_rank([], [(9,)]) == 0


def test_relative_rank_validates_both_sets():
    # the first returned 1, the second raised a raw TypeError
    backend = TrivialBackend(1)
    with pytest.raises(InputError, match="dimension 1"):
        backend.relative_rank([(1, 2)], [])
    with pytest.raises(InputError, match="dimension 1"):
        backend.relative_rank([(1,)], [[5]])


def test_sorted_elems_refuses_an_element_that_does_not_hash_or_order():
    # a valid element is sorted and deduplicated as itself, so one that does
    # not hash or does not order is an input error naming it, not a raw
    # TypeError from the sort
    shift = make_graphic_system([{"0": "1", "1": "2", "2": "2"}], [1])
    with pytest.raises(InputError, match=r"element \('0', \['1'\]\) is not hashable"):
        analyze_graded(shift, [("0", ["1"])])
    circuits = CircuitBackend({(0,): [["x", "y"]]})
    with pytest.raises(InputError, match=r"element \(\[0\], 'x'\) is not hashable"):
        circuits.sorted_elems([([0], "x")])
    gb = GraphicBackend()
    with pytest.raises(
        InputError, match=r"elements \('0', '1', 2\) and \('0', '1', 'a'\) do not order"
    ):
        gb.sorted_elems([("0", "1", 2), ("0", "1"), ("0", "1", "a")])
    # rank never hashes or sorts an edge, so a tag may be anything
    assert gb.rank([("0", "1", ["t"]), ("1", "2", {})]) == 2
    assert gb.sorted_elems([("1", "2", 0), ("0", "1"), ("1", "2", 0)]) == [
        ("0", "1"), ("1", "2", 0)
    ]


def test_localize_identity_and_membership():
    # the rank localized at C is the relative rank over C
    backend = TrivialBackend(1)
    for S in ([], [(1,)], [(1,), (2,), (1,)]):
        assert backend.relative_rank(S, []) == backend.rank(S)
    assert backend.relative_rank([(5,), (6,)], [(5,)]) == 1


def test_localize_spanning_tree_kills_component_edges():
    gb = GraphicBackend()
    tree = [("a", "b"), ("b", "c")]
    assert gb.relative_rank([("a", "c")], tree) == 0
    assert gb.relative_rank([("x", "y")], tree) == 1


def test_relative_rank_matches_extend_basis_count():
    lb = LinearBackend()

    def rank(vectors):
        return matrix_rank([[dict(v).get(k, 0) for k in range(3)] for v in vectors])

    rng = random.Random(3)
    for _ in range(25):
        A = [
            lb.vector([(k, rng.randint(-2, 2)) for k in range(3)])
            for _ in range(rng.randint(0, 4))
        ]
        B = [
            lb.vector([(k, rng.randint(-2, 2)) for k in range(3)])
            for _ in range(rng.randint(0, 4))
        ]
        base = extend_basis(rank, [], B)
        grown = extend_basis(rank, base, A)
        assert lb.relative_rank(A, B) == len(grown) - len(base)


def _random_sets(pool, rng, count, size):
    return [
        [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, size))]
        for _ in range(count)
    ]


BACKEND_POOLS = {}


def _linear_pool():
    lb = LinearBackend()
    rng = random.Random(11)
    pool = [
        lb.vector([(k, rng.randint(-2, 2)) for k in rng.sample(range(4), 2)])
        for _ in range(20)
    ]
    return lb, [v for v in pool]


def _pools():
    rng = random.Random(5)
    trivial = TrivialBackend(2)
    yield trivial, [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(20)]
    ideal = TrivialBackend(2, [(3, 0), (0, 3)])
    yield ideal, [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(20)]
    yield _linear_pool()
    graphic = GraphicBackend()
    verts = "abcdef"
    yield graphic, [
        (verts[rng.randrange(6)], verts[rng.randrange(6)]) for _ in range(20)
    ]


@pytest.mark.parametrize("backend,pool", list(_pools()))
def test_axiom_sampling_per_backend(backend, pool):
    rng = random.Random(13)
    sets = _random_sets(pool, rng, 60, 5)
    assert check_rank_axioms(backend, sets, rng) == []


@pytest.mark.parametrize("backend,pool", list(_pools()))
def test_localized_rank_is_rank_over_c_per_backend(backend, pool):
    rng = random.Random(19)
    sets = _random_sets(pool, rng, 60, 4)
    for C, S in zip(sets[::2], sets[1::2]):
        want = backend.rank(C + S) - backend.rank(C)
        assert backend.relative_rank(S, C) == want


@given(
    vs=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=0, max_size=6
    )
)
@settings(max_examples=60, deadline=None)
def test_linear_rank_agrees_with_dense_elimination(vs):
    lb = LinearBackend()
    elems = [lb.vector(list(enumerate(row))) for row in vs]
    expect = matrix_rank([row for row in vs if any(row)]) if vs else 0
    assert lb.rank(elems) == expect


@given(
    S=st.lists(st.integers(0, 8), max_size=6),
    T=st.lists(st.integers(0, 8), max_size=6),
    x=st.integers(0, 8),
)
@settings(max_examples=100, deadline=None)
def test_trivial_axioms_exhaustive(S, T, x):
    backend = TrivialBackend(1)
    S = [(v,) for v in S]
    T = [(v,) for v in T]
    rS = backend.rank(S)
    assert backend.rank(S + [(x,)]) - rS in (0, 1)
    union = S + T
    inter = [e for e in S if e in set(T)]
    assert backend.rank(union) + backend.rank(inter) <= rS + backend.rank(T)


def test_exchange_pattern():
    # once an element is in the closure, adding anything keeps it there:
    # rank(B+a) = rank(B) forces rank(B+a+b) = rank(B+b)
    lb = LinearBackend()
    rng = random.Random(17)
    for _ in range(60):
        B = [
            lb.vector([(k, rng.randint(-2, 2)) for k in range(3)])
            for _ in range(rng.randint(0, 3))
        ]
        a = lb.vector([(k, rng.randint(-2, 2)) for k in range(3)])
        b = lb.vector([(k, rng.randint(-2, 2)) for k in range(3)])
        if lb.rank(B + [a]) == lb.rank(B):
            assert lb.rank(B + [a, b]) == lb.rank(B + [b])
