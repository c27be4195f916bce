"""Backend behavior: each rank structure against an independent oracle."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankgrowth import (
    InputError,
    InvalidMatroidError,
    OperatorError,
    OperatorSystem,
    OutOfBoxError,
    Partition,
    SimplicialComplex,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    betti_polynomials,
    check_system,
    graded_orbit,
    tabulate_f,
)
from rankgrowth.backends import (
    IMAGE_CACHE_SIZE,
    ChainBoundaryOracle,
    ChainFreeOracle,
    CircuitBackend,
    CounterexampleGraphicBackend,
    GraphicBackend,
    LinearBackend,
    TrivialBackend,
    ZERO_CHAIN,
    _EchelonBuilder,
    _image,
    linear_operator,
    make_circuit_backend,
    make_counterexample_graph,
    make_graphic_system,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    make_translation_system,
    simplicial_operator,
    validate_simplicial,
    vertex_map_edge_operator,
)

from oracles import (
    FractionEchelonBuilder,
    forest_rank,
    fraction_linear_operator,
    ideal_count,
    ideal_points_of_degree,
    matrix_rank,
    subcomplex_betti,
)


# ---------------------------------------------------------------------------
# trivial and sumset
# ---------------------------------------------------------------------------

def test_sumset_system_shapes():
    sys = make_sumset_system([0, 1, 3], [5])
    assert sys.partition.part_sizes == (3, 1)
    assert sys.backend.dimension == 1


def test_sumset_dimension_mismatch():
    with pytest.raises(InputError):
        make_sumset_system([(0, 0)], [3])
    with pytest.raises(InputError):
        make_sumset_system([])


def test_sumset_polynomial_small():
    sys = make_sumset_system([0, 1])
    P = analyze_graded(sys, [(0,)]).polynomial
    assert [P.evaluate((t,)) for t in range(4)] == [1, 2, 3, 4]


def test_a_vector_that_is_no_sequence_is_an_input_error():
    # each used to raise a raw TypeError from tuple(x)
    calls = [
        lambda: make_sumset_system([0.5]),
        lambda: make_ideal_system([1.5], [1]),
        lambda: make_monomial_module_system(1, [1], [None]),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_backend_dimensions_must_be_positive_integers():
    # TrivialBackend(1.5) used to construct, TrivialBackend("2") to raise TypeError
    for bad in (1.5, "2", True, 0):
        for killed in (None, [], [(1,)]):
            with pytest.raises(InputError, match="dimension must be an integer"):
                TrivialBackend(bad, killed)


def test_trivial_backend_refuses_bool_coordinates():
    with pytest.raises(InputError, match="integer vector"):
        analyze_graded(make_sumset_system([0, 1]), [(True,)], [])
    with pytest.raises(InputError, match="integer vector"):
        TrivialBackend(2).validate((0, False))


# ---------------------------------------------------------------------------
# ideal counting
# ---------------------------------------------------------------------------

def test_ideal_backend_membership():
    backend = TrivialBackend(2, [(2, 0)])
    assert backend.rank([(1, 5)]) == 1
    assert backend.rank([(2, 0)]) == backend.rank([(3, 1)]) == 0
    assert backend.rank([(0, 0), (1, 1), (2, 2), (1, 1)]) == 2
    antichain = [(0, 0, 3), (1, 2, 0), (2, 0, 1)]
    staircase = TrivialBackend(3, antichain)
    for point in itertools.product(range(4), repeat=3):
        assert staircase.rank([point]) == ideal_count([point], antichain)
    points = list(itertools.product(range(4), repeat=3))
    assert staircase.rank(points) == ideal_count(points, antichain)


def test_ideal_backend_refuses_bool_coordinates():
    backend = TrivialBackend(2, [(2, 0)])
    backend.validate((1, 0))
    for point in [(True, 0), (0, False)]:
        with pytest.raises(InputError, match="point of N"):
            backend.validate(point)


def test_ideal_backend_rejects_comparable_antichain():
    with pytest.raises(InputError, match="comparable"):
        TrivialBackend(2, [(1, 0), (2, 0)])
    with pytest.raises(InputError, match="antichain point must be a point of N"):
        TrivialBackend(2, [(1, -1)])
    # [[2.7, 0]] used to run as [[2, 0]]
    for point in [(2.7, 0), (True, 0), ("2", 0)]:
        with pytest.raises(InputError, match="antichain point must be a point of N"):
            TrivialBackend(2, [point])


def test_ideal_points_lie_in_the_naturals_even_with_no_killed_point():
    for killed in ([], [(2, 0)]):
        backend = TrivialBackend(2, killed)
        with pytest.raises(InputError, match="expected a point of N\\^2"):
            backend.validate((1, -1))
        sys, _ = make_ideal_system(killed, [2])
        with pytest.raises(InputError, match="expected a point of N\\^2"):
            analyze_graded(sys, [(-1, 0)])
    # a sumset is over Z^m: its seeds may be negative
    TrivialBackend(2).validate((1, -1))
    result = analyze_graded(make_sumset_system([0, 1]), [(-3,)])
    assert result.polynomial.pretty() == "Y + 1"


def test_translation_systems_declare_their_vectors_and_killed_points_once():
    sys = make_translation_system([[(0, 1)], [(0, 0), (1, 0)]], [(2, 2)])
    assert sys.partition.part_sizes == (1, 2)
    assert sys.translations == (((0, 1),), ((0, 0), (1, 0)))
    assert sys.killed == sys.backend.killed == ((2, 2),)
    assert [f((3, 4)) for f in sys.maps] == [(3, 5), (3, 4), (4, 4)]
    ideal, origin = make_ideal_system([(2, 0)], [1, 1])
    assert ideal.translations == (((1, 0),), ((0, 1),)) and origin == [(0, 0)]
    assert ideal.killed == ideal.backend.killed == ((2, 0),)
    sumset = make_sumset_system([1, 0], [2])
    assert sumset.translations == (((0,), (1,)), ((2,),))
    assert sumset.killed == () and sumset.backend.killed is None
    # mixed dimensions are refused by the operator system
    with pytest.raises(InputError, match="one dimension"):
        make_translation_system([[(0,), (1, 0)]])


def test_a_translation_system_reads_its_parts_once():
    # an iterator of parts was used up by the partition and then indexed,
    # and an iterator part by its length: each raised a TypeError
    parts = [[(0, 1)], [(0, 0), (1, 0)]]
    listed = make_translation_system(parts, [(2, 2)])
    read = make_translation_system(iter(map(iter, parts)), iter([(2, 2)]))
    assert read.translations == listed.translations
    assert read.killed == listed.killed
    assert [f((3, 4)) for f in read.maps] == [(3, 5), (3, 4), (4, 4)]


def test_ideal_counts_match_lattice_enumeration():
    rng = random.Random(21)
    for _ in range(5):
        m = rng.randint(1, 3)
        pts = [
            tuple(rng.randint(0, 3) for _ in range(m))
            for _ in range(rng.randint(0, 3))
        ]
        minimal = [
            p
            for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
        ]
        antichain = sorted(set(minimal))
        sys, A = make_ideal_system(antichain, [m])
        for t in range(5):
            got = sys.backend.rank(graded_orbit(sys, A, (t,)))
            expect = ideal_points_of_degree(antichain, m, [m], (t,))
            assert got == expect


def test_ideal_graded_orbit_is_full_slice():
    sys, A = make_ideal_system([], [2])
    orbit = graded_orbit(sys, A, (3,))
    assert sorted(orbit) == [(r, 3 - r) for r in range(4)]


# ---------------------------------------------------------------------------
# linear / monomial modules
# ---------------------------------------------------------------------------

def _monomials_of_degree(num_vars, t):
    for c in itertools.product(range(t + 1), repeat=num_vars):
        if sum(c) == t:
            yield c


def _quotient_count(num_vars, relations, t):
    return sum(
        1
        for mono in _monomials_of_degree(num_vars, t)
        if not any(all(r <= m for r, m in zip(rel, mono)) for rel in relations)
    )


def test_monomial_module_plain_rings():
    for m in (1, 2, 3):
        sys, seeds = make_polynomial_ring_system(m)
        P = analyze_graded(sys, seeds).polynomial
        for t in range(6):
            assert P.evaluate((t,)) == _quotient_count(m, [], t)


def test_monomial_module_quotients_match_enumeration():
    cases = [
        (2, [(2, 0)]),
        (2, [(2, 0), (0, 3)]),
        (3, [(1, 1, 0)]),
        (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ]
    for num_vars, rels in cases:
        sys, seeds = make_monomial_module_system(
            num_vars, [num_vars], [(0,) * num_vars], rels
        )
        P = analyze_graded(sys, seeds).polynomial
        for t in range(P.threshold[0], P.threshold[0] + 6):
            assert P.evaluate((t,)) == _quotient_count(num_vars, rels, t)


def test_monomial_module_killed_generator_is_zero_vector():
    sys, seeds = make_monomial_module_system(2, [2], [(2, 0)], [(1, 0)])
    assert seeds == [sys.backend.zero]
    P = analyze_graded(sys, seeds).polynomial
    assert P.is_zero


def test_monomial_module_rejects_bad_relation():
    with pytest.raises(InputError):
        make_monomial_module_system(2, [2], [(0, 0)], [(1,)])
    with pytest.raises(InputError):
        make_monomial_module_system(2, [2], [(0, 0)], [(-1, 0)])


def _assert_normal(v):
    """``v`` validates, and each coefficient is an int exactly when it is
    integral."""
    LinearBackend().validate(v)
    for _, c in v:
        assert type(c) is (int if c.denominator == 1 else Fraction), v


def test_linear_backend_canonicalization():
    lb = LinearBackend()
    v = lb.vector([(1, 1), (0, 2), (1, -1)])
    assert v == ((0, 2),)
    assert lb.vector([(0, Fraction(4, 2)), (1, True), (2, Fraction(1, 2))]) == (
        (0, 2),
        (1, 1),
        (2, Fraction(1, 2)),
    )
    for w in [v, lb.vector({0: Fraction(4, 2), 1: True, 2: Fraction(1, 2)})]:
        _assert_normal(w)
    _assert_normal(lb.monomial((1, 0), Fraction(3, 3)))
    assert lb.vector([]) == lb.zero
    assert lb.rank([lb.zero]) == 0


def test_linear_integral_fraction_equals_its_normal_form():
    lb = LinearBackend()
    old, new = ((0, Fraction(2)),), lb.monomial(0, 2)
    assert type(new[0][1]) is int
    assert old == new and hash(old) == hash(new)
    assert new == ((0, 2),)
    lb.validate(old)
    assert lb.rank([old]) == lb.rank([new]) == 1
    assert lb.rank([old, new]) == 1
    assert lb.rank([old, lb.monomial(1)]) == lb.rank([new, lb.monomial(1)]) == 2
    # a map sends both to the same int vector
    op = linear_operator(lb, lambda k: [(k + 1, 3)])
    assert op(old) == op(new) == ((1, 6),)
    _assert_normal(op(old))


def test_linear_operator_images_are_put_in_normal_form_once():
    # when an image is cached, an integral Fraction and a bool become ints
    # and the image is marked all-int
    def image(k):
        return [(k + 1, Fraction(4, 2)), (k + 2, True)]

    terms, integral = _image(image, 0)
    assert terms == ((1, 2), (2, 1)) and integral
    assert [type(c) for _, c in terms] == [int, int]
    assert _image(lambda k: [(k, Fraction(1, 2))], 0) == (((0, Fraction(1, 2)),), False)


# the integer kernel against the Fraction references: small key pools of
# int or tuple keys, coefficients that are all ints, all Fractions with
# denominators up to 12 (some of them integral), or a mix of both

_KEY_POOLS = [list(range(5)), [(i, j) for i in range(2) for j in range(3)]]
_INTS = st.integers(-9, 9).filter(bool)
_FRACTIONS = st.builds(Fraction, _INTS, st.integers(1, 12))
_COEFFS = [_INTS, st.one_of(_INTS, _FRACTIONS), _FRACTIONS]


@st.composite
def _linear_vectors(draw, pool):
    """Vectors over ``pool``, some of them combinations of earlier ones."""
    lb = LinearBackend()
    coeff = draw(st.sampled_from(_COEFFS))
    entry = st.tuples(st.sampled_from(pool), coeff)
    vector = st.lists(entry, max_size=5).map(lb.vector)
    vs = draw(st.lists(vector, min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        combo = {}
        terms = st.tuples(st.sampled_from(vs), coeff)
        for v, c in draw(st.lists(terms, min_size=1, max_size=3)):
            for k, x in v:
                combo[k] = combo.get(k, 0) + c * x
        vs.insert(draw(st.integers(0, len(vs))), lb.vector(combo))
    return vs


def _fraction_rank(vs):
    ref = FractionEchelonBuilder()
    return sum(ref.add(v) for v in vs)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_builder_matches_fraction_reference(data):
    pool = data.draw(st.sampled_from(_KEY_POOLS))
    vs = data.draw(_linear_vectors(pool))
    for v in vs:
        _assert_normal(v)
    ours, ref = _EchelonBuilder(), FractionEchelonBuilder()
    accepts = [ours.add(v) for v in vs]
    assert accepts == [ref.add(v) for v in vs]
    assert ours.pivots.keys() == ref.pivots.keys()
    # the same vectors built by hand with every coefficient a Fraction
    by_hand = _EchelonBuilder()
    assert [by_hand.add(tuple((k, Fraction(c)) for k, c in v)) for v in vs] == accepts
    assert by_hand.pivots == ours.pivots
    for p, row in ours.pivots.items():
        # primitive integers, positive at the pivot, a multiple of the rational row
        assert row[p] > 0 and math.gcd(*row.values()) == 1
        assert {k: Fraction(c, row[p]) for k, c in row.items()} == ref.pivots[p]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_linear_rank_and_localized_rank_match_fraction_reference(data):
    pool = data.draw(st.sampled_from(_KEY_POOLS))
    vs = data.draw(_linear_vectors(pool))
    cut = data.draw(st.integers(0, len(vs)))
    C, S = vs[:cut], vs[cut:]
    lb = LinearBackend()
    dense = [[dict(v).get(k, 0) for k in pool] for v in vs]
    assert lb.rank(vs) == _fraction_rank(vs) == matrix_rank(dense)
    assert lb.relative_rank(S, C) == _fraction_rank(vs) - _fraction_rank(C)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_linear_operator_matches_fraction_reference(data):
    pool = data.draw(st.sampled_from(_KEY_POOLS))
    # integer images, or images mixing ints and Fractions
    ints = st.integers(-6, 6)
    coeff = data.draw(st.sampled_from([ints, st.one_of(ints, _FRACTIONS)]))
    term = st.tuples(st.sampled_from(pool), coeff)
    lb = LinearBackend()
    ops = []
    for _ in range(2):
        images = {k: data.draw(st.lists(term, max_size=3)) for k in pool}
        ops.append(
            (
                linear_operator(lb, images.__getitem__),
                fraction_linear_operator(images.__getitem__),
            )
        )
    vs = data.draw(_linear_vectors(pool))
    # each vector also as the caller may build it, every coefficient a Fraction
    vs += [tuple((k, Fraction(c)) for k, c in v) for v in vs]
    # words of both operators over a sequence of vectors that share keys, so
    # the image cache holds both operators' images of a key at once
    words = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3)
    for word in data.draw(st.lists(words, min_size=1, max_size=3)):
        for v in vs:
            ours = ref = v
            for i in word:
                op, ref_op = ops[i]
                ours, ref = op(ours), ref_op(ref)
                assert ours == ref
                _assert_normal(ours)


def test_linear_operator_caches_keep_a_float_coefficient_refused():
    lb = LinearBackend()
    one = linear_operator(lb, lambda k: [(k + 1, 1)])
    assert one(lb.monomial(0)) == ((1, Fraction(1)),)
    # the same key and the same coefficient value, but a float: its image is
    # checked when it is cached, and refused
    float_one = linear_operator(lb, lambda k: [(k + 1, 1.0)])
    with pytest.raises(InputError, match="ints or Fractions"):
        float_one(lb.monomial(0))
    assert one(lb.monomial(0)) == ((1, Fraction(1)),)
    sys = OperatorSystem([float_one], Partition([1]), lb)
    with pytest.raises(OperatorError, match=r"map 1 failed while applying word"):
        tabulate_f(sys, [lb.monomial(0)], [], box=(2,))


def test_linear_operator_generator_images_are_not_shared_half_used():
    lb = LinearBackend()

    def image(k):
        return ((k + d, c) for d, c in [(0, 2), (1, Fraction(-1, 3)), (3, 1)])

    op, ref = linear_operator(lb, image), fraction_linear_operator(image)
    third = Fraction(1, 3)
    vs = [
        lb.vector([(0, 1), (1, third)]),
        lb.vector([(1, 2), (2, -1)]),
        lb.vector([(0, third), (2, 5), (4, Fraction(-7, 2))]),
        lb.vector([(1, third)]),
    ]
    for v in vs + vs:
        assert op(v) == ref(v)
        assert op(op(v)) == ref(ref(v))


def test_linear_operator_does_not_cache_a_failing_image():
    lb = LinearBackend()
    calls = []

    def fails(k):
        calls.append(k)
        raise ValueError("image fails")

    op = linear_operator(lb, fails)
    for _ in range(2):
        with pytest.raises(ValueError, match="image fails"):
            op(lb.monomial(0))
    assert calls == [0, 0]


def test_linear_operator_caches_stay_bounded():
    assert _image.cache_parameters() == {"maxsize": IMAGE_CACHE_SIZE, "typed": True}
    lb = LinearBackend()
    n = 3 * IMAGE_CACHE_SIZE
    # n keys with n distinct coefficients over one denominator
    v = lb.vector([(k, Fraction(k + 1, 7)) for k in range(n)])
    op = linear_operator(lb, lambda k: [(k + 1, 2)])
    ref = fraction_linear_operator(lambda k: [(k + 1, 2)])
    images = _image.cache_info()
    assert op(v) == ref(v)
    # the cache missed more keys than it holds
    assert _image.cache_info().misses - images.misses > IMAGE_CACHE_SIZE
    assert _image.cache_info().currsize <= IMAGE_CACHE_SIZE


class _Unhashable:
    __hash__ = None

    def __call__(self, key):
        return [(key, 1)]


def test_linear_basis_keys_must_be_hashable():
    lb = LinearBackend()
    with pytest.raises(InputError, match="not a canonical vector"):
        lb.validate((([1], Fraction(1)),))
    with pytest.raises(InputError, match="not a canonical vector"):
        lb.validate((((0, [1]), Fraction(1)),))
    lb.validate((((0, (1,)), Fraction(1)),))
    op = linear_operator(lb, lambda k: [([k], 1)])
    with pytest.raises(InputError, match="hashable basis key"):
        op(lb.monomial(0))
    shift = linear_operator(lb, lambda k: [(k, 1)])
    with pytest.raises(InputError, match="hashable basis key"):
        shift((([1], Fraction(1)),))
    with pytest.raises(InputError, match="not hashable"):
        linear_operator(lb, _Unhashable())


def test_linear_vector_names_a_term_that_is_not_a_pair():
    # vector and the image check share one term check, so a term that is not
    # a (key, coefficient) pair is an input error naming it, not a raw
    # ValueError or TypeError from unpacking it
    lb = LinearBackend()
    for items, term in [
        ([(0, 1, 2)], r"\(0, 1, 2\)"),
        ([(0,)], r"\(0,\)"),
        ([5], "5"),
        ("ab", "'a'"),
    ]:
        with pytest.raises(InputError, match=rf"^term {term} does not pair"):
            lb.vector(items)
        with pytest.raises(InputError, match="not a canonical vector"):
            lb.validate(tuple(items))
    # a term with a bad key and a bad coefficient is refused for its key
    with pytest.raises(InputError, match=r"^basis key \[1\] is not hashable$"):
        lb.vector([([1], 0.5)])


def test_linear_keys_under_a_partial_order_are_refused():
    # frozensets sort without a TypeError, but {1} and {2} are not ordered
    # either way, so the sorted terms would depend on the input order and one
    # vector would have two spellings, which rank would count twice
    lb = LinearBackend()
    one, two = frozenset({1}), frozenset({2})
    for terms in [[(one, 1), (two, 1)], [(two, 1), (one, 1)]]:
        with pytest.raises(InputError, match=r"basis keys frozenset.* do not order"):
            lb.vector(terms)
        with pytest.raises(InputError, match="not a canonical vector"):
            lb.validate(tuple(terms))
    assert lb.vector([(one, 1), (frozenset({1, 2}), 1)]) == (
        (one, 1), (frozenset({1, 2}), 1)
    )


def test_linear_map_outputs_under_a_partial_order_are_refused():
    # the map returned ((b, 1), (a, 1)) for one key and the reversed spelling
    # for the other, and one builder accepted both images, so a rank counted
    # one vector twice
    lb = LinearBackend()
    a, b = frozenset({1}), frozenset({2})
    op = linear_operator(lb, lambda k: [(b, 1), (a, 1)] if k == 0 else [(a, 1), (b, 1)])
    for key, (x, y) in [(0, ("2", "1")), (1, ("1", "2"))]:
        with pytest.raises(
            InputError,
            match=rf"^basis keys frozenset\(\{{{x}\}}\) and "
            rf"frozenset\(\{{{y}\}}\) do not order$",
        ):
            op(lb.monomial(key))


def test_linear_vector_names_a_key_that_does_not_hash_or_order():
    lb = LinearBackend()
    for make in [lb.vector, lambda items: lb.monomial(*items[0])]:
        with pytest.raises(InputError, match=r"basis key \[1\] is not hashable"):
            make([([1], 1)])
        with pytest.raises(InputError, match=r"basis key \(0, \[1\]\) is not hashable"):
            make([((0, [1]), 1)])
    with pytest.raises(InputError, match=r"basis keys \(1,\) and 'a' do not order"):
        lb.vector([((1,), 1), ("a", 1)])
    with pytest.raises(InputError, match=r"basis keys 0 and 'a' do not order"):
        lb.vector({0: 1, 1: 2, "a": 1})


def test_linear_operator_refuses_a_malformed_image_term():
    lb = LinearBackend()
    for image in [[(0, 1, 2)], [(0,)], [5], [([0], 1)]]:
        op = linear_operator(lb, lambda k, image=image: image)
        malformed = r"image term .* of basis key 0 does not pair"
        with pytest.raises(InputError, match=malformed):
            op(lb.monomial(0))
    three = linear_operator(lb, lambda k: [(k, 1, 2)])
    sys = OperatorSystem([three], Partition([1]), lb)
    failure = r"map 1 failed while applying word \(1,\): image term \(0, 1, 2\)"
    with pytest.raises(OperatorError, match=failure):
        tabulate_f(sys, [lb.monomial(0)], [], box=(2,))


def test_linear_operator_names_output_keys_that_do_not_order():
    lb = LinearBackend()
    op = linear_operator(lb, lambda k: [(k, 1), ("a", 1)])
    with pytest.raises(InputError, match=r"basis keys 0 and 'a' do not order"):
        op(lb.monomial(0))
    half = linear_operator(lb, lambda k: [(k, Fraction(1, 2)), ("a", 1)])
    with pytest.raises(InputError, match=r"basis keys 0 and 'a' do not order"):
        half(lb.monomial(0))
    sys = OperatorSystem([op], Partition([1]), lb)
    with pytest.raises(OperatorError, match=r"map 1 failed .* do not order"):
        tabulate_f(sys, [lb.monomial(0)], [], box=(2,))


def test_linear_operator_passes_on_a_type_error_raised_by_image_fn():
    lb = LinearBackend()
    op = linear_operator(lb, lambda k: len(k))
    with pytest.raises(TypeError, match=r"^object of type 'int' has no len\(\)$"):
        op(lb.monomial(0))
    sys = OperatorSystem([op], Partition([1]), lb)
    with pytest.raises(OperatorError, match=r"map 1 failed .*: object of type 'int'"):
        tabulate_f(sys, [lb.monomial(0)], [], box=(2,))
    # an input key that does not hash keeps its own message
    with pytest.raises(InputError, match="hashable basis key in every term"):
        op((([1], 1),))


def test_echelon_builder_skips_zero_entries_of_a_map_image():
    # maps are not validated, so an image may carry a zero coefficient;
    # it must never become a pivot
    builder = _EchelonBuilder()
    assert builder.add(((0, Fraction(0)), (1, Fraction(2))))
    assert not builder.add(((0, Fraction(0)),))
    assert not builder.add(((1, Fraction(-1, 3)),))
    assert builder.pivots == {1: {1: 1}}
    # the same with ints, which skip the scaling to a common denominator
    builder = _EchelonBuilder()
    assert builder.add(((0, 0), (1, 2)))
    assert not builder.add(((0, 0),))
    assert not builder.add(((0, 0), (1, -3)))
    assert builder.add(((0, 0), (1, 0), (2, -4)))
    assert builder.pivots == {1: {1: 1}, 2: {2: 1}}


def test_echelon_builder_sums_the_terms_of_a_repeated_key():
    # a map's output may repeat a key; the builder reads it as
    # LinearBackend.vector reads the same terms, so a zero sum is no vector
    assert not _EchelonBuilder().add(((0, 1), (0, -1)))
    builder = _EchelonBuilder()
    assert builder.add(((1, 2), (0, 1), (1, Fraction(1, 2)), (0, 1)))
    assert builder.pivots == {0: {0: 4, 1: 5}}
    # every orbit of this map from t = 1 on is the zero vector
    lb = LinearBackend()

    def bad(v):
        return tuple(t for k, c in v for t in ((k + 1, c), (k + 1, -c)))

    sys = OperatorSystem([bad], Partition([1]), lb)
    result = analyze_graded(sys, [lb.monomial(0)], [])
    assert (result.status, result.polynomial.pretty()) == ("certified", "0")


def test_linear_coefficients_must_be_ints_or_fractions():
    lb = LinearBackend()
    half = Fraction(1, 2)
    assert lb.vector([(0, 1), (1, half)]) == ((0, Fraction(1)), (1, half))
    for bad in [0.1, 1.0, None, "1", Decimal(1)]:
        with pytest.raises(InputError, match="not an int or a Fraction"):
            lb.vector([(0, bad)])
        with pytest.raises(InputError, match="not an int or a Fraction"):
            lb.monomial(0, bad)
        op = linear_operator(lb, lambda k, bad=bad: [(k + 1, bad)])
        with pytest.raises(InputError, match="ints or Fractions"):
            op(lb.monomial(0))
    # floats that cancel are refused too
    cancel = linear_operator(lb, lambda k: [(k + 1, 0.5), (k + 1, -0.5)])
    with pytest.raises(InputError):
        cancel(lb.monomial(0))
    # through tabulation the refusal is the map failure naming map and word
    halve = linear_operator(lb, lambda k: [(k + 1, 0.5)])
    sys = OperatorSystem([halve], Partition([1]), lb)
    failure = r"map 1 failed while applying word \(1,\): "
    with pytest.raises(OperatorError, match=failure):
        tabulate_f(sys, [lb.monomial(0)], [], box=(2,))


# ---------------------------------------------------------------------------
# graphic matroid
# ---------------------------------------------------------------------------

def test_graphic_rank_against_incidence_elimination():
    rng = random.Random(31)
    gb = GraphicBackend()
    verts = list(range(7))
    for _ in range(25):
        edges = [
            (rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 9))
        ]
        distinct = gb.dedupe(edges)
        # oriented incidence matrix over the rationals
        rows = []
        for u, v in ((e[0], e[1]) for e in distinct):
            row = [0] * len(verts)
            if u != v:
                row[u] += 1
                row[v] -= 1
            rows.append(row)
        expect = matrix_rank(rows) if rows else 0
        assert gb.rank(edges) == expect
        assert gb.rank(edges) == forest_rank([(e[0], e[1]) for e in distinct])


def test_graphic_loops_rank_zero():
    gb = GraphicBackend()
    assert gb.rank([("a", "a")]) == 0
    assert gb.rank([("a", "a"), ("a", "b")]) == 1


def test_vertex_map_collapse_makes_loops():
    op = vertex_map_edge_operator({"a": "z", "b": "z"})
    assert op(("a", "b"))[:2] == ("z", "z")


def test_graphic_system_from_vertex_maps():
    # the shift i -> i+1 (capped at 9) moves one edge along the path 0-1-...-9
    shift = {str(i): str(min(i + 1, 9)) for i in range(10)}
    sys = make_graphic_system([shift], [1])
    P = analyze_graded(sys, [("0", "1")]).polynomial
    assert P.evaluate((3,)) == 1


def test_graphic_spellings_of_one_edge_are_parallel_elements():
    # an edge is the tuple it is: its reversed spelling and an empty tag are
    # parallel edges, kept apart but with the same effect on rank
    gb = GraphicBackend()
    edge, spellings = ("0", "1"), [("1", "0"), ("0", "1", "")]
    every = [edge, *spellings]
    assert gb.dedupe(every) == every
    assert gb.sorted_elems(every[::-1]) == [edge, ("0", "1", ""), ("1", "0")]
    assert gb.rank(every) == gb.rank([edge]) == 1
    for B in ([], [edge], [("1", "2")], [("1", "2"), ("2", "0")]):
        assert gb.relative_rank(every, B) == gb.relative_rank([edge], B), B
    # so an analysis seeded with every spelling is the canonical one's: the
    # 4-cycle's rotations by one and two steps commute, and from degree 3
    # their words take an edge to all four edges, of rank 3
    rotation, half_turn = (
        {str(i): str((i + k) % 4) for i in range(4)} for k in (1, 2)
    )
    sys = make_graphic_system([rotation, half_turn], [2])
    canonical, spelled = analyze_graded(sys, [edge]), analyze_graded(sys, every)
    assert spelled.status == canonical.status == "certified"
    assert spelled.polynomial.coeffs == canonical.polynomial.coeffs == {(0,): 3}
    assert spelled.polynomial.threshold == canonical.polynomial.threshold
    assert spelled.table.values == canonical.table.values
    assert check_system(sys, every).commutation_ok


def test_counterexample_structure():
    backend = CounterexampleGraphicBackend(10)
    assert backend.endpoints(("a", 0)) == (("u", 0), ("u", 1))
    assert backend.endpoints(("a", 1)) == (("u", 0), ("p", 0))
    with pytest.raises(OutOfBoxError):
        backend.endpoints(("a", 11))
    with pytest.raises(OutOfBoxError):
        backend.shift(("a", 10))
    with pytest.raises(InputError):
        backend.validate(("d", 0))


def test_counterexample_backend_refuses_bool_edge_indices():
    backend = CounterexampleGraphicBackend(8)
    backend.validate(("a", 1))
    for edge in [("a", True), ("b", False)]:
        with pytest.raises(InputError, match="not a gadget edge"):
            backend.validate(edge)


def test_counterexample_rank_pattern():
    sys, seed = make_counterexample_graph()
    for t in range(11):
        expect = 2 if t % 2 == 0 else 3
        assert sys.backend.rank(graded_orbit(sys, seed, (t,))) == expect


def test_counterexample_cumulative_matches_union_find():
    sys, seed = make_counterexample_graph()
    res = analyze_cumulative(sys, seed)
    backend = sys.backend
    for t in range(12):
        edges = [
            backend.endpoints((k, i)) for i in range(t + 1) for k in ("a", "b", "c")
        ]
        assert res.polynomial.evaluate((t,)) == forest_rank(edges)


# ---------------------------------------------------------------------------
# chain backend and Betti numbers
# ---------------------------------------------------------------------------

def _cycle_complex(n):
    return SimplicialComplex(
        [(i, (i + 1) % n) for i in range(n)]
    )


def test_chain_oracles_small():
    K = _cycle_complex(4)
    free = ChainFreeOracle(K, 1)
    bnd = ChainBoundaryOracle(K, 1)
    edges = [("s", s) for s in K.of_dimension(1)]
    assert free.rank(edges) == 4
    assert bnd.rank(edges) == 3  # one cycle
    assert free.rank([ZERO_CHAIN]) == 0
    assert bnd.rank([ZERO_CHAIN]) == 0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_chain_boundary_ranks_match_matrix_rank(data):
    # the boundary builder runs the linear builder's elimination on the
    # boundary of each chain, so its ranks are those of the boundary rows
    verts = st.sampled_from(range(data.draw(st.integers(1, 7))))
    facets = st.lists(st.sets(verts, min_size=1, max_size=4), min_size=1, max_size=8)
    K = SimplicialComplex(data.draw(facets))
    n = data.draw(st.integers(0, 3))
    simplices = [("s", s) for s in K.of_dimension(n)]
    chains = st.lists(st.sampled_from(simplices + [ZERO_CHAIN]))
    A, B = data.draw(chains), data.draw(chains)
    column = {face: j for j, face in enumerate(K.of_dimension(n - 1))}

    def boundary_rows(elems):
        rows = []
        for elem in elems:
            row = [0] * len(column)
            if elem != ZERO_CHAIN and n:
                for j in range(n + 1):
                    row[column[elem[1][:j] + elem[1][j + 1 :]]] += (-1) ** j
            rows.append(row)
        return rows

    bnd = ChainBoundaryOracle(K, n)
    assert bnd.rank(A) == matrix_rank(boundary_rows(A))
    assert bnd.relative_rank(A, B) == (
        matrix_rank(boundary_rows(A + B)) - matrix_rank(boundary_rows(B))
    )


def test_chain_boundary_of_triangle_face():
    K = SimplicialComplex([(0, 1, 2)])
    bnd = ChainBoundaryOracle(K, 2)
    face = ("s", (0, 1, 2))
    assert bnd.boundary(face) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_validate_simplicial_rejects_non_simplicial():
    K = SimplicialComplex([(0, 1), (1, 2)])
    with pytest.raises(InputError):
        validate_simplicial(K, {0: 0, 1: 2, 2: 1})  # (0,1) -> (0,2) not in K


def test_simplicial_operator_collapse_goes_to_zero():
    K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    op = simplicial_operator(K, {0: 0, 1: 0, 2: 2}, 1)
    assert op(("s", (0, 1))) == ZERO_CHAIN
    assert op(("s", (1, 2))) == ("s", (0, 2))
    assert op(ZERO_CHAIN) == ZERO_CHAIN


def test_betti_cycle_with_identity():
    K = _cycle_complex(5)
    ident = {v: v for v in range(5)}
    A = [s for s in K.simplices]
    b0 = betti_polynomials(K, [ident], [1], A, 0)
    b1 = betti_polynomials(K, [ident], [1], A, 1)
    for t in range(5):
        assert b0.betti.evaluate((t,)) == 1
        assert b1.betti.evaluate((t,)) == 1


def test_betti_path_shift_cumulative():
    verts = list(range(30))
    K = SimplicialComplex([(i, i + 1) for i in range(29)])
    shift = {i: i + 1 for i in range(29)}
    shift[29] = 29
    A = [(0,), (1,), (0, 1)]
    b0 = betti_polynomials(K, [shift], [1], A, 0, cumulative=True)
    b1 = betti_polynomials(K, [shift], [1], A, 1, cumulative=True)
    for t in range(6):
        assert b0.betti.evaluate((t,)) == 1
        assert b1.betti.evaluate((t,)) == 0


def test_betti_status_is_certified_only_when_all_three_runs_are():
    K = SimplicialComplex([(i, i + 1) for i in range(29)])
    shift = {i: min(i + 1, 29) for i in range(30)}
    A = [(0,), (1,), (0, 1)]
    assert betti_polynomials(K, [shift], [1], A, 0, cumulative=True).status == (
        "certified"
    )
    small = StabilizationConfig(box=(2,))
    mixed = betti_polynomials(K, [shift], [1], A, 0, small, cumulative=True)
    runs = [mixed.free, mixed.boundary, mixed.boundary_up]
    assert [r.status for r in runs] == ["box-truncated", "certified", "certified"]
    assert mixed.status == "box-truncated"


def test_betti_disjoint_translates_graded():
    # one hollow triangle per index; the shift moves to a fresh copy
    copies = 30
    tri = lambda j: [(3 * j, 3 * j + 1), (3 * j + 1, 3 * j + 2), (3 * j, 3 * j + 2)]
    K = SimplicialComplex([e for j in range(copies) for e in tri(j)])
    shift = {v: v + 3 for v in range(3 * (copies - 1))}
    shift.update({v: v for v in range(3 * (copies - 1), 3 * copies)})
    A = SimplicialComplex(tri(0)).simplices
    b0 = betti_polynomials(K, [shift], [1], sorted(A), 0)
    b1 = betti_polynomials(K, [shift], [1], sorted(A), 1)
    for t in range(5):
        assert b0.betti.evaluate((t,)) == 1
        assert b1.betti.evaluate((t,)) == 1


def test_betti_three_rank_formula_against_boundary_matrices():
    K = _cycle_complex(6)
    ident = {v: v for v in range(6)}
    A = sorted(K.simplices)
    for n in (0, 1):
        res = betti_polynomials(K, [ident], [1], A, n)
        assert res.betti.evaluate((2,)) == subcomplex_betti(A, n)


def test_betti_rejects_a_negative_dimension():
    K = _cycle_complex(3)
    ident = {v: v for v in range(3)}
    with pytest.raises(InputError, match="homology dimension"):
        betti_polynomials(K, [ident], [1], sorted(K.simplices), -1)


def test_validate_simplicial_names_an_unmapped_vertex():
    K = SimplicialComplex([(0, 1), (1, 2)])
    with pytest.raises(InputError, match="no image for vertex 2"):
        validate_simplicial(K, {0: 0, 1: 1})


def test_betti_rejects_non_subcomplex_seed():
    K = SimplicialComplex([(0, 1), (1, 2)])
    ident = {v: v for v in range(3)}
    with pytest.raises(InputError):
        betti_polynomials(K, [ident], [1], [(0, 1)], 0)  # vertices missing


# ---------------------------------------------------------------------------
# circuit backend
# ---------------------------------------------------------------------------

def test_circuit_free_matroid():
    backend = CircuitBackend({})
    elems = [((0,), "a"), ((0,), "b"), ((1,), "c")]
    assert backend.rank(elems) == 3


def test_circuit_all_pairs_rank_one_per_degree():
    ground = ["a", "b", "c"]
    circuits = {
        (0,): [frozenset(p) for p in itertools.combinations(ground, 2)],
        (1,): [frozenset(p) for p in itertools.combinations(ground, 2)],
    }
    backend = CircuitBackend(circuits)
    S = [((0,), g) for g in ground] + [((1,), g) for g in ground]
    assert backend.rank(S) == 2


def test_circuit_uniform_two_of_three():
    ground = ["a", "b", "c"]
    circuits = {(0,): [frozenset(ground)]}
    backend = CircuitBackend(circuits)
    S = [((0,), g) for g in ground]
    assert backend.rank(S) == 2
    assert backend.rank(S[:2]) == 2
    assert backend.rank(S[:1]) == 1


def test_circuit_antichain_validation():
    with pytest.raises(InputError):
        CircuitBackend({(0,): [frozenset("ab"), frozenset("abc")]})
    with pytest.raises(InputError):
        CircuitBackend({(0,): [frozenset()]})


def test_circuit_spot_check_catches_non_matroid():
    # {1,2} and {2,3} circuits without {1,3} violate circuit elimination
    circuits = {(0,): [frozenset({"1", "2"}), frozenset({"2", "3"})]}
    sample = [((0,), x) for x in "123"]

    def op(e):
        (deg, payload) = e
        return ((deg[0] + 1,), payload)

    with pytest.raises(InvalidMatroidError):
        make_circuit_backend([1], circuits, [op], sample)


def test_circuit_degree_respect_check():
    circuits = {}
    sample = [((0,), "x")]

    def bad(e):
        return e  # does not shift the degree

    with pytest.raises(InputError):
        make_circuit_backend([1], circuits, [bad], sample)


def test_circuit_degree_check_reads_an_iterator_of_maps_as_a_list():
    # the check looped over the maps argument, which the system had used up
    sample = [((0,), "x")]
    for maps in ([lambda e: e], iter([lambda e: e])):
        with pytest.raises(InputError, match="^map 1 does not shift degree"):
            make_circuit_backend([1], {(1,): [{"x", "y"}]}, maps, sample)


def test_betti_reads_an_iterator_of_vertex_maps_as_a_list():
    # the system was built from a used-up iterator: "0 maps but partition
    # expects m = 1"
    K = SimplicialComplex([(i, i + 1) for i in range(29)])
    shift = {i: min(i + 1, 29) for i in range(30)}
    A = [(0,), (1,), (0, 1)]
    for n in (0, 1):
        listed = betti_polynomials(K, [shift], [1], A, n, cumulative=True)
        read = betti_polynomials(K, iter([shift]), [1], iter(A), n, cumulative=True)
        assert read.betti == listed.betti
        assert read.betti.threshold == listed.betti.threshold
        assert read.status == listed.status == "certified"


def test_a_wrong_map_count_gets_the_operator_system_message():
    # neither constructor counts the maps itself
    K = _cycle_complex(3)
    ident = {v: v for v in range(3)}
    with pytest.raises(InputError, match="^2 maps but partition expects m = 1$"):
        betti_polynomials(K, [ident, ident], [1], sorted(K.simplices), 0)

    def op(e):
        return ((e[0][0] + 1,), e[1])

    for sample in [(), [((0,), "x")]]:
        with pytest.raises(InputError, match="^1 maps but partition expects m = 2$"):
            make_circuit_backend([2], {}, [op], sample)


def test_circuit_system_growth():
    # fresh payload per degree step, uniform matroid U_{2,3} at every degree
    ground = ["a", "b", "c"]
    circuits = {
        (t,): [frozenset(f"{g}{t}" for g in ground)] for t in range(12)
    }
    def op(e):
        deg, payload = e
        return ((deg[0] + 1,), payload[:1] + str(deg[0] + 1))

    sample = [((0,), f"{g}0") for g in ground]
    sys = make_circuit_backend([1], circuits, [op], sample)
    P = analyze_graded(sys, sample).polynomial
    for t in range(5):
        assert P.evaluate((t,)) == 2


def test_monomial_modules_from_table_close_the_loop():
    # level antichains of a decreasing table -> monomial quotients whose
    # dimension polynomials sum back to the table's graded ranks
    from rankgrowth import DecreasingTable, Partition, detect_stabilization

    rng = random.Random(47)
    for _ in range(5):
        pts = [
            (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 3))
        ]
        minimal = [
            p for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
        ]

        def f(u):
            inside = not any(
                all(a <= b for a, b in zip(p, u)) for p in minimal
            )
            return 1 + (1 if inside else 0)  # two nested level ideals

        table = DecreasingTable.from_function(f, (6, 6), Partition([2]))
        cert = detect_stabilization(table)
        polys = []
        for n in range(1, table.values[(0, 0)] + 1):
            relations = cert.levels[n - 1]  # minimal points where f < n
            sys, seeds = make_monomial_module_system(2, [2], [(0, 0)], relations)
            polys.append(analyze_graded(sys, seeds).polynomial)
        t0 = max(max(P.threshold[0] for P in polys), cert.m_bar[0] + cert.m_bar[1])
        for t in range(t0, t0 + 5):
            assert sum(P.evaluate((t,)) for P in polys) == table.graded_sum((t,))


def test_ideal_counts_equal_free_enumeration_double_count():
    # independent double count of graded ideal points via the trivial backend
    antichain = [(2, 0), (0, 2)]
    sys, A = make_ideal_system(antichain, [2])
    trivial = TrivialBackend(2)
    for t in range(6):
        pts = [p for p in graded_orbit(sys, A, (t,)) if ideal_count([p], antichain)]
        assert sys.backend.rank(graded_orbit(sys, A, (t,))) == trivial.rank(pts)
