"""Concrete rank-oracle backends and their operator-system constructors.

Five rank structures: point counting (set cardinality, or the points of
a lattice ideal), exact rational linear algebra over a countable basis,
the graphic matroid via union-find, simplicial chain groups with their
boundary ranks, and explicit circuit families with greedy independence.
Each comes with the natural way to build commuting operator systems on
top of it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

from .engine import (
    BOX_TRUNCATED,
    CERTIFIED,
    GrowthPolynomial,
    PipelineResult,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
)
from .errors import InputError, InvalidMatroidError, OutOfBoxError
from .matroid import BasisBuilder, RankOracle, _sort_or_refuse, check_rank_axioms
from .operators import (
    OperatorSystem,
    Partition,
    QUASI_TRIANGULAR,
    is_int,
    natural_index,
    product_leq,
)


# ---------------------------------------------------------------------------
# trivial backend: rank counts points, optionally those of a lattice ideal
# ---------------------------------------------------------------------------

class TrivialBackend(RankOracle):
    """Integer vectors of a fixed dimension ranked by counting points.

    The rank of a finite set is the number of its distinct points that lie
    above no killed point.  With ``killed`` left ``None`` every integer
    vector is an element and counts: the trivial closure, whose rank is
    cardinality.  Otherwise ``killed`` is an antichain of N^m, the minimal
    points of a lattice ideal's complement (possibly none); the elements
    are then the points of N^m, and the rank counts those in the ideal,
    the localization of the trivial matroid at the complement.
    """

    def __init__(self, dimension: int = 1, killed: Sequence | None = None):
        if not is_int(dimension) or dimension < 1:
            raise InputError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.dimension = dimension
        if killed is not None:
            killed = sorted(
                {natural_index(r, dimension, "antichain point") for r in killed}
            )
            for r, q in itertools.combinations(killed, 2):
                if product_leq(r, q) or product_leq(q, r):
                    raise InputError(f"antichain points {r} and {q} are comparable")
            killed = tuple(killed)
        self.killed = killed

    def validate(self, elem):
        natural = self.killed is not None
        if (
            not isinstance(elem, tuple)
            or len(elem) != self.dimension
            or not all(is_int(x) and (x >= 0 or not natural) for x in elem)
        ):
            what = (
                f"a point of N^{self.dimension}"
                if natural
                else f"an integer vector of dimension {self.dimension}"
            )
            raise InputError(f"expected {what}, got {elem!r}")

    def points(self, elem) -> Tuple:
        """The one point ``elem`` is, read by ``OperatorSystem.graded_bound``."""
        return (elem,)

    def basis_builder(self) -> BasisBuilder:
        killed = self.killed
        if not killed:
            return _SetBuilder(lambda elem: True)
        le = operator.le

        def counts(point) -> bool:
            for r in killed:
                if all(map(le, r, point)):
                    return False
            return True

        return _SetBuilder(counts)


class _SetBuilder(BasisBuilder):
    """Rank of a set matroid: the number of distinct elements that count."""

    def __init__(self, counts: Callable[[object], bool]):
        self.counts = counts
        self.seen = set()

    def add(self, elem) -> bool:
        if elem in self.seen:
            return False
        self.seen.add(elem)
        return self.counts(elem)


def as_vector(x, dimension: int | None = None) -> Tuple[int, ...]:
    """Normalize ints / sequences of ints to integer tuples; anything else
    (a float, a bool, a string) is an ``InputError``."""
    try:
        v = (x,) if is_int(x) else tuple(x)
    except TypeError:
        raise InputError(f"vector {x!r} is neither an integer nor a sequence") from None
    if not all(map(is_int, v)):
        raise InputError(f"vector {x!r} has a coordinate that is not an integer")
    if dimension is not None and len(v) != dimension:
        raise InputError(f"vector {v} does not have dimension {dimension}")
    return v


def translation(v: Tuple[int, ...]) -> Callable:
    def op(x):
        return tuple(map(operator.add, x, v))

    return op


def make_translation_system(
    parts: Sequence[Sequence[Tuple[int, ...]]], killed: Sequence | None = None
) -> OperatorSystem:
    """Translation maps x -> x + v over ``TrivialBackend(dimension, killed)``.

    ``parts`` lists each part's integer vectors in map order, all of one
    dimension.  The system declares them and takes the backend's killed
    points, from which it proves a stabilization bound for any seed set
    (``OperatorSystem.graded_bound``).  Translations are endomorphisms, so
    every part is triangular.
    """
    parts = [list(vecs) for vecs in parts]
    partition = Partition([len(vecs) for vecs in parts])
    backend = TrivialBackend(len(parts[0][0]), killed)
    maps = [translation(v) for vecs in parts for v in vecs]
    return OperatorSystem(maps, partition, backend, translations=parts)


def make_sumset_system(*summands) -> OperatorSystem:
    """One translation x -> x + b per element b of each summand set.

    Graded orbits of a seed set A are then the sumsets
    A + s_1 B_1 + ... + s_k B_k; all vectors must have one dimension.
    """
    if not summands:
        raise InputError("at least one summand set is required")
    parts = []
    for B in summands:
        vecs = sorted({as_vector(b) for b in B})
        if not vecs:
            raise InputError("summand sets must be nonempty")
        parts.append(vecs)
    return make_translation_system(parts)


def _unit_vectors(partition: Partition) -> List[List[Tuple[int, ...]]]:
    """Each part's unit vectors of Z^m, one per map raising a coordinate."""
    unit = [tuple(int(i == c) for i in range(partition.m)) for c in range(partition.m)]
    return [unit[partition.part_slice(i)] for i in range(partition.k)]


def make_ideal_system(
    complement_antichain: Sequence, part_sizes: Sequence[int]
) -> Tuple[OperatorSystem, List]:
    """Unit translations of N^m counting the points of a lattice ideal.

    The ideal is given by ``complement_antichain``, the minimal points of
    its complement, which the backend kills.  Returns the system together
    with its canonical seed, the origin: the graded orbit of the origin at
    part degree s is every point of that degree, so its rank counts the
    ideal's points of degree s, and the cumulative orbit counts points of
    degree at most s.
    """
    partition = Partition(part_sizes)
    sys = make_translation_system(_unit_vectors(partition), complement_antichain)
    return sys, [(0,) * partition.m]


# ---------------------------------------------------------------------------
# linear backend: exact rational vectors over a countable basis
# ---------------------------------------------------------------------------

Vector = Tuple[Tuple[object, Union[int, Fraction]], ...]


def _exact(c: int | Fraction) -> int | Fraction:
    """``c`` in normal form: a plain ``int`` when it is integral (so never
    a bool), else the ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _term(term, image_of: tuple = ()) -> Tuple[object, int | Fraction]:
    """``term`` as a (basis key, coefficient) pair in normal form: the one
    term check, shared by ``LinearBackend.vector`` and ``_image``.  A term
    that is not a pair, a key that does not hash and a coefficient neither
    an int nor a ``Fraction`` are ``InputError``s naming it, and name the
    basis key in ``image_of`` when the term is part of that key's image."""
    paired = False
    try:
        k, c = term
        paired = True
        hash(k)
    except (TypeError, ValueError):
        if paired and not image_of:
            raise InputError(f"basis key {k!r} is not hashable") from None
        what = f"term {term!r}"
        if image_of:
            what = f"image {what} of basis key {image_of[0]!r}"
        raise InputError(
            f"{what} does not pair a hashable basis key with a coefficient"
        ) from None
    if type(c) is int:
        return k, c
    if not isinstance(c, (int, Fraction)):
        raise InputError(
            f"coefficient {c!r} in the image of basis key {image_of[0]!r}: linear "
            "map coefficients must be ints or Fractions"
            if image_of
            else f"coefficient {c!r} of basis key {k!r} is not an int or a Fraction"
        )
    return k, _exact(c)


class LinearBackend(RankOracle):
    """Finitely supported exact-rational vectors; rank is span dimension.

    An element is a canonical tuple of (basis key, coefficient) pairs:
    keys strictly increasing, hashable and mutually orderable,
    coefficients nonzero ints (not bools) or ``Fraction``s.  Every vector
    the backend and ``linear_operator`` build is in normal form: a
    coefficient is a plain ``int`` when it is integral and a ``Fraction``
    only when its denominator is not 1.  Since ``2 == Fraction(2)`` with
    equal hashes and keys, a vector holding ``Fraction(2)`` equals its
    normal form and is just as valid.  Rank is computed by sparse
    fraction-free elimination over the integers, incremental in the basis
    builder.
    """

    def vector(self, items) -> Vector:
        """Canonical vector of (key, int or Fraction) terms or a dict.

        Each term passes the one term check, ``_term``; coefficients of one
        key are summed, zero sums dropped and the terms sorted by key with
        the one sort that refuses, ``matroid._sort_or_refuse``: two keys
        that do not order, as a partial order such as frozensets' may leave
        them, are an ``InputError`` naming them.
        """
        acc: Dict[object, int | Fraction] = {}
        for term in items.items() if isinstance(items, dict) else items:
            k, c = _term(term)
            acc[k] = acc.get(k, 0) + c
        out = [(k, _exact(c)) for k, c in acc.items() if c]
        return tuple(_sort_or_refuse(out, "basis key", _basis_key))

    def monomial(self, key, coeff=1) -> Vector:
        return self.vector([(key, coeff)])

    zero: Vector = ()

    def validate(self, elem):
        """A canonical vector is a tuple that ``vector`` rebuilds unchanged
        and that holds no bool coefficient."""
        try:
            canonical = (
                isinstance(elem, tuple)
                and self.vector(elem) == elem
                and bool not in map(type, map(_coefficient, elem))
            )
        except InputError:
            canonical = False
        if not canonical:
            raise InputError(f"not a canonical vector: {elem!r}")

    def points(self, elem) -> Tuple:
        """The basis keys of the terms: a monomial's exponent vector, none
        for the zero vector."""
        return tuple(k for k, _ in elem)

    def basis_builder(self) -> BasisBuilder:
        return _EchelonBuilder()


class _EchelonBuilder(BasisBuilder):
    """Sparse echelon rows of primitive integers, keyed by pivot basis key.

    Fraction-free (the integer-preserving elimination of Bareiss 1968): an
    incoming vector is read as ``LinearBackend.vector`` reads its terms,
    coefficients of a repeated key summed and zero sums dropped; a vector
    of ints is then taken as it is, any other is scaled to integers by the
    lcm of its denominators.  Each step replaces it by ``b*v - a*row``
    with ``a/b`` the ratio of the pivot entries in lowest terms.  A step
    with ``b == 1`` is the rational step itself and adds no factor; after
    one that scaled ``v`` its content is divided out, and once more when
    it is stored.  The pivot is always the least key, so every step is a
    nonzero multiple of the rational one and every accept or reject the
    same.  Stored rows are primitive with a positive pivot entry.
    """

    def __init__(self):
        self.pivots: Dict[object, Dict[object, int]] = {}

    def add(self, elem) -> bool:
        v = dict(elem)
        if len(v) != len(elem):  # a repeated key (maps are not validated)
            v = {}
            for k, c in elem:
                v[k] = v.get(k, 0) + c
        # a zero entry must never become a pivot
        if 0 in v.values():
            v = {k: c for k, c in v.items() if c}
        if not _all_ints(v.items()):
            den = lcm(*[c.denominator for c in v.values()])
            v = {k: c.numerator * (den // c.denominator) for k, c in v.items()}
        return self._reduce(v)

    def _reduce(self, v: Dict[object, int]) -> bool:
        """``add`` for a dict of nonzero ints, which it takes over."""
        pivots = self.pivots
        while v:
            p = min(v)
            row = pivots.get(p)
            if row is None:
                g = gcd(*v.values())
                if v[p] < 0:
                    g = -g
                if g != 1:
                    v = {k: c // g for k, c in v.items()}
                pivots[p] = v
                return True
            a, b = v[p], row[p]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                v = {k: c * b for k, c in v.items()}
            get = v.get
            for k, c in row.items():  # the pivot entry cancels exactly
                nc = get(k, 0) - a * c
                if nc:
                    v[k] = nc
                else:
                    del v[k]
            if b != 1:
                g = gcd(*v.values())
                if g > 1:
                    v = {k: c // g for k, c in v.items()}
        return False


IMAGE_CACHE_SIZE = 1024
"""The most (``image_fn``, basis key) images ``linear_operator`` keeps."""

_basis_key = operator.itemgetter(0)
_coefficient = operator.itemgetter(1)


def _all_ints(terms) -> bool:
    """Whether every coefficient of ``terms`` is an ``int``, by one type check."""
    return {int}.issuperset(map(type, map(_coefficient, terms)))


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE, typed=True)
def _image(image_fn: Callable, key) -> Tuple[tuple, bool]:
    """``image_fn(key)`` as a tuple of checked terms, and whether all are ints.

    Each term passes the one term check, ``_term``, which names ``key`` in
    its refusals and puts the coefficient in normal form, so a bool becomes
    an int; ``linear_operator`` sums and sorts.  The check runs once per
    cached image, and the tuple keeps a generator from being shared half-used.
    """
    of = (key,)
    terms = tuple([_term(term, of) for term in image_fn(key)])
    return terms, _all_ints(terms)


def linear_operator(backend: LinearBackend, image_fn: Callable) -> Callable:
    """Extend a basis-key map linearly to vectors.

    ``image_fn`` sends a basis key to an iterable of (key, coeff) pairs,
    each coefficient an int or a ``Fraction``; an empty iterable
    annihilates the basis vector.  It must be a pure function of the key:
    its images are checked and kept in a bounded cache shared by the whole
    process (``IMAGE_CACHE_SIZE`` entries, keyed by ``image_fn`` and the
    key), so it is not called again for a key whose image is still held.
    Outputs are in the backend's normal form.  When the input and the
    images are all ints, so is the whole computation; otherwise the input
    is scaled to integers over one common denominator, and a ``Fraction``
    is built only for an output coefficient that is not integral.  A
    malformed term, a coefficient of another type, an unhashable basis
    key, or two output keys that do not order are ``InputError``s; an
    exception raised inside ``image_fn`` passes through unchanged.  Output
    keys are sorted by ``matroid._sort_or_refuse``, as ``vector``'s are,
    so keys must be totally ordered: two that a partial order such as
    frozensets' leaves unordered are refused on every output that holds
    both, whatever order the images list them in.
    """
    try:
        hash(image_fn)
    except TypeError:
        raise InputError(f"image_fn {image_fn!r} is not hashable") from None

    def op(elem):
        den = 1
        if not _all_ints(elem):
            den = lcm(*[c.denominator for _, c in elem])
            elem = [(k, c.numerator * (den // c.denominator)) for k, c in elem]
        whole = den == 1
        acc: Dict[object, int | Fraction] = {}
        get = acc.get
        try:
            for k, n in elem:
                terms, integral = _image(image_fn, k)
                if not integral:
                    whole = False
                for k2, c2 in terms:
                    acc[k2] = get(k2, 0) + n * c2
        except TypeError as exc:
            # an unhashable input key is the vector's fault; a TypeError
            # raised inside image_fn is passed on as it is
            for k, _ in elem:
                try:
                    hash(k)
                except TypeError:
                    raise InputError(
                        "linear maps take vectors with a hashable basis key in "
                        f"every term: {exc}"
                    ) from exc
            raise
        if whole:
            out = list(filter(_coefficient, acc.items()))
        else:
            out = [(k, _exact(Fraction(c, den))) for k, c in acc.items() if c]
        return tuple(_sort_or_refuse(out, "basis key", _basis_key))

    return op


def make_monomial_module_system(
    num_vars: int,
    part_sizes: Sequence[int],
    generators: Sequence,
    relations: Sequence = (),
) -> Tuple[OperatorSystem, List[Vector]]:
    """Multiplication maps on a monomial quotient of a polynomial ring.

    The module is the ring in ``num_vars`` variables modulo the monomial
    ideal generated by ``relations``; monomials stay a canonical basis,
    so elimination remains sparse.  Returns the system and the seed
    vectors for ``generators``, the zero vector for one inside the ideal.
    Non-monomial relations are rejected.  Exponents move by unit
    translations and the relations are killed, so the system proves a
    stabilization bound for any monomial or zero seeds (``graded_bound``).
    """
    partition = Partition(part_sizes)
    if partition.m != num_vars:
        raise InputError(
            f"partition covers {partition.m} maps but there are {num_vars} variables"
        )

    rel = [natural_index(r, num_vars, "relation") for r in relations]

    def killed(mono: Tuple[int, ...]) -> bool:
        return any(product_leq(r, mono) for r in rel)

    backend = LinearBackend()
    unit = _unit_vectors(partition)

    def shift(e):
        def image(key):
            nxt = tuple(map(operator.add, key, e))
            return () if killed(nxt) else ((nxt, 1),)

        return linear_operator(backend, image)

    maps = [shift(e) for vecs in unit for e in vecs]
    seeds = []
    for g in generators:
        mono = natural_index(g, num_vars, "generator")
        seeds.append(backend.zero if killed(mono) else backend.monomial(mono))
    sys = OperatorSystem(maps, partition, backend, translations=unit, killed=rel)
    return sys, seeds


# ---------------------------------------------------------------------------
# graphic backend: union-find rank of edge sets
# ---------------------------------------------------------------------------

class GraphicBackend(RankOracle):
    """Undirected edges ranked by vertices-touched minus components.

    Elements are (u, v) or (u, v, tag) tuples; loops are legitimate
    elements of rank zero, and tags distinguish parallel edges.  An edge is
    the tuple it is: its reversed spelling, or an empty tag, is a parallel
    edge, of the same effect on rank.
    """

    def endpoints(self, elem) -> Tuple[object, object]:
        if not isinstance(elem, tuple) or len(elem) not in (2, 3):
            raise InputError(f"not an edge: {elem!r}")
        return elem[0], elem[1]

    def validate(self, elem):
        self.endpoints(elem)

    def basis_builder(self) -> BasisBuilder:
        return _ForestBuilder(self)


class _ForestBuilder(BasisBuilder):
    """Counts successful unions: rank gain iff the edge joins two components."""

    def __init__(self, oracle: GraphicBackend):
        self.oracle = oracle
        self.parent: Dict[object, object] = {}

    def _find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def add(self, elem) -> bool:
        u, v = self.oracle.endpoints(elem)
        if u == v:
            return False
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return False
        self.parent[rv] = ru
        return True


def vertex_map_edge_operator(vmap) -> Callable:
    """Edge map induced by a vertex self-map; collapsed edges become loops."""
    f = vmap.__getitem__ if isinstance(vmap, dict) else vmap

    def op(edge):
        u, v = f(edge[0]), f(edge[1])
        lo, hi = (u, v) if not v < u else (v, u)
        return (lo, hi) + tuple(edge[2:])

    return op


class CounterexampleGraphicBackend(GraphicBackend):
    """Lazily generated gadget chain whose graded ranks oscillate.

    Edges are labeled ("a"|"b"|"c", i).  Even indices 2j form a triangle
    on hub j, hub j+1 and a lower vertex; odd indices 2j+1 form a
    three-edge path between hub j and hub j+1 through two upper vertices.
    The label shift ("x", i) -> ("x", i+1) is a quasi-endomorphism of the
    graphic matroid but not an endomorphism, and the rank of the shifted
    seed triple alternates between 2 and 3.
    """

    KINDS = ("a", "b", "c")

    def __init__(self, max_index: int = 64):
        self.max_index = max_index

    def validate(self, elem):
        if (
            not isinstance(elem, tuple)
            or len(elem) != 2
            or elem[0] not in self.KINDS
            or not is_int(elem[1])
            or elem[1] < 0
        ):
            raise InputError(f"not a gadget edge: {elem!r}")
        if elem[1] > self.max_index:
            raise OutOfBoxError(
                f"edge index {elem[1]} beyond generated range {self.max_index}; "
                "rebuild the graph with a larger depth"
            )

    def endpoints(self, elem):
        self.validate(elem)
        kind, i = elem
        j, odd = divmod(i, 2)
        if kind == "a":
            return (("u", j), ("p", j)) if odd else (("u", j), ("u", j + 1))
        if kind == "b":
            return (("p", j), ("q", j)) if odd else (("w", j), ("u", j))
        return (("q", j), ("u", j + 1)) if odd else (("u", j + 1), ("w", j))

    def shift(self, elem):
        kind, i = elem
        if i + 1 > self.max_index:
            raise OutOfBoxError(
                f"shift past generated range at index {i}; "
                "rebuild the graph with a larger depth"
            )
        return (kind, i + 1)


def make_counterexample_graph(depth: int = 64) -> Tuple[OperatorSystem, List]:
    """The oscillating quasi-endomorphism system and its seed edge triple."""
    backend = CounterexampleGraphicBackend(depth)
    sys = OperatorSystem(
        [backend.shift], Partition([1]), backend, part_flags=(QUASI_TRIANGULAR,)
    )
    return sys, [("a", 0), ("b", 0), ("c", 0)]


def make_graphic_system(
    vertex_maps: Sequence,
    part_sizes: Sequence[int],
) -> OperatorSystem:
    """Vertex-map-induced edge operators over the graphic backend.

    Vertex maps induce matroid endomorphisms (images of paths are walks),
    so every part is declared triangular.  A graphic rank depends only on the
    edges it is given, so the system needs no ambient graph.
    """
    maps = [vertex_map_edge_operator(vm) for vm in vertex_maps]
    return OperatorSystem(maps, Partition(part_sizes), GraphicBackend())


# ---------------------------------------------------------------------------
# chain backend: simplicial complexes, free and boundary ranks
# ---------------------------------------------------------------------------

ZERO_CHAIN = ("0",)


class SimplicialComplex:
    """Finite simplicial complex stored as face-closed sorted vertex tuples."""

    def __init__(self, simplices: Iterable):
        self.simplices = set()
        for s in simplices:
            verts = tuple(sorted(set(s)))
            if not verts:
                raise InputError("empty simplex")
            for r in range(1, len(verts) + 1):
                for face in itertools.combinations(verts, r):
                    self.simplices.add(face)

    def __contains__(self, verts) -> bool:
        return tuple(sorted(set(verts))) in self.simplices

    def of_dimension(self, n: int) -> List[Tuple]:
        return sorted(s for s in self.simplices if len(s) == n + 1)

    def subcomplex_closed(self, simplices: Iterable) -> bool:
        want = {tuple(sorted(set(s))) for s in simplices}
        return want <= self.simplices and SimplicialComplex(want).simplices == want


class ChainFreeOracle(RankOracle):
    """Free rank of the subgroup generated by n-simplices: count them."""

    def __init__(self, complex_: SimplicialComplex, n: int):
        self.complex = complex_
        self.n = n

    def validate(self, elem):
        if elem == ZERO_CHAIN:
            return
        if (
            not isinstance(elem, tuple)
            or len(elem) != 2
            or elem[0] != "s"
            or len(elem[1]) != self.n + 1
        ):
            raise InputError(f"not a {self.n}-simplex element: {elem!r}")
        if elem[1] not in self.complex.simplices:
            raise InputError(f"simplex {elem[1]} is not in the complex")

    def basis_builder(self) -> BasisBuilder:
        return _SetBuilder(lambda elem: elem != ZERO_CHAIN)


class ChainBoundaryOracle(ChainFreeOracle):
    """Rank of boundary images of n-simplices, by exact elimination.

    Simplices are oriented by sorted vertex order with alternating signs;
    the collapsed chain element has boundary zero.  The elements, and
    their validation, are the free oracle's.
    """

    def boundary(self, elem) -> Dict[Tuple, int]:
        if elem == ZERO_CHAIN or self.n == 0:
            return {}
        verts = elem[1]
        out = {}
        for j in range(len(verts)):
            face = verts[:j] + verts[j + 1 :]
            out[face] = out.get(face, 0) + (-1) ** j
        return {k: v for k, v in out.items() if v}

    def basis_builder(self) -> BasisBuilder:
        return _BoundaryBuilder(self)


class _BoundaryBuilder(_EchelonBuilder):
    """Eliminates each chain's integer boundary."""

    def __init__(self, oracle: ChainBoundaryOracle):
        super().__init__()
        self.oracle = oracle

    def add(self, elem) -> bool:
        return self._reduce(self.oracle.boundary(elem))


def simplicial_operator(complex_: SimplicialComplex, vmap, n: int) -> Callable:
    """Chain map on dimension-n elements induced by a simplicial vertex map.

    Collapsing images (fewer distinct vertices) go to the zero element,
    matching the induced map on chain groups.
    """
    f = vmap.__getitem__ if isinstance(vmap, dict) else vmap

    def op(elem):
        if elem == ZERO_CHAIN:
            return ZERO_CHAIN
        image = tuple(sorted({f(v) for v in elem[1]}))
        if len(image) != n + 1:
            return ZERO_CHAIN
        return ("s", image)

    return op


def validate_simplicial(complex_: SimplicialComplex, vmap) -> None:
    f = vmap.__getitem__ if isinstance(vmap, dict) else vmap
    for s in sorted(complex_.simplices):
        try:
            image = {f(v) for v in s}
        except KeyError as exc:
            raise InputError(f"vertex map has no image for vertex {exc}") from None
        if image not in complex_:
            raise InputError(
                f"vertex map is not simplicial: simplex {s} maps to {sorted(image)}, "
                "which is not in the complex"
            )


@dataclass
class BettiResult:
    """Growth polynomials of the three chain ranks and their difference."""

    free: PipelineResult
    boundary: PipelineResult
    boundary_up: PipelineResult
    betti: GrowthPolynomial

    @property
    def status(self) -> str:
        """Certified when all three chain-rank runs are."""
        runs = (self.free, self.boundary, self.boundary_up)
        return CERTIFIED if all(r.status == CERTIFIED for r in runs) else BOX_TRUNCATED


def betti_polynomials(
    complex_: SimplicialComplex,
    vertex_maps: Sequence,
    part_sizes: Sequence[int],
    A: Iterable,
    n: int,
    cfg: StabilizationConfig | None = None,
    cumulative: bool = False,
) -> BettiResult:
    """Growth polynomial of the n-th Betti number of orbit subcomplexes.

    The Betti number of a subcomplex is the free rank of its n-chains
    minus its boundary rank in dimensions n and n+1; each of the three
    ranks gets its own pipeline run and the polynomials are subtracted,
    with the threshold the coordinatewise max of the three.
    """
    if not is_int(n) or n < 0:
        raise InputError(f"homology dimension must be an integer >= 0, got {n!r}")
    vertex_maps = list(vertex_maps)
    for vm in vertex_maps:
        validate_simplicial(complex_, vm)
    A_simplices = [tuple(sorted(set(s))) for s in A]
    if not complex_.subcomplex_closed(A_simplices):
        raise InputError("seed is not a face-closed subcomplex of the complex")
    partition = Partition(part_sizes)

    def run(oracle: RankOracle, dim: int) -> PipelineResult:
        maps = [simplicial_operator(complex_, vm, dim) for vm in vertex_maps]
        sys = OperatorSystem(maps, partition, oracle)
        seed = [("s", s) for s in A_simplices if len(s) == dim + 1]
        if cumulative:
            return analyze_cumulative(sys, seed, (), cfg)
        return analyze_graded(sys, seed, (), cfg)

    free = run(ChainFreeOracle(complex_, n), n)
    boundary = run(ChainBoundaryOracle(complex_, n), n)
    boundary_up = run(ChainBoundaryOracle(complex_, n + 1), n + 1)
    betti = free.polynomial.subtract(boundary.polynomial).subtract(
        boundary_up.polynomial
    )
    return BettiResult(free, boundary, boundary_up, betti)


# ---------------------------------------------------------------------------
# circuit backend: explicit circuit families with greedy independence
# ---------------------------------------------------------------------------

class CircuitBackend(RankOracle):
    """Degree-partitioned ground set with explicit circuits per degree.

    Independence means containing no circuit; the rank of a set is the
    size of a greedily built maximal independent subset, which is valid
    precisely when the families define a matroid (direct sum over
    degrees).  Validity is spot-checked, not certified.
    """

    def __init__(self, circuits: Dict[Tuple[int, ...], Iterable]):
        self.circuits: Dict[Tuple[int, ...], Tuple[frozenset, ...]] = {}
        for deg, fams in circuits.items():
            fams = tuple(frozenset(c) for c in fams)
            for c in fams:
                if not c:
                    raise InputError("empty circuit")
            for c1, c2 in itertools.combinations(fams, 2):
                if c1 <= c2 or c2 <= c1:
                    raise InputError(
                        f"circuits at degree {deg} are not an antichain: "
                        f"{sorted(c1)} vs {sorted(c2)}"
                    )
            self.circuits[tuple(deg)] = fams

    def validate(self, elem):
        if not isinstance(elem, tuple) or len(elem) != 2:
            raise InputError(f"expected a (degree, payload) element, got {elem!r}")

    def degree(self, elem) -> Tuple[int, ...]:
        return tuple(elem[0])

    def basis_builder(self) -> BasisBuilder:
        return _GreedyCircuitBuilder(self)


class _GreedyCircuitBuilder(BasisBuilder):
    def __init__(self, oracle: CircuitBackend):
        self.oracle = oracle
        self.accepted: Dict[Tuple[int, ...], set] = {}

    def add(self, elem) -> bool:
        deg = self.oracle.degree(elem)
        payload = elem[1]
        bucket = self.accepted.setdefault(deg, set())
        if payload in bucket:
            return False
        tentative = bucket | {payload}
        for c in self.oracle.circuits.get(deg, ()):
            if c <= tentative:
                return False
        bucket.add(payload)
        return True


AXIOM_CHECKS = 60
"""Sampled subsets on which ``make_circuit_backend`` checks the rank axioms."""


def make_circuit_backend(
    part_sizes: Sequence[int],
    circuits: Dict[Tuple[int, ...], Iterable],
    maps: Sequence[Callable],
    sample_elements: Sequence = (),
) -> OperatorSystem:
    """Operator system over an explicitly given circuit matroid.

    The circuit family cannot be certified from finite data, so sampled
    rank-axiom checks on subsets of ``sample_elements`` are run and any
    failure is fatal.  Maps are checked to shift an element's degree by
    the unit vector of their part.
    """
    partition = Partition(part_sizes)
    backend = CircuitBackend(circuits)
    sys = OperatorSystem(maps, partition, backend)
    sample = backend.dedupe(sample_elements)
    if sample:
        rng = random.Random(1729)
        pool = [
            rng.sample(sample, k=rng.randint(0, min(4, len(sample))))
            for _ in range(AXIOM_CHECKS)
        ]
        failures = check_rank_axioms(backend, pool, rng)
        if failures:
            raise InvalidMatroidError(
                f"circuit family failed a sampled matroid axiom: {failures[0]}"
            )
        for idx, op in enumerate(sys.maps):
            part = partition.part_of(idx)
            for e in sample:
                img = op(e)
                want = tuple(
                    d + (1 if i == part else 0)
                    for i, d in enumerate(backend.degree(e))
                )
                if backend.degree(img) != want:
                    raise InputError(
                        f"map {idx + 1} does not shift degree by the part unit: "
                        f"{e!r} -> {img!r}"
                    )
    return sys


# ---------------------------------------------------------------------------
# convenience: linear system over plain polynomial rings
# ---------------------------------------------------------------------------

def make_polynomial_ring_system(
    num_vars: int, part_sizes: Sequence[int] | None = None
) -> Tuple[OperatorSystem, List[Vector]]:
    """Multiplication maps on the full polynomial ring, seeded with 1."""
    if part_sizes is None:
        part_sizes = [num_vars]
    sys, seeds = make_monomial_module_system(
        num_vars, part_sizes, [(0,) * num_vars]
    )
    return sys, seeds
