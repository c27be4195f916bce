"""Concrete rank-oracle backends and their operator-system constructors.

Six rank structures: set cardinality, lattice-ideal counting, exact
rational linear algebra over a countable basis, the graphic matroid via
union-find, simplicial chain groups with their boundary ranks, and
explicit circuit families with greedy independence.  Each comes with the
natural way to build commuting operator systems on top of it.
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
from .matroid import BasisBuilder, RankOracle, check_rank_axioms
from .operators import (
    OperatorSystem,
    Partition,
    QUASI_TRIANGULAR,
    is_int,
    product_leq,
)


# ---------------------------------------------------------------------------
# trivial backend: rank is cardinality
# ---------------------------------------------------------------------------

class TrivialBackend(RankOracle):
    """Integer vectors of a fixed dimension with the trivial closure:
    the rank of a finite set is its cardinality."""

    def __init__(self, dimension: int = 1):
        if not is_int(dimension) or dimension < 1:
            raise InputError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.dimension = dimension

    def validate(self, elem):
        if (
            not isinstance(elem, tuple)
            or len(elem) != self.dimension
            or not all(map(is_int, elem))
        ):
            raise InputError(
                f"expected an integer vector of dimension {self.dimension}, "
                f"got {elem!r}"
            )

    def basis_builder(self) -> BasisBuilder:
        return _SetBuilder(lambda elem: True)


class _SetBuilder(BasisBuilder):
    """Rank of a set matroid: the number of distinct elements that count.

    Serves every oracle whose canonical key is the element itself.
    """

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


def make_sumset_system(*summands) -> OperatorSystem:
    """Translation maps grouped by summand set over the trivial backend.

    One map x -> x + b per element b of each set; graded orbits of a seed
    set A are then the sumsets A + s_1 B_1 + ... + s_k B_k, in the dimension
    of the first vector.  Translations are endomorphisms, so every part is
    triangular.  The system keeps its vectors, from which it proves a
    stabilization bound for any seed set (``OperatorSystem.graded_bound``).
    """
    if not summands:
        raise InputError("at least one summand set is required")
    normalized = []
    for B in summands:
        vecs = sorted({as_vector(b) for b in B})
        if not vecs:
            raise InputError("summand sets must be nonempty")
        normalized.append(vecs)
    dim = len(normalized[0][0])
    for vecs in normalized:
        for v in vecs:
            if len(v) != dim:
                raise InputError(f"vector {v} does not have dimension {dim}")
    maps = [translation(v) for vecs in normalized for v in vecs]
    partition = Partition([len(vecs) for vecs in normalized])
    return OperatorSystem(maps, partition, TrivialBackend(dim), translations=normalized)


# ---------------------------------------------------------------------------
# ideal-count backend: rank is the number of points inside a lattice ideal
# ---------------------------------------------------------------------------

class IdealCountBackend(RankOracle):
    """Points of N^m ranked by membership in a downward-closed set.

    The ideal is represented by the finite antichain of minimal points of
    its complement: a point lies in the ideal iff no antichain element is
    coordinatewise below it.  This is the localization of the trivial
    matroid at the (possibly infinite) complement, given finitely.
    """

    def __init__(self, num_coords: int, complement_antichain: Sequence = ()):
        if not is_int(num_coords) or num_coords < 1:
            raise InputError(
                f"number of coordinates must be an integer >= 1, got {num_coords!r}"
            )
        self.num_coords = num_coords
        ac = sorted({as_vector(a, num_coords) for a in complement_antichain})
        for a in ac:
            if any(x < 0 for x in a):
                raise InputError(f"antichain point {a} has a negative coordinate")
        for a, b in itertools.combinations(ac, 2):
            if product_leq(a, b) or product_leq(b, a):
                raise InputError(f"antichain points {a} and {b} are comparable")
        self.antichain = tuple(ac)

    def validate(self, elem):
        if (
            not isinstance(elem, tuple)
            or len(elem) != self.num_coords
            or not all(is_int(x) and x >= 0 for x in elem)
        ):
            raise InputError(
                f"expected a point of N^{self.num_coords}, got {elem!r}"
            )

    def contains(self, point: Tuple[int, ...]) -> bool:
        le = operator.le
        for a in self.antichain:
            if all(map(le, a, point)):
                return False
        return True

    def basis_builder(self) -> BasisBuilder:
        return _SetBuilder(self.contains)


def coordinate_increment(i: int) -> Callable:
    def op(x):
        return x[:i] + (x[i] + 1,) + x[i + 1 :]

    return op


def _unit_vectors(partition: Partition) -> List[List[Tuple[int, ...]]]:
    """Each part's unit vectors of Z^m, one per map raising a coordinate."""
    unit = [tuple(int(i == c) for i in range(partition.m)) for c in range(partition.m)]
    return [unit[partition.part_slice(i)] for i in range(partition.k)]


def make_ideal_system(
    complement_antichain: Sequence, part_sizes: Sequence[int]
) -> Tuple[OperatorSystem, List]:
    """Coordinate-increment maps on N^m over the ideal-count backend.

    Returns the system together with its canonical seed, the origin: the
    graded orbit of the origin at part degree s is every point of that
    degree, so its rank counts the ideal's points of degree s, and the
    cumulative orbit counts points of degree at most s.  Its unit
    translations and killed antichain prove a stabilization bound for any
    seed set (``OperatorSystem.graded_bound``).
    """
    partition = Partition(part_sizes)
    m = partition.m
    backend = IdealCountBackend(m, complement_antichain)
    maps = [coordinate_increment(i) for i in range(m)]
    sys = OperatorSystem(
        maps, partition, backend, translations=_unit_vectors(partition),
        killed=backend.antichain,
    )
    return sys, [(0,) * m]


# ---------------------------------------------------------------------------
# linear backend: exact rational vectors over a countable basis
# ---------------------------------------------------------------------------

Vector = Tuple[Tuple[object, Union[int, Fraction]], ...]


def _exact(c: int | Fraction) -> int | Fraction:
    """``c`` in normal form: a plain ``int`` when it is integral (so never
    a bool), else the ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _check_orderable(keys) -> None:
    """Raise an ``InputError`` naming two of ``keys`` that do not order."""
    for a, b in itertools.combinations(keys, 2):
        try:
            sorted((a, b))
            sorted((b, a))
        except TypeError:
            raise InputError(f"basis keys {a!r} and {b!r} do not order") from None


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
        """Canonical vector of (key, int or Fraction) pairs or a dict.

        Coefficients of one key are summed and zero sums dropped.  A
        coefficient of another type, and a key that does not hash or does
        not order with the others, are ``InputError``s naming it.
        """
        acc: Dict[object, int | Fraction] = {}
        pairs = items.items() if isinstance(items, dict) else items
        for k, c in pairs:
            if not isinstance(c, (int, Fraction)):
                raise InputError(
                    f"coefficient {c!r} of basis key {k!r} is not an int or a Fraction"
                )
            try:
                hash(k)
            except TypeError:
                raise InputError(f"basis key {k!r} is not hashable") from None
            acc[k] = acc.get(k, 0) + c
        out = [(k, _exact(c)) for k, c in acc.items() if c]
        try:
            out.sort()
        except TypeError:
            _check_orderable([k for k, _ in out])
            raise
        return tuple(out)

    def monomial(self, key, coeff=1) -> Vector:
        return self.vector([(key, coeff)])

    zero: Vector = ()

    def validate(self, elem):
        try:
            canonical = (
                isinstance(elem, tuple)
                and all(
                    isinstance(p, tuple)
                    and len(p) == 2
                    and isinstance(p[1], (int, Fraction))
                    and not isinstance(p[1], bool)
                    and p[1] != 0
                    for p in elem
                )
                and all(p[0] < q[0] for p, q in zip(elem, elem[1:]))
            )
            if canonical:
                # keys index dicts and the image cache of ``linear_operator``
                for p in elem:
                    hash(p[0])
        except TypeError:  # keys that do not order or do not hash
            canonical = False
        if not canonical:
            raise InputError(f"not a canonical vector: {elem!r}")

    def key(self, elem):
        return tuple((k, (c.numerator, c.denominator)) for k, c in elem)

    def points(self, elem) -> Tuple:
        """The basis keys of the terms: a monomial's exponent vector, none
        for the zero vector."""
        return tuple(k for k, _ in elem)

    def basis_builder(self) -> BasisBuilder:
        return _EchelonBuilder()


class _EchelonBuilder(BasisBuilder):
    """Sparse echelon rows of primitive integers, keyed by pivot basis key.

    Fraction-free (the integer-preserving elimination of Bareiss 1968): an
    incoming vector of ints is taken as it is, any other is scaled to
    integers by the lcm of its denominators, and each step replaces it by
    ``b*v - a*row`` with ``a/b`` the ratio of the pivot entries in lowest
    terms, then divides out its content.  The pivot is always the least
    key, so every step is a nonzero multiple of the rational one and every
    accept or reject the same.  Stored rows are primitive with a positive
    pivot entry.
    """

    def __init__(self):
        self.pivots: Dict[object, Dict[object, int]] = {}

    def add(self, elem) -> bool:
        # a zero entry (a map may return a non-canonical vector) must never
        # become a pivot
        v = {k: c for k, c in elem if c}
        if not {int}.issuperset(map(type, v.values())):  # not all ints
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
                    for k in v:
                        v[k] //= g
                pivots[p] = v
                return True
            a, b = v.pop(p), row[p]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                for k in v:
                    v[k] *= b
            for k, c in row.items():
                if k != p:
                    nc = v.get(k, 0) - a * c
                    if nc:
                        v[k] = nc
                    else:
                        del v[k]
            g = gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
        return False


IMAGE_CACHE_SIZE = 1024
"""The most (``image_fn``, basis key) images ``linear_operator`` keeps."""

_coefficient = operator.itemgetter(1)


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE, typed=True)
def _image(image_fn: Callable, key) -> Tuple[tuple, bool]:
    """``image_fn(key)`` as a tuple of checked terms, and whether all are ints.

    Each term must pair a hashable basis key with an int or a ``Fraction``;
    its coefficient is put in normal form, so a bool becomes an int.  The
    check runs once per cached image, and the tuple keeps a generator from
    being shared half-used.
    """
    terms = []
    for term in image_fn(key):
        try:
            k, c = term
            hash(k)
        except (TypeError, ValueError):
            raise InputError(
                f"image term {term!r} of basis key {key!r} does not pair a "
                "hashable basis key with a coefficient"
            ) from None
        if type(c) is not int:
            if not isinstance(c, (int, Fraction)):
                raise InputError(
                    f"coefficient {c!r} in the image of basis key {key!r}: linear "
                    "map coefficients must be ints or Fractions"
                )
            c = _exact(c)
        terms.append((k, c))
    return tuple(terms), all(type(c) is int for _, c in terms)


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
    key, or output keys that do not order are ``InputError``s; an
    exception raised inside ``image_fn`` passes through unchanged.
    """
    try:
        hash(image_fn)
    except TypeError:
        raise InputError(f"image_fn {image_fn!r} is not hashable") from None

    def op(elem):
        den = lcm(*[c.denominator for _, c in elem])
        whole = den == 1
        acc: Dict[object, int | Fraction] = {}
        get = acc.get
        try:
            for k, c in elem:
                n = c * den if type(c) is int else c.numerator * (den // c.denominator)
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
        try:
            out.sort()
        except TypeError:
            _check_orderable([k for k, _ in out])
            raise
        return tuple(out)

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

    def as_monomial(x, what: str) -> Tuple[int, ...]:
        try:
            mono = as_vector(x, num_vars)
        except InputError as exc:
            raise InputError(
                f"unsupported {what}: {x!r} is not a monomial: {exc}"
            ) from exc
        if any(e < 0 for e in mono):
            raise InputError(f"unsupported {what}: {x!r} has negative exponents")
        return mono

    rel = [as_monomial(r, "relation") for r in relations]

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
        mono = as_monomial(g, "generator")
        seeds.append(backend.zero if killed(mono) else backend.monomial(mono))
    sys = OperatorSystem(maps, partition, backend, translations=unit, killed=rel)
    return sys, seeds


# ---------------------------------------------------------------------------
# graphic backend: union-find rank of edge sets
# ---------------------------------------------------------------------------

class GraphicBackend(RankOracle):
    """Undirected edges ranked by vertices-touched minus components.

    Elements are (u, v) or (u, v, tag) tuples; loops are legitimate
    elements of rank zero, and tags distinguish parallel edges.
    """

    def endpoints(self, elem) -> Tuple[object, object]:
        if not isinstance(elem, tuple) or len(elem) not in (2, 3):
            raise InputError(f"not an edge: {elem!r}")
        return elem[0], elem[1]

    def key(self, elem):
        u, v = self.endpoints(elem)
        tag = elem[2] if len(elem) > 2 else ""
        return (min(u, v), max(u, v), tag)

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

    def key(self, elem):
        self.validate(elem)
        return elem

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
    part_flags: Sequence[str] | None = None,
) -> OperatorSystem:
    """Vertex-map-induced edge operators over the graphic backend.

    Vertex maps induce matroid endomorphisms (images of paths are walks),
    so parts default to triangular.  A graphic rank depends only on the
    edges it is given, so the system needs no ambient graph.
    """
    maps = [vertex_map_edge_operator(vm) for vm in vertex_maps]
    return OperatorSystem(maps, Partition(part_sizes), GraphicBackend(), part_flags)


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
        for s in want:
            if s not in self.simplices:
                return False
            for r in range(1, len(s)):
                for face in itertools.combinations(s, r):
                    if face not in want:
                        return False
        return True


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
    for vm in vertex_maps:
        validate_simplicial(complex_, vm)
    A_simplices = [tuple(sorted(set(s))) for s in A]
    if not complex_.subcomplex_closed(A_simplices):
        raise InputError("seed is not a face-closed subcomplex of the complex")
    partition = Partition(part_sizes)
    if partition.m != len(vertex_maps):
        raise InputError("one vertex map per operator slot required")

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
    part_flags: Sequence[str] | None = None,
) -> OperatorSystem:
    """Operator system over an explicitly given circuit matroid.

    The circuit family cannot be certified from finite data, so sampled
    rank-axiom checks on subsets of ``sample_elements`` are run and any
    failure is fatal.  Maps are checked to shift an element's degree by
    the unit vector of their part.
    """
    partition = Partition(part_sizes)
    if len(maps) != partition.m:
        raise InputError("one map per operator slot required")
    backend = CircuitBackend(circuits)
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
        for idx, op in enumerate(maps):
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
    return OperatorSystem(maps, partition, backend, part_flags)


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
