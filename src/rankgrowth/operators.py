"""Multi-index machinery and commuting operator systems.

An operator system is a tuple of m commuting self-maps of a matroid
ground set together with a partition of the maps into k consecutive
blocks.  Words are multi-indices in N^m; their one enumeration
(``part_blocks``), the word lattice that indexes it (``_word_lattice``)
and the one walk of that lattice (``_images``), a word's image by its
plain definition, graded orbits, augmentation by the identity map (whose
graded orbits are the cumulative ones) and the sampled hypothesis checks
all live here.  Tabulation and the checks step the same walk, slice by
slice, and it steps nothing from a pair set to ``_SKIPPED``: tabulation
sets the pairs a translation system's builder rejects, and the checks
wrap each map with ``_skipping``, which gives ``_SKIPPED`` for a point the
map cannot take.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, OperatorError
from .matroid import RankOracle

MultiIndex = Tuple[int, ...]

TRIANGULAR = "triangular"
QUASI_TRIANGULAR = "quasi-triangular"

MAX_WORDS = 2_000_000
"""Work budget: the most words a table, verification or system check may walk."""


def check_budget(words: int, doing: str, then: str) -> None:
    """Refuse work of more than ``MAX_WORDS`` words with the one ``InputError`` text."""
    if words > MAX_WORDS:
        limit = f"over the limit of {MAX_WORDS:,}"
        raise InputError(f"{doing} needs {words:,} words, {limit}; {then}")


def is_int(x) -> bool:
    """Whether ``x`` is an integer proper: ``bool`` and floats are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def natural_index(x, n: Optional[int], what: str) -> MultiIndex:
    """``x`` as a tuple if it is a list or tuple of ``n`` integers >= 0, of any
    length when ``n`` is None, else an ``InputError``: the one check for a
    point of N^n."""
    sized = isinstance(x, (list, tuple)) and (n is None or len(x) == n)
    if sized and all(is_int(c) and c >= 0 for c in x):
        return tuple(x)
    where = "natural numbers" if n is None else f"a point of N^{n}"
    raise InputError(f"{what} must be {where} (integers >= 0), got {x!r}")


def lex_key(r: MultiIndex) -> MultiIndex:
    """Sort key realizing the last-coordinate-emphasis lexicographic order."""
    return tuple(reversed(r))


def product_leq(r: MultiIndex, s: MultiIndex) -> bool:
    """Product (coordinatewise) order on multi-indices."""
    return all(a <= b for a, b in zip(r, s))


class Partition:
    """Consecutive grouping of m operator slots into k blocks of sizes d_i."""

    def __init__(self, part_sizes: Sequence[int]):
        sizes = tuple(part_sizes)
        if not sizes or not all(is_int(d) and d >= 1 for d in sizes):
            raise InputError(f"part sizes must be positive integers, got {sizes!r}")
        self.part_sizes = sizes
        self.k = len(sizes)
        self.m = sum(sizes)
        self.breakpoints = tuple(itertools.accumulate((0,) + sizes))  # k+1 entries

    def part_slice(self, i: int) -> slice:
        return slice(self.breakpoints[i], self.breakpoints[i + 1])

    def part_of(self, slot: int) -> int:
        """Index of the part that owns operator slot ``slot``."""
        if not 0 <= slot < self.m:
            raise InputError(f"operator slot {slot} outside 0..{self.m - 1}")
        return bisect.bisect_right(self.breakpoints, slot) - 1

    def part_degree(self, r: MultiIndex) -> MultiIndex:
        if len(r) != self.m:
            raise InputError(f"multi-index length {len(r)} != m = {self.m}")
        return tuple(sum(r[self.part_slice(i)]) for i in range(self.k))

    def words_of_part_degree(self, s: MultiIndex) -> List[MultiIndex]:
        """All words r with part degree s, ascending in the lex order, from the
        one enumeration: ``part_blocks``, joined by ``join_blocks``."""
        s = natural_index(s, self.k, "part degree")
        return join_blocks(part_blocks(d, t, t)[0] for d, t in zip(self.part_sizes, s))

    def word_count(self, lo: MultiIndex, hi: MultiIndex) -> int:
        """Number of words whose part degree s has lo <= s <= hi (lo in N^k)."""
        # per part, the words of degree at most hi_i less those below lo_i
        return math.prod(
            math.comb(max(b, a - 1) + d, d) - math.comb(a - 1 + d, d)
            for a, b, d in zip(lo, hi, self.part_sizes)
        )

    def __eq__(self, other):
        return isinstance(other, Partition) and self.part_sizes == other.part_sizes

    def __repr__(self):
        return f"Partition({list(self.part_sizes)})"


def part_blocks(d: int, lo: int, hi: int) -> List[List[MultiIndex]]:
    """For each degree t in lo..hi, the tuples of ``d`` naturals summing to t,
    ascending in the lex order, built slot by slot: those of j slots are
    those of j - 1 slots and degree t - last followed by ``last``, for last
    = 0..t.  Layers below the top cover degrees 0..hi, the top one lo..hi."""
    layer = [[()]]  # no slots: only the empty tuple, of degree 0
    for j in range(1, d + 1):
        top = len(layer) - 1  # the highest degree the layer holds
        blocks = []
        for t in range(lo if j == d else 0, hi + 1):
            block = []
            for u in range(t if t < top else top, -1, -1):  # u = t - last
                last = (t - u,)
                for rest in layer[u]:
                    block.append(rest + last)
            blocks.append(block)
        layer = blocks
    return layer


def join_blocks(blocks: Iterable[List[MultiIndex]]) -> List[MultiIndex]:
    """The words made of one block per part, ascending in the lex order: it
    compares the last part first, so the last part's block varies slowest."""
    words: List[MultiIndex] = [()]
    for part in blocks:
        words = [w + block for block in part for w in words]
    return words


def degrees_below(cap: MultiIndex):
    """All part-degree tuples s with s <= cap in the product order."""
    return itertools.product(*(range(c + 1) for c in cap))


LATTICE_CACHE_WORDS = 250_000
"""The most words the lattice cache keeps, unless its newest lattice alone has more."""


class _WordLattice(NamedTuple):
    """Every word of N^m whose part degree is at most a cap, indexed once.

    ``words`` lists them in table order: slices (part-degree classes) in
    ``degrees_below`` order, ascending lex order inside each; ``slices``
    holds each slice's ``(s, start, stop)`` index range.  A slice joins one
    block per part, each part's blocks built once by ``part_blocks``: the
    one enumeration, which ``words_of_part_degree`` reads too.
    ``down[i][n]`` is the index of word ``n`` minus ``e_i``, or -1 when
    coordinate ``i`` is zero.  Word ``n`` is map ``top[n]`` (its highest
    nonzero coordinate, -1 for the zero word) applied to word
    ``down[top[n]][n]``, so its maps run in ``apply_word``'s order, the
    highest last.  Every predecessor lies in an earlier slice.  One
    function reads these steps, ``_images``: the one incremental word
    walk, which tabulation steps for A's words and ``check_system`` for its
    orbit, with maps wrapped by ``_skipping``.  Shared by every caller, so
    read-only.
    """

    words: List[MultiIndex]
    slices: List[Tuple[MultiIndex, int, int]]
    top: array
    down: Tuple[array, ...]


def _build_word_lattice(part_sizes: Tuple[int, ...], cap: MultiIndex) -> _WordLattice:
    """The lattice of words under ``cap``; over the work budget an ``InputError``.

    The size has a closed form, so the budget is checked before any word is
    built.
    """
    partition = Partition(part_sizes)
    size = partition.word_count((0,) * partition.k, cap)
    doing = f"tabulating part degrees up to {cap}"
    check_budget(size, doing, "use a smaller box (--box)")
    blocks = [part_blocks(d, 0, c) for d, c in zip(part_sizes, cap)]
    words: List[MultiIndex] = []
    slices = []
    for s in degrees_below(cap):
        start = len(words)
        words.extend(join_blocks(b[t] for b, t in zip(blocks, s)))
        slices.append((s, start, len(words)))
    # word w has key sum(w_i * radix**i), so w - e_i has key(w) - radix**i;
    # when w_i = 0 the borrow leaves a digit radix - 1, which no word has
    radix = max(cap) + 2
    powers = [radix**i for i in range(partition.m)]
    keys = [sum(map(operator.mul, w, powers)) for w in words]
    index = dict(zip(keys, range(len(keys))))
    sub, repeat = operator.sub, itertools.repeat
    tops = map(bisect.bisect_right, repeat(powers), keys)
    top = array("i", map(sub, tops, repeat(1)))
    down = tuple(
        array("i", map(index.get, map(sub, keys, repeat(p)), repeat(-1)))
        for p in powers
    )
    return _WordLattice(words, slices, top, down)


class _LatticeCache:
    """Least-recently-used word lattices, bounded by their total words.

    Every lattice built is kept, so a table that fetches the lattice its
    tabulation walked never builds it twice; then the least recently used
    others go while the total is over ``budget``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.lattices: OrderedDict = OrderedDict()
        self.words = 0

    def __call__(self, part_sizes: Tuple[int, ...], cap: MultiIndex) -> _WordLattice:
        key = (part_sizes, cap)
        lattice = self.lattices.get(key)
        if lattice is not None:
            self.lattices.move_to_end(key)
            return lattice
        lattice = self.lattices[key] = _build_word_lattice(part_sizes, cap)
        self.words += len(lattice.words)
        while self.words > self.budget and len(self.lattices) > 1:
            _, old = self.lattices.popitem(last=False)
            self.words -= len(old.words)
        return lattice


_word_lattice = _LatticeCache(LATTICE_CACHE_WORDS)


_SKIPPED = object()  # a pair the walk steps from no further: dropped or unmappable


def _images(maps: Sequence[Callable], seeds: List, lattice: _WordLattice):
    """Each seed's images at the words of ``lattice`` under ``maps``, slice
    by slice.

    Yields ``(start, stop, images)`` once the slice of words ``start`` to
    ``stop`` is stepped, in ``degrees_below`` order.  ``images[j][n]`` is
    map ``i = top[n]`` applied to ``images[j][down[i][n]]``, as
    ``apply_word`` steps; a failing map raises ``map_failure``.  No map
    runs on a pair that is ``_SKIPPED``: its child is ``_SKIPPED`` too.
    Every tree parent ``down[top[n]][n]`` lies in an earlier slice, so a
    consumer that sets pairs of a yielded slice to ``_SKIPPED`` before it
    resumes the walk drops every pair stepped from them.

    The one walk of the lattice.  ``tabulate_f`` passes every seed at once.
    In a translation system over a backend with ``points``, outside
    context mode, it sets to ``_SKIPPED`` each pair its slice's builder
    rejects: the paper's triangularity inequality for one element, whose
    proof ``tabulate_f`` gives, makes every pair stepped from it dependent
    too.  Every other system's pairs are all stepped, in the same order.
    ``check_system`` passes one seed at a time, with maps that give
    ``_SKIPPED`` instead of failing (``_skipping``).

    ``degrees_below`` varies the first part slowest, so slice ``s`` is last
    read by the walk into ``s + e_0``, ``stride`` slices later; once that
    one is stepped, slice ``s`` is set to ``_SKIPPED`` before the yield,
    so only the images of the last ``stride`` slices are held.  A consumer
    reads the slice just yielded, never an earlier one.
    """
    words, top, down, slices = lattice.words, lattice.top, lattice.down, lattice.slices
    stride = len(slices) // (slices[-1][0][0] + 1)  # the slices per first degree
    images = [[a] + [_SKIPPED] * (len(words) - 1) for a in seeds]
    for q, (_, start, stop) in enumerate(slices):
        # the first slice holds only the zero word, whose image is the seed
        for n in range(start or 1, stop):
            i = top[n]
            phi, prev = maps[i], down[i][n]
            for img in images:
                x = img[prev]
                if x is not _SKIPPED:
                    try:
                        img[n] = phi(x)
                    except Exception as exc:  # noqa: BLE001 - as apply_word rewraps
                        raise map_failure(i, f"applying word {words[n]}", exc) from exc
        if q >= stride:  # no later slice reads slice q - stride
            _, lo, hi = slices[q - stride]
            released = [_SKIPPED] * (hi - lo)
            for img in images:
                img[lo:hi] = released
        yield start, stop, images


def identity_map(x):
    return x


class OperatorSystem:
    """m commuting self-maps of a matroid ground set plus a partition.

    ``part_flags`` records, per block, the strongest hypothesis the
    constructor is willing to declare (``triangular`` or
    ``quasi-triangular``).  Declarations are trusted by the engine but
    double-checked against tabulated evidence; see ``check_system`` for
    the sampled test.  ``translations``, set when every map is
    ``x -> x + v`` on integer vectors, holds each part's vectors in map
    order; over a backend with ``points`` the system then proves a bound
    for any seed set (see ``graded_bound``).  ``killed`` lists points of
    N^n that an image of rank 0 lies above, such as an ideal's complement
    antichain or a module's relations; it needs every translation to be
    zero or a unit vector.  A translation system also takes its backend's
    ``killed`` points, when the backend has any, so a declaration cannot
    leave out what the backend's rank kills.  Both are declarations the
    engine trusts.
    """

    def __init__(
        self,
        maps: Sequence[Callable],
        partition: Partition,
        backend: RankOracle,
        part_flags: Sequence[str] | None = None,
        translations: Sequence[Sequence[Tuple[int, ...]]] | None = None,
        killed: Sequence[Tuple[int, ...]] = (),
    ):
        self.maps = tuple(maps)
        self.partition = partition
        self.backend = backend
        if len(self.maps) != partition.m:
            raise InputError(
                f"{len(self.maps)} maps but partition expects m = {partition.m}"
            )
        if part_flags is None:
            part_flags = (TRIANGULAR,) * partition.k
        self.part_flags = tuple(part_flags)
        if len(self.part_flags) != partition.k:
            raise InputError("one flag per part required")
        for f in self.part_flags:
            if f not in (TRIANGULAR, QUASI_TRIANGULAR):
                raise InputError(f"unknown part flag {f!r}")
        if translations is not None:
            translations = tuple(tuple(map(tuple, vecs)) for vecs in translations)
            vectors = [v for vecs in translations for v in vecs]
            if (
                tuple(map(len, translations)) != partition.part_sizes
                or len(set(map(len, vectors))) != 1
                or not all(is_int(c) for v in vectors for c in v)
            ):
                raise InputError(
                    f"translation vectors {translations} are not integer vectors "
                    f"of one dimension in parts of sizes {list(partition.part_sizes)}"
                )
            killed = (*killed, *(getattr(backend, "killed", None) or ()))
        self.translations = translations
        if killed and (
            translations is None or any(set(v) - {0, 1} or sum(v) > 1 for v in vectors)
        ):
            raise InputError("killed points need zero or unit translation vectors")
        points = (natural_index(r, len(vectors[0]), "killed point") for r in killed)
        self.killed = tuple(dict.fromkeys(points))

    @property
    def m(self) -> int:
        return self.partition.m

    @property
    def k(self) -> int:
        return self.partition.k

    def part_maps(self, i: int) -> Tuple[Callable, ...]:
        return self.maps[self.partition.part_slice(i)]

    @property
    def augmented(self) -> bool:
        """True when every part's first map is ``identity_map``, as ``augment``
        builds it."""
        return all(self.part_maps(i)[0] is identity_map for i in range(self.k))

    @property
    def translates_points(self) -> bool:
        """True for a system with ``translations`` over a backend with
        ``points``: the one condition under which ``graded_bound`` proves a
        bound (the ``toric`` docstring) and ``engine.tabulate_f`` steps
        nothing from a rejected pair (its docstring)."""
        return self.translations is not None and hasattr(self.backend, "points")

    def declared(self, flag: str) -> bool:
        """True when every part declares at least ``flag``."""
        if flag == QUASI_TRIANGULAR:
            return True  # triangular implies quasi-triangular
        return all(f == TRIANGULAR for f in self.part_flags)

    def with_flags(self, part_flags: Sequence[str]) -> "OperatorSystem":
        return OperatorSystem(
            self.maps, self.partition, self.backend, part_flags, self.translations,
            self.killed,
        )

    def graded_bound(self, A) -> Optional[MultiIndex]:
        """A proven graded stabilization bound for the seed set A (validated)
        and an empty B, or ``None`` when the system knows none.

        A translation system whose backend reads every seed as at most one
        point (``points``; a backend whose rank counts no points has none)
        computes the join of its shadowed-word generators
        (``toric.shadow_generators``) and, per seed ``a`` and killed ``r``,
        the word holding ``max(r_i - a_i, 0)`` where it translates by
        ``e_i``; the ``toric`` docstring has the proof.  The generators
        come in closed form when the columns ``(b_c, e_part(c))`` are
        linearly independent, as for every ideal-count and monomial
        system, and from a truncated toric basis otherwise; only that
        basis spends the work budget, whose ``InputError`` it raises when
        its divisor tests are over ``MAX_WORDS``.  A malformed seed is an
        ``InputError`` too, raised before any work.
        """
        if not self.translates_points:
            return None
        seeds = self.backend.sorted_elems(A)  # A is read once, here
        if not seeds:
            return None
        # imported on first use: only translation systems need it, and a
        # process that caches no bytecode spends about 3 ms compiling it
        from .toric import shadow_generators

        vectors = [v for vecs in self.translations for v in vecs]
        dim = len(vectors[0])
        points = []
        for a in seeds:
            p = self.backend.points(a)
            if len(p) > 1 or any(not isinstance(x, tuple) or len(x) != dim for x in p):
                return None
            points.extend(p)
        words = [w for ws in shadow_generators(self.translations, points) for w in ws]
        for a in points:
            for r in self.killed:
                gap = [max(x - y, 0) for x, y in zip(r, a)]
                words.append(tuple(sum(c * g for c, g in zip(v, gap)) for v in vectors))
        return tuple(map(max, zip((0,) * self.m, *words)))


def map_failure(i: int, doing: str, exc: Exception) -> OperatorError:
    """The error for map ``i`` (0-based) raising while ``doing``, such as
    ``"applying word (0, 4)"``."""
    return OperatorError(f"map {i + 1} failed while {doing}: {exc}")


def apply_word(sys: OperatorSystem, a, r: MultiIndex):
    """The image of ``a`` under the word with multiplicities ``r``: map 0
    applied ``r_0`` times, then map 1 ``r_1`` times, and so on.

    The plain definition, which the tests take as the reference: it
    shares no image with any other call.  A word outside N^m is an
    ``InputError`` before any map runs, and a map that raises an
    ``OperatorError`` naming the map and the word it was reaching.
    Tabulation's A and check mode step the same words over the word
    lattice through one walk, ``operators._images``; tabulation's B and
    verification step whole orbits one part degree at a time in
    ``engine._stepped_orbits``.
    """
    r = natural_index(r, sys.m, "word")
    for i, c in enumerate(r):
        for t in range(1, c + 1):
            try:
                a = sys.maps[i](a)
            except Exception as exc:  # noqa: BLE001 - rewrap with the word for context
                word = r[:i] + (t,) + (0,) * (sys.m - i - 1)
                raise map_failure(i, f"applying word {word}", exc) from exc
    return a


def graded_orbit(sys: OperatorSystem, A, s: MultiIndex) -> List:
    """Deduplicated set of all word images of A at part degree exactly s.

    Enumeration order is deterministic: seeds sorted, words ascending in
    the lex order.  No seeds means no words are built.
    """
    seeds = sys.backend.sorted_elems(A)
    if not seeds:
        return []
    words = sys.partition.words_of_part_degree(s)
    return sys.backend.dedupe(apply_word(sys, a, r) for a in seeds for r in words)


def augment(sys: OperatorSystem) -> OperatorSystem:
    """Prepend the identity map to every part; part sizes become d_i + 1.

    Graded orbits of the augmented system coincide with cumulative orbits
    of the original, which is how the cumulative pipeline is run.  A
    translation system stays one, the identity being the translation by
    zero, and keeps its killed points.
    """
    maps: List[Callable] = []
    for i in range(sys.k):
        maps.append(identity_map)
        maps.extend(sys.part_maps(i))
    partition = Partition(tuple(d + 1 for d in sys.partition.part_sizes))
    # a quasi-triangular part becomes triangular once the identity is adjoined
    flags = (TRIANGULAR,) * sys.k
    translations = None
    if sys.translations is not None:
        zero = (0,) * len(sys.translations[0][0])
        translations = [(zero,) + vecs for vecs in sys.translations]
    return OperatorSystem(maps, partition, sys.backend, flags, translations, sys.killed)


@dataclass
class SystemCheckReport:
    """Outcome of the sampled commutation / triangularity checks."""

    commutation_failures: List[str] = field(default_factory=list)
    triangular_failures: List[str] = field(default_factory=list)
    quasi_failures: List[str] = field(default_factory=list)
    parts_triangular: Tuple[bool, ...] = ()
    parts_quasi_triangular: Tuple[bool, ...] = ()

    @property
    def commutation_ok(self) -> bool:
        return not self.commutation_failures

    @property
    def triangular_ok(self) -> bool:
        return all(self.parts_triangular)

    def supports_declaration(self, sys: OperatorSystem) -> bool:
        """Did the sampled evidence back every declared flag?"""
        if not self.commutation_ok:
            return False
        for i, flag in enumerate(sys.part_flags):
            if flag == TRIANGULAR and not self.parts_triangular[i]:
                return False
            if flag == QUASI_TRIANGULAR and not self.parts_quasi_triangular[i]:
                return False
        return True


def _part_inequality_failures(
    backend: RankOracle, maps: Sequence[Callable], pairs, label: str
) -> Tuple[List[str], List[str]]:
    """Sampled rank inequalities of a triangular part and, with the identity
    map prepended (its images are B and A), of a quasi-triangular one.

    For each map, the rank of its images of A over the images of A+B under
    the earlier maps and of B under it must not exceed the rank of A over B.
    Each test feeds its own builder map by map, B's images first, so each
    map runs once on each element; a test stops at its first failing map,
    and a call, validation or add that raises ends the pair for both.
    """
    triangular, quasi = [], []
    for A, B in pairs:
        A, B = backend.validated(A), backend.validated(B)  # an invalid point raises
        augmented = backend.basis_builder()  # fed the identity's images, B then A
        augmented.add_all(B)
        rhs = augmented.add_all(A)  # the rank of A over B
        tests = [(backend.basis_builder(), triangular, label, 1)]
        tests.append((augmented, quasi, f"{label} (augmented)", 2))
        try:
            for j, phi in enumerate(maps):
                images_b = backend.validated(map(phi, B))
                images_a = backend.validated(map(phi, A))
                for test in tests[:]:
                    builder, failures, name, first = test
                    builder.add_all(images_b)
                    lhs = builder.add_all(images_a)
                    if lhs > rhs:
                        failures.append(
                            f"{name}: map {j + first} gives rank {lhs} > {rhs} "
                            f"on A={A!r}, B={B!r}"
                        )
                        tests.remove(test)
                if not tests:
                    break
        except Exception:  # noqa: BLE001 - unmappable sample points end the pair
            pass
    return triangular, quasi


def _skipping(phi: Callable) -> Callable:
    """``phi``, but ``_SKIPPED`` where it raises or is given ``_SKIPPED``:
    how check mode skips the points a map cannot take, and every point
    after them, with no call on any; the walk skips all that follow too."""

    def skipping(x):
        if x is _SKIPPED:
            return x
        try:
            return phi(x)
        except Exception:  # noqa: BLE001 - unmappable points are skipped
            return _SKIPPED

    return skipping


def check_system(
    sys: OperatorSystem, sample, depth: int = 3, pair_count: int = 40
) -> SystemCheckReport:
    """Sampled evidence for commutation and the per-part hypotheses.

    Commutation is tested pointwise on the orbit of ``sample`` up to the
    given word depth.  Each part is then tested for the triangular rank
    inequality on randomly drawn subset pairs of that orbit, and for the
    quasi-triangular variant via the same test with the identity map
    prepended; the pairs are drawn from a fixed seed, so the report is
    deterministic.  This is evidence, not proof: the properties quantify over
    the whole (typically infinite) ground set.  The orbit is each seed's
    images over the word lattice from the one walk, ``_images``, run once
    per seed in sorted order: one map call per seed and reached word.  Its
    maps, here and in the commutation test, are wrapped by ``_skipping``,
    so a point a map cannot take is skipped; the walk skips every word
    stepped from it, and in the commutation test the wrapped second map
    passes it on, so no call is made on it.  A depth whose seeds times
    words, or a ``pair_count`` whose map calls (6 m a pair), exceed
    ``MAX_WORDS`` is an ``InputError`` before any map runs, and the
    commutation calls, 2 m (m - 1) at each distinct orbit point, are once
    the walk has found the points.
    A malformed sample element, or a count that is no integer, is one first.
    """
    for name, value, least in (("depth", depth, 1), ("pair_count", pair_count, 0)):
        if not is_int(value):
            raise InputError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise InputError(f"{name} must be >= {least}")
    backend = sys.backend
    seeds = backend.sorted_elems(sample)
    degrees = max(1, depth - 1)  # word degrees 0 .. degrees - 1
    words = len(seeds) * Partition((sys.m,)).word_count((0,), (degrees - 1,))
    check_budget(words, f"checking to depth {depth}", "use a smaller depth")
    # a pair holds at most 3 + 3 elements, and each map runs once on each
    check_budget(
        pair_count * 6 * sys.m, f"testing {pair_count:,} sampled pairs",
        "a map call counts as a word; use a smaller seed_sample (--seed-sample)",
    )
    rng = random.Random(0)
    report = SystemCheckReport()

    maps = [_skipping(phi) for phi in sys.maps]
    pts = []
    if seeds:  # no seeds build no lattice
        lattice = _word_lattice((sys.m,), (degrees - 1,))
        orbit = (
            x
            for a in seeds
            for start, stop, (img,) in _images(maps, [a], lattice)
            for x in img[start:stop]
        )
        pts = backend.dedupe(x for x in orbit if x is not _SKIPPED)
    check_budget(
        len(pts) * 2 * sys.m * (sys.m - 1),
        f"checking commutation at {len(pts):,} orbit points to depth {depth}",
        "a map call counts as a word; use a smaller depth",
    )

    for x in pts:
        for i, j in itertools.combinations(range(sys.m), 2):
            lhs = maps[i](maps[j](x))
            if lhs is _SKIPPED:
                continue
            rhs = maps[j](maps[i](x))
            if rhs is not _SKIPPED and lhs != rhs:
                report.commutation_failures.append(
                    f"maps {i + 1} and {j + 1} disagree at {x!r}: "
                    f"{lhs!r} vs {rhs!r}"
                )

    pairs = []
    for _ in range(pair_count):
        if not pts:
            break
        A = rng.sample(pts, k=min(len(pts), rng.randint(1, 3)))
        B = rng.sample(pts, k=min(len(pts), rng.randint(0, 3)))
        pairs.append((A, B))

    for i in range(sys.k):
        tri, quasi = _part_inequality_failures(
            backend, sys.part_maps(i), pairs, f"part {i + 1}"
        )
        report.triangular_failures.extend(tri)
        report.quasi_failures.extend(quasi)
        report.parts_triangular += (not tri,)
        report.parts_quasi_triangular += (not quasi,)
    return report
