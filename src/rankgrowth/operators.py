"""Multi-index machinery and commuting operator systems.

An operator system is a tuple of m commuting self-maps of a matroid
ground set together with a partition of the maps into k consecutive
blocks.  Words are multi-indices in N^m applied through a per-run orbit
cache; graded and cumulative orbits, augmentation by the identity map,
and the sampled hypothesis checks all live here.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import InputError, OperatorError
from .matroid import RankOracle

MultiIndex = Tuple[int, ...]

TRIANGULAR = "triangular"
QUASI_TRIANGULAR = "quasi-triangular"


def is_int(x) -> bool:
    """Whether ``x`` is an integer proper: ``bool`` and floats are not."""
    return isinstance(x, int) and not isinstance(x, bool)


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
        """All words r with part degree s, ascending in the lex order."""
        if len(s) != self.k:
            raise InputError(f"part-degree length {len(s)} != k = {self.k}")
        # the lex order compares the last part first, so each part's
        # lex-ordered blocks run outside the words of the parts before it
        words: List[MultiIndex] = [()]
        for t, d in zip(s, self.part_sizes):
            words = [w + block for block in compositions(t, d) for w in words]
        return words

    def word_count(self, s: MultiIndex, mode: str = "graded") -> int:
        """Number of words of part degree s (graded) or part degree <= s (cumulative)."""
        if mode == "graded":
            return math.prod(
                math.comb(s[i] + self.part_sizes[i] - 1, self.part_sizes[i] - 1)
                for i in range(self.k)
            )
        if mode == "cumulative":
            return math.prod(
                math.comb(s[i] + self.part_sizes[i], self.part_sizes[i])
                for i in range(self.k)
            )
        raise InputError(f"unknown word-count mode {mode!r}")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.part_sizes == other.part_sizes

    def __repr__(self):
        return f"Partition({list(self.part_sizes)})"


def compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``, ascending in lex order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in compositions(total - last, parts - 1):
            yield rest + (last,)


def degrees_below(cap: MultiIndex):
    """All part-degree tuples s with s <= cap in the product order."""
    return itertools.product(*(range(c + 1) for c in cap))


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
    order; the system then proves a bound for any seed set (see
    ``graded_bound``).  ``killed`` lists points of N^n that an image of
    rank 0 lies above, such as an ideal's complement antichain or a
    module's relations; it needs every translation to be zero or a unit
    vector.  Both are declarations the engine trusts.
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
        self.translations = translations
        self.killed = tuple(killed)
        for r in self.killed:
            if translations is None or any(
                set(v) - {0, 1} or sum(v) > 1 for v in vectors
            ):
                raise InputError("killed points need zero or unit translation vectors")
            if not isinstance(r, tuple) or len(r) != len(vectors[0]) or not all(
                is_int(c) and c >= 0 for c in r
            ):
                raise InputError(f"killed point {r!r} is not in N^{len(vectors[0])}")

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

        A translation system whose seeds read as at most one point each
        (``RankOracle.points``) computes, on every call, the join of its
        shadowed-word generators (``toric.shadow_generators``) and, per
        seed ``a`` and killed ``r``, the word holding ``max(r_i - a_i, 0)``
        where it translates by ``e_i``; the ``toric`` docstring has the
        proof.  It raises ``BasisBudgetExceeded`` when the basis is over
        its budget.
        """
        if self.translations is None or not A:
            return None
        # imported on first use: only translation systems need it, and a
        # process that caches no bytecode spends about 3 ms compiling it
        from .toric import shadow_generators

        vectors = [v for vecs in self.translations for v in vecs]
        dim = len(vectors[0])
        points = []
        for a in self.backend.sorted_elems(A):
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


_MISSING = object()


def map_failure(i: int, word: MultiIndex, exc: Exception) -> OperatorError:
    """The error for map ``i`` (0-based) raising while it applies ``word``."""
    return OperatorError(f"map {i + 1} failed while applying word {word}: {exc}")


def apply_word(sys: OperatorSystem, a, r: MultiIndex, cache: dict | None = None):
    """Apply the word with multiplicities ``r`` to ``a``, memoized.

    ``cache`` maps (seed key, word) to element.  Descends one coordinate
    at a time from the nearest cached ancestor, always decrementing the
    highest nonzero coordinate, so identical prefixes are shared across
    the whole run.  The cached value at r + e_i is always the i-th map
    applied to the value at r, so a populated cache witnesses path
    independence.  A map that raises becomes an ``OperatorError`` naming
    the map and the word it was applying.  Tabulation takes the same
    steps over its word lattice without this cache; ``graded_orbit``,
    ``verify_fit`` and ``check_system`` come through here.
    """
    if len(r) != sys.m:
        raise InputError(f"word length {len(r)} != m = {sys.m}")
    if cache is None:
        cache = {}
    seed = sys.backend.key(a)
    pending = []
    cur = tuple(r)
    # decrementing the highest nonzero coordinate never raises a higher
    # one, so the index only walks down
    i = len(cur) - 1
    while True:
        while i >= 0 and not cur[i]:
            i -= 1
        if i < 0:
            val = a
            break
        val = cache.get((seed, cur), _MISSING)
        if val is not _MISSING:
            break
        pending.append((cur, i))
        cur = cur[:i] + (cur[i] - 1,) + cur[i + 1 :]
    for word, i in reversed(pending):
        try:
            val = sys.maps[i](val)
        except Exception as exc:  # noqa: BLE001 - rewrap with the word for context
            raise map_failure(i, word, exc) from exc
        cache[(seed, word)] = val
    return val


def graded_orbit(
    sys: OperatorSystem, A, s: MultiIndex, cache: dict | None = None
) -> List:
    """Deduplicated set of all word images of A at part degree exactly s.

    Enumeration order is deterministic: seeds sorted by canonical key,
    words ascending in the lex order.  No seeds means no words are built.
    """
    seeds = sys.backend.sorted_elems(A)
    if not seeds:
        return []
    if cache is None:
        cache = {}
    words = sys.partition.words_of_part_degree(s)
    out, seen = [], set()
    for a in seeds:
        for r in words:
            x = apply_word(sys, a, r, cache)
            k = sys.backend.key(x)
            if k not in seen:
                seen.add(k)
                out.append(x)
    return out


def cumulative_orbit(
    sys: OperatorSystem, A, s: MultiIndex, cache: dict | None = None
) -> List:
    """Deduplicated set of all word images of A at part degree <= s."""
    if cache is None:
        cache = {}
    out, seen = [], set()
    for t in degrees_below(tuple(s)):
        for x in graded_orbit(sys, A, t, cache):
            k = sys.backend.key(x)
            if k not in seen:
                seen.add(k)
                out.append(x)
    return out


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

    @property
    def quasi_triangular_ok(self) -> bool:
        return all(self.parts_quasi_triangular)

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
) -> List[str]:
    """Sampled rank inequality characterizing a triangular block.

    For each i, the rank of the i-th map's image of A over the images of
    A+B under the earlier maps (and of B under the i-th) must not exceed
    the rank of A over B.
    """
    failures = []
    for A, B in pairs:
        AB = list(A) + list(B)
        rhs = backend.relative_rank(A, B)
        for i, phi in enumerate(maps):
            try:
                base: List = []
                for psi in maps[:i]:
                    base.extend(psi(x) for x in AB)
                base.extend(phi(x) for x in B)
                lhs = backend.relative_rank([phi(x) for x in A], base)
            except Exception:  # noqa: BLE001 - unmappable sample points are skipped
                continue
            if lhs > rhs:
                failures.append(
                    f"{label}: map {i + 1} gives rank {lhs} > {rhs} "
                    f"on A={A!r}, B={B!r}"
                )
                break
    return failures


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
    the whole (typically infinite) ground set.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if pair_count < 0:
        raise InputError("pair_count must be >= 0")
    backend = sys.backend
    rng = random.Random(0)
    report = SystemCheckReport()

    cache = {}
    pts = []
    seen = set()
    for a in backend.sorted_elems(sample):
        for t in range(max(1, depth - 1)):
            for r in compositions(t, sys.m):
                try:
                    x = apply_word(sys, a, r, cache)
                except OperatorError:
                    continue
                k = backend.key(x)
                if k not in seen:
                    seen.add(k)
                    pts.append(x)
    for x in pts:
        for i in range(sys.m):
            for j in range(i + 1, sys.m):
                try:
                    lhs = sys.maps[i](sys.maps[j](x))
                    rhs = sys.maps[j](sys.maps[i](x))
                except Exception:  # noqa: BLE001 - out-of-range points are skipped
                    continue
                if backend.key(lhs) != backend.key(rhs):
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

    tri, quasi = [], []
    for i in range(sys.k):
        maps = sys.part_maps(i)
        fails = _part_inequality_failures(backend, maps, pairs, f"part {i + 1}")
        report.triangular_failures.extend(fails)
        tri.append(not fails)
        fails_q = _part_inequality_failures(
            backend, (identity_map,) + maps, pairs, f"part {i + 1} (augmented)"
        )
        report.quasi_failures.extend(fails_q)
        quasi.append(not fails_q)
    report.parts_triangular = tuple(tri)
    report.parts_quasi_triangular = tuple(quasi)
    return report
