"""Growth-polynomial pipeline.

Computes the per-word marginal rank function of an operator system on a
finite box, detects staircase stabilization, extracts the generating
function numerator by finite differences, interpolates the eventual
polynomial in the binomial basis with exact rational arithmetic, and
certifies the result against direct rank evaluation.

The whole chain works because the marginal function is decreasing
whenever every part of the system is triangular: its generating function
is then rational with denominator a product of (1 - Y_i) factors, and a
rational generating function of that shape forces eventual polynomial
values.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BasisBudgetExceeded,
    ContractError,
    HypothesisError,
    InputError,
)
from .operators import (
    MultiIndex,
    OperatorSystem,
    Partition,
    TRIANGULAR,
    augment,
    degrees_below,
    graded_orbit,
    identity_map,
    is_int,
    lex_key,
    map_failure,
    product_leq,
)

WINDOW_CERTIFIED = "window-certified"
BOX_TRUNCATED = "box-truncated"
CERTIFIED = "certified"


def default_box(m: int) -> Tuple[int, ...]:
    """Per-coordinate exploration bound keeping desk-scale cost."""
    if m <= 3:
        return (8,) * m
    if m <= 5:
        return (5,) * m
    return (3,) * m


@dataclass
class StabilizationConfig:
    """Exploration box and certification window width."""

    box: Optional[Tuple[int, ...]] = None
    window: int = 2

    def __post_init__(self):
        if not is_int(self.window):
            raise InputError(f"window width must be an integer, got {self.window!r}")
        if self.window < 1:
            raise InputError("window width must be >= 1")
        if self.box is not None:
            if not isinstance(self.box, (list, tuple)) or not all(
                is_int(b) for b in self.box
            ):
                raise InputError(f"box must be integers, got {self.box!r}")
            self.box = tuple(self.box)
            if any(b < 0 for b in self.box):
                raise InputError("box bounds must be nonnegative")

    def resolved_box(self, m: int) -> Tuple[int, ...]:
        if self.box is None:
            return default_box(m)
        if len(self.box) != m:
            raise InputError(f"box has {len(self.box)} coordinates, system has {m}")
        return self.box


MAX_WORDS = 2_000_000
"""Work budget: the most words one table may hold (37 times the 53,856 of
the largest default-box tables)."""

LATTICE_CACHE_WORDS = 250_000
"""The most words the word-lattice cache keeps, summed over its lattices."""

BOUND_EVIDENCE = "bound"
WINDOW_EVIDENCE = "window"


class _WordLattice(NamedTuple):
    """Every word of N^m whose part degree is at most a cap, indexed once.

    ``words`` lists them in table order: slices (part-degree classes) in
    ``degrees_below`` order, ascending lex order inside each; ``slices``
    holds each slice's ``(s, start, stop)`` index range.  Word ``n`` is map
    ``top[n]`` (its highest nonzero coordinate) applied to word ``up[n]``,
    the step ``apply_word`` takes; the zero word has top -1 and up 0, the
    identity on itself.  ``down[i][n]`` is the index of word ``n`` minus
    ``e_i``, or -1 when coordinate ``i`` is zero.  Every predecessor comes
    before its word.  Shared by every caller, so read-only.
    """

    words: List[MultiIndex]
    slices: List[Tuple[MultiIndex, int, int]]
    top: array
    up: array
    down: Tuple[array, ...]


def _build_word_lattice(part_sizes: Tuple[int, ...], cap: MultiIndex) -> _WordLattice:
    """The lattice of words under ``cap``; beyond ``MAX_WORDS`` an ``InputError``.

    The size has a closed form, so the budget is checked before any word
    is built.
    """
    partition = Partition(part_sizes)
    size = partition.word_count(cap, "cumulative")
    if size > MAX_WORDS:
        raise InputError(
            f"tabulating part degrees up to {cap} needs {size:,} words, over the "
            f"limit of {MAX_WORDS:,}; use a smaller box (--box)"
        )
    words: List[MultiIndex] = []
    slices = []
    for s in degrees_below(cap):
        start = len(words)
        words.extend(partition.words_of_part_degree(s))
        slices.append((s, start, len(words)))
    # word w has key sum(w_i * radix**i), so w - e_i has key(w) - radix**i;
    # when w_i = 0 the borrow leaves a digit radix - 1, which no word has
    radix = max(cap) + 2
    powers = [radix**i for i in range(partition.m)]
    keys = [sum(map(operator.mul, w, powers)) for w in words]
    index = dict(zip(keys, range(len(keys))))
    sub = operator.sub
    top = array("i", map(sub, map(bisect_right, repeat(powers), keys), repeat(1)))
    up = array(
        "i", map(index.get, map(sub, keys, map(powers.__getitem__, top)), repeat(0))
    )
    down = tuple(
        array("i", map(index.get, map(sub, keys, repeat(p)), repeat(-1)))
        for p in powers
    )
    return _WordLattice(words, slices, top, up, down)


class _LatticeCache:
    """Least-recently-used word lattices, bounded by their total words.

    Solves of different boxes reuse each other's lattices while the sum
    stays within ``budget``; the least recently used go first.  A lattice
    larger than the whole budget is built and returned but not kept.
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
        lattice = _build_word_lattice(part_sizes, cap)
        size = len(lattice.words)
        if size <= self.budget:
            while self.words + size > self.budget:
                _, old = self.lattices.popitem(last=False)
                self.words -= len(old.words)
            self.lattices[key] = lattice
            self.words += size
        return lattice


_word_lattice = _LatticeCache(LATTICE_CACHE_WORDS)


@dataclass
class DecreasingTable:
    """Tabulated marginal ranks on a finite box, with staircase metadata.

    ``values`` holds every word whose part degree fits under the box's
    part degree (a superset of the nominal box: lex-earlier words of the
    same degree are needed for correct marginals, so they come for free).
    Its words must be exactly the slice-cap lattice's, in lattice order:
    slices in ``degrees_below(slice_cap)`` order, ascending lex order
    inside each, as ``tabulate_f`` and ``from_function`` build them.  Its
    values are marginal ranks, so natural numbers.  Any other table is an
    ``InputError``.

    One scan over the lattice's unit steps fills the metadata.
    ``violations`` lists the pairs ``(u - e_i, u)`` where the value
    increases, ordered by the lower word's degree and lex key, then the
    upper word's; any entry contradicts a declared triangular part.
    ``corners`` lists the triples ``(u, f(u), hi(u))`` with
    ``f(u) < hi(u)`` in table order, where ``hi(u)`` is the least value
    over the predecessors (``f(0) + 1`` for the zero word): on a
    decreasing table ``u`` is a minimal word of the level set
    ``{f <= n}`` exactly when ``f(u) <= n < hi(u)``.
    """

    box: Tuple[int, ...]
    partition: Partition
    values: Dict[MultiIndex, int]
    slice_cap: Tuple[int, ...]
    violations: List[Tuple[MultiIndex, MultiIndex]] = field(init=False)
    corners: List[Tuple[MultiIndex, int, int]] = field(init=False)

    def __post_init__(self):
        p, cap = self.partition, tuple(self.slice_cap)
        if len(cap) != p.k:
            raise InputError(
                f"slice cap {cap} has {len(cap)} entries, partition has {p.k}"
            )
        lattice = _word_lattice(p.part_sizes, cap)
        words = list(self.values)
        if words != lattice.words:
            raise InputError(
                f"table words are not the {len(lattice.words):,} words under "
                f"slice cap {cap} in lattice order"
            )
        f = list(self.values.values())
        low = min(f)  # the zero word is in every lattice
        if low < 0:
            raise InputError(
                f"marginal ranks are natural numbers, got {low} at "
                f"{words[f.index(low)]}"
            )
        downs = lattice.down
        ceiling = max(f) + 1
        f.append(ceiling)  # read at position -1, which stands for no predecessor
        # preds[i][n] is the value at word n minus e_i
        preds = [list(map(f.__getitem__, down)) for down in downs]
        hi = list(map(min, *preds)) if len(preds) > 1 else preds[0]
        positions = range(len(words))
        # a value above some predecessor's is above the least of them
        violations = [
            (words[down[n]], words[n])
            for n in compress(positions, map(operator.gt, f, hi))
            for down, pred in zip(downs, preds)
            if f[n] > pred[n]
        ]
        violations.sort(
            key=lambda pair: (sum(pair[0]), lex_key(pair[0]), lex_key(pair[1]))
        )
        self.violations = violations
        # only the zero word has no predecessor, so only its hi is the ceiling
        self.corners = [
            (words[n], f[n], hi[n] if hi[n] < ceiling else f[n] + 1)
            for n in compress(positions, map(operator.lt, f, hi))
        ]

    @classmethod
    def from_function(cls, f, box: Sequence[int], partition: Partition):
        """Synthetic table from an explicit function on multi-indices."""
        box = tuple(box)
        if not all(is_int(b) and b >= 0 for b in box):
            raise InputError(f"box must be natural numbers, got {box!r}")
        cap = partition.part_degree(box)
        values = {r: int(f(r)) for r in _word_lattice(partition.part_sizes, cap).words}
        return cls(box, partition, values, cap)

    @property
    def is_decreasing(self) -> bool:
        return not self.violations

    def graded_sum(self, s: MultiIndex) -> int:
        return sum(
            self.values[r] for r in self.partition.words_of_part_degree(tuple(s))
        )


def _validate_all(backend, *groups) -> None:
    """Validate every element before any is keyed, sorted or deduplicated,
    so a malformed one is an ``InputError``, not a ``TypeError``."""
    for group in groups:
        for x in group:
            backend.validate(x)


def tabulate_f(
    sys: OperatorSystem,
    A,
    B,
    box: Sequence[int] | None = None,
    context_sys: OperatorSystem | None = None,
) -> DecreasingTable:
    """Tabulate the marginal rank function over every slice under the box.

    ``box`` is validated as a ``StabilizationConfig`` box; ``None`` means
    the default box.  The words come from the lattice of the box's part
    degree, whose size is checked against ``MAX_WORDS`` before any word is
    built or any map applied.

    Each slice (part-degree class) gets a fresh basis builder, seeded with
    the graded orbit of B at that slice (taken in the context system when
    one is supplied) when B is nonempty; its words then arrive in
    ascending lex order, and each one's marginal is the number of its
    images of A that raise the rank over everything fed before.  Summing
    over a slice telescopes to the relative rank of the graded orbits.
    Each seed keeps one flat list of images, and word n's image is map
    ``top[n]`` applied to word ``up[n]``'s, so every image is the one
    ``apply_word`` gives.  A map that raises becomes the ``OperatorError``
    ``apply_word`` raises.
    """
    box = StabilizationConfig(box=box).resolved_box(sys.m)
    backend = sys.backend
    _validate_all(backend, A, B)
    A_sorted = backend.sorted_elems(A)
    B_list = backend.dedupe(B)
    cap = sys.partition.part_degree(box)
    lattice = _word_lattice(sys.partition.part_sizes, cap)
    words, top, up = lattice.words, lattice.top, lattice.up
    maps = sys.maps + (identity_map,)  # top -1 keeps the seed at the zero word
    base_sys = context_sys if context_sys is not None else sys
    cache_b: dict = {}
    images = [[a] * len(words) for a in A_sorted]
    marginals = []
    for s, start, stop in lattice.slices:
        builder = backend.basis_builder()
        if B_list:
            builder.add_all(graded_orbit(base_sys, B_list, s, cache_b))
        add = builder.add
        for n in range(start, stop):
            i, prev = top[n], up[n]
            phi = maps[i]
            accepted = 0
            for img in images:
                try:
                    x = phi(img[prev])
                except Exception as exc:  # noqa: BLE001 - rewrapped as apply_word does
                    raise map_failure(i, words[n], exc) from exc
                img[n] = x
                if add(x):
                    accepted += 1
            marginals.append(accepted)
    values = dict(zip(words, marginals))
    return DecreasingTable(box, sys.partition, values, cap)


@dataclass
class StaircaseCertificate:
    """Minimal antichains of the level sets and their least upper bound.

    ``status`` is window-certified when the table covers the band of words
    up to ``m_bar + window``, where it equals its clamp at ``m_bar``, and
    box-truncated otherwise.  Window certification is evidence, not
    proof: a decreasing function may still drop beyond any finite box.
    """

    levels: Dict[int, Tuple[MultiIndex, ...]]
    m_bar: MultiIndex
    status: str
    window: int
    failure: Optional[str] = None

    @property
    def window_certified(self) -> bool:
        return self.status == WINDOW_CERTIFIED


def detect_stabilization(
    table: DecreasingTable, cfg: StabilizationConfig | None = None
) -> StaircaseCertificate:
    """Find the staircase of a decreasing table and try to certify it.

    The minimal words of the level set ``{f <= n}`` are the corners with
    ``f(u) <= n < hi(u)``, and ``m_bar`` joins every corner.  The
    certificate is window-certified exactly when the band of words up to
    ``m_bar + window`` lies inside the tabulated part degrees; no band word
    is read, because every tabulated word has the value of its clamp
    ``clamp(u) = min(u, m_bar)``:

    Take a word ``u`` of the table that is not ``<= m_bar``.  It is not a
    corner, because ``m_bar`` joins all corners (values are natural
    numbers, so every corner has a level).  So ``f(u)`` equals the least
    value over its predecessors.  Pick a coordinate ``i`` with
    ``u_i > m_bar_i``.  The predecessor ``u - e_i`` has the same clamp as
    ``u``.  Every other predecessor's clamp lies below ``clamp(u)``, and
    ``f`` decreases.  By induction on ``|u|``, ``f(u) = f(clamp(u))``.
    """
    cfg = cfg or StabilizationConfig()
    if not table.is_decreasing:
        raise ContractError(
            f"table is not decreasing; first violation {table.violations[0]!r}"
        )
    zero = (0,) * table.partition.m
    antichains: Dict[int, List[MultiIndex]] = {
        n: [] for n in range(table.values[zero] + 1)
    }
    m_bar = zero
    for u, fu, hi in sorted(table.corners, key=lambda c: (sum(c[0]), lex_key(c[0]))):
        for n in range(fu, hi):
            antichains[n].append(u)
        m_bar = tuple(map(max, m_bar, u))
    levels = {n: tuple(words) for n, words in antichains.items()}
    band_cap = tuple(c + cfg.window for c in m_bar)
    if product_leq(table.partition.part_degree(band_cap), table.slice_cap):
        return StaircaseCertificate(levels, m_bar, WINDOW_CERTIFIED, cfg.window)
    failure = f"window {band_cap} exceeds tabulated part degrees {table.slice_cap}"
    return StaircaseCertificate(levels, m_bar, BOX_TRUNCATED, cfg.window, failure)


@dataclass
class GeneratingNumerator:
    """Numerator of the collapsed generating function.

    Integer coefficients indexed by part-degree exponents, all bounded by
    ``cap`` (the part degree of the staircase bound).  The denominator is
    implicitly the product of (1 - Y_i)^{d_i}.
    """

    coeffs: Dict[MultiIndex, int]
    cap: MultiIndex
    part_sizes: Tuple[int, ...]

    def at_ones(self) -> int:
        return sum(self.coeffs.values())


def numerator_from_table(
    table: DecreasingTable, m_bar: MultiIndex, p: Partition
) -> GeneratingNumerator:
    """Coordinatewise finite differences, then the partition substitution.

    Applying (1 - Y_i) for each of the m variables in turn leaves integer
    coefficients supported below ``m_bar``; substituting one variable per
    part collapses exponents to part degrees.
    """
    m_bar = tuple(int(x) for x in m_bar)
    if len(m_bar) != p.m:
        raise InputError("staircase bound has wrong length")
    pts = list(itertools.product(*(range(c + 1) for c in m_bar)))
    h: Dict[MultiIndex, int] = {}
    for u in pts:
        if u not in table.values:
            raise InputError(f"table does not cover {u} required by the numerator")
        h[u] = table.values[u]
    for axis in range(p.m):
        h = {
            u: h[u] - h[u[:axis] + (u[axis] - 1,) + u[axis + 1 :]] if u[axis] else h[u]
            for u in pts
        }
    coeffs: Dict[MultiIndex, int] = {}
    for u, c in h.items():
        if c:
            s = p.part_degree(u)
            coeffs[s] = coeffs.get(s, 0) + c
    coeffs = {s: c for s, c in coeffs.items() if c}
    return GeneratingNumerator(coeffs, p.part_degree(m_bar), p.part_sizes)


class GrowthPolynomial:
    """Multivariate polynomial with exact rational coefficients.

    ``threshold`` is a sound stabilization bound: the polynomial agrees
    with the tabulated growth function at every point coordinatewise
    above it (not necessarily the least such bound).
    """

    def __init__(
        self,
        coeffs: Dict[MultiIndex, Fraction],
        degree_bound: Tuple[int, ...],
        threshold: Tuple[int, ...],
    ):
        self.coeffs = {
            tuple(e): Fraction(c) for e, c in coeffs.items() if c != 0
        }
        self.degree_bound = tuple(degree_bound)
        self.threshold = tuple(threshold)
        for e in self.coeffs:
            if len(e) != len(self.degree_bound):
                raise InputError("exponent arity mismatch")
            if not product_leq(e, self.degree_bound):
                raise InputError(
                    f"exponent {e} exceeds degree bound {self.degree_bound}"
                )

    @property
    def k(self) -> int:
        return len(self.degree_bound)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, s: Sequence[int]) -> Fraction:
        s = tuple(s)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for base, exp in zip(s, e):
                term *= Fraction(base) ** exp
            total += term
        return total

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the maximal monomial allowed by the degree bound."""
        return self.coeffs.get(self.degree_bound, Fraction(0))

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.coeffs), default=0)

    def terms_sorted(self) -> List[Tuple[MultiIndex, Fraction]]:
        """Terms in descending graded-lex order on exponents."""
        return sorted(
            self.coeffs.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True
        )

    def subtract(self, other: "GrowthPolynomial") -> "GrowthPolynomial":
        if other.k != self.k:
            raise InputError("cannot combine polynomials of different arity")
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) - c
        bound = tuple(
            max(a, b) for a, b in zip(self.degree_bound, other.degree_bound)
        )
        thresh = tuple(max(a, b) for a, b in zip(self.threshold, other.threshold))
        return GrowthPolynomial(coeffs, bound, thresh)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms_sorted():
            mono = self._monomial_str(e)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def _monomial_str(self, e: MultiIndex) -> str:
        if not any(e):
            return "1"
        names = ["Y"] if self.k == 1 else [f"Y{i + 1}" for i in range(self.k)]
        bits = []
        for name, exp in zip(names, e):
            if exp == 1:
                bits.append(name)
            elif exp > 1:
                bits.append(f"{name}^{exp}")
        return "*".join(bits)

    def __eq__(self, other):
        return isinstance(other, GrowthPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"GrowthPolynomial({self.pretty()!r}, threshold={self.threshold})"


def _binomial_basis_coeffs(r: int, d: int) -> List[Fraction]:
    """Coefficients of the degree-(d-1) polynomial C(Y - r + d - 1, d - 1)."""
    coeffs = [Fraction(1)]
    for j in range(d - 1):
        shift = d - 1 - r - j
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += c * shift
        coeffs = nxt
    denom = math.factorial(d - 1)
    return [c / denom for c in coeffs]


def interpolate(numerator: GeneratingNumerator, d: Sequence[int]) -> GrowthPolynomial:
    """Expand the rational generating function into its eventual polynomial.

    Each numerator term a * Y^r contributes a times the product of
    binomial-basis polynomials C(Y_i - r_i + d_i - 1, d_i - 1); the sum
    agrees with the growth function at every point above the numerator's
    exponent cap, and its top coefficient is the numerator evaluated at
    (1, ..., 1) divided by the product of (d_i - 1)!.
    """
    d = tuple(int(x) for x in d)
    if any(x < 1 for x in d):
        raise InputError("denominator exponents must be >= 1")
    k = len(d)
    total: Dict[MultiIndex, Fraction] = {}
    for r, a in numerator.coeffs.items():
        term: Dict[MultiIndex, Fraction] = {(): Fraction(a)}
        for i in range(k):
            basis = _binomial_basis_coeffs(r[i], d[i])
            nxt: Dict[MultiIndex, Fraction] = {}
            for e, c in term.items():
                for j, bc in enumerate(basis):
                    if bc:
                        key = e + (j,)
                        nxt[key] = nxt.get(key, Fraction(0)) + c * bc
            term = nxt
        for e, c in term.items():
            total[e] = total.get(e, Fraction(0)) + c
    bound = tuple(x - 1 for x in d)
    return GrowthPolynomial(total, bound, numerator.cap)


def dominant_terms(P: GrowthPolynomial):
    """Terms maximal under some coordinate-permutation lexicographic order."""
    if P.is_zero:
        return set()
    exps = list(P.coeffs)
    winners = set()
    for sigma in itertools.permutations(range(P.k)):
        best = max(exps, key=lambda e: lex_key(tuple(e[i] for i in sigma)))
        winners.add(best)
    return {(e, P.coeffs[e]) for e in winners}


@dataclass
class IdealLevel:
    """One downward-closed level set of the table, with its frontier."""

    n: int
    frontier: Tuple[MultiIndex, ...]
    graded_counts: Dict[MultiIndex, int]


@dataclass
class MonomialModuleRealization:
    """Level ideals whose graded counts sum back to the tabulated ranks."""

    ideals: List[IdealLevel]
    counts_ok: bool
    mismatches: List[Tuple[MultiIndex, int, int]]


def realize_monomial_module(table: DecreasingTable) -> MonomialModuleRealization:
    """Split a decreasing table into indicator ideals I_n = {u : f(u) >= n}.

    Each level is downward closed; summing the per-degree counts over all
    levels recovers the graded rank, which the report double-checks for
    every part degree in the box.
    """
    if not table.is_decreasing:
        raise ContractError(
            f"table is not decreasing; first violation {table.violations[0]!r}"
        )
    values = table.values
    m = table.partition.m
    f0 = values[(0,) * m]
    ideals = []
    for n in range(1, f0 + 1):
        members = [u for u, fu in values.items() if fu >= n]
        # the domain is downward closed and f decreasing, so u is maximal
        # in I_n exactly when no successor u + e_i reaches n
        frontier = [
            u
            for u in members
            if all(
                values.get(u[:i] + (u[i] + 1,) + u[i + 1 :], n - 1) < n
                for i in range(m)
            )
        ]
        counts: Dict[MultiIndex, int] = {}
        for u in members:
            s = table.partition.part_degree(u)
            counts[s] = counts.get(s, 0) + 1
        ideals.append(IdealLevel(n, tuple(sorted(frontier)), counts))
    mismatches = []
    for s in degrees_below(table.slice_cap):
        total = sum(level.graded_counts.get(s, 0) for level in ideals)
        expect = table.graded_sum(s)
        if total != expect:
            mismatches.append((s, total, expect))
    return MonomialModuleRealization(ideals, not mismatches, mismatches)


@dataclass
class VerifyReport:
    """Pointwise comparison of a polynomial against direct rank evaluation."""

    window: Tuple[MultiIndex, MultiIndex]
    points: List[Tuple[MultiIndex, int, Fraction]]
    mismatches: List[Tuple[MultiIndex, int, Fraction]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _direct_rank(
    sys: OperatorSystem,
    A,
    B,
    s: MultiIndex,
    context_sys: OperatorSystem | None = None,
    caches: Tuple[dict, dict] | None = None,
) -> int:
    cache_a, cache_b = caches if caches else ({}, {})
    base_sys = context_sys if context_sys is not None else sys
    builder = sys.backend.basis_builder()
    builder.add_all(graded_orbit(base_sys, B, s, cache_b))
    return builder.add_all(graded_orbit(sys, A, s, cache_a))


def verify_fit(
    P: GrowthPolynomial,
    sys: OperatorSystem,
    A,
    B,
    window: Tuple[Sequence[int], Sequence[int]],
    context_sys: OperatorSystem | None = None,
) -> VerifyReport:
    """Exact comparison of P with directly computed ranks on a window."""
    lo, hi = (tuple(window[0]), tuple(window[1]))
    if len(lo) != P.k or len(hi) != P.k:
        raise InputError("window arity mismatch")
    if not product_leq(P.threshold, lo):
        raise ContractError(
            f"window start {lo} is below the stabilization threshold {P.threshold}"
        )
    caches = ({}, {})
    points, mismatches = [], []
    for s in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        direct = _direct_rank(sys, A, B, s, context_sys, caches)
        val = P.evaluate(s)
        points.append((s, direct, val))
        if val != direct:
            mismatches.append((s, direct, val))
    return VerifyReport((lo, hi), points, mismatches)


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one system and seed pair.

    ``evidence`` says where the table's box came from: ``"bound"`` when
    it is the system's proven stabilization bound plus the window, so a
    certified result is proved, and ``"window"`` otherwise (an explicit
    or default box, whose window check is evidence only).
    """

    system: OperatorSystem
    table: DecreasingTable
    certificate: StaircaseCertificate
    numerator: GeneratingNumerator
    polynomial: GrowthPolynomial
    verification: VerifyReport
    status: str
    warnings: List[str] = field(default_factory=list)
    evidence: str = WINDOW_EVIDENCE

    @property
    def phi_rank_value(self) -> Fraction:
        """Rank of A over B in the orbit-closure matroid of the system.

        Equals the collapsed numerator evaluated at (1, ..., 1), which is
        the polynomial's leading coefficient times the product of
        (d_i - 1)!, and is a natural number on an augmented system; either
        check failing is a ``ContractError``.
        """
        value = Fraction(self.numerator.at_ones())
        lead = self.polynomial.leading_coefficient()
        factor = math.prod(
            math.factorial(d - 1) for d in self.system.partition.part_sizes
        )
        if lead * factor != value:
            raise ContractError(
                f"leading coefficient {lead} times {factor} differs from the "
                f"numerator at ones {value}"
            )
        if self.system.augmented and value < 0:
            raise ContractError(
                f"augmented-system rank must be a natural number, got {value}"
            )
        return value


def _require_triangular(sys: OperatorSystem, what: str):
    for i, flag in enumerate(sys.part_flags):
        if flag != TRIANGULAR:
            raise HypothesisError(
                f"{what} requires every part declared triangular; "
                f"part {i + 1} is declared {flag}",
                witness=f"part {i + 1}",
            )


def _check_context(sys: OperatorSystem, context_sys: OperatorSystem):
    if context_sys.backend is not sys.backend:
        raise InputError("context system must share the backend")
    if context_sys.k != sys.k:
        raise InputError("context system must use the same number of parts")
    for i in range(sys.k):
        small, big = list(sys.part_maps(i)), list(context_sys.part_maps(i))
        it = iter(big)
        if not all(any(phi is psi for psi in it) for phi in small):
            raise InputError(
                f"part {i + 1} of the primary system is not a subtuple of the context"
            )
    _require_triangular(context_sys, "context mode")


def analyze_graded(
    sys: OperatorSystem,
    A,
    B=(),
    cfg: StabilizationConfig | None = None,
    context_sys: OperatorSystem | None = None,
) -> PipelineResult:
    """Full graded pipeline: tabulate, stabilize, interpolate, verify.

    The graded orbit ranks of A over B, with B's orbits taken in
    ``context_sys`` when one is given.  Raises HypothesisError when a part
    lacks the triangular declaration or when the tabulated values
    contradict it (an increase along the product order is an explicit
    counterexample to the declared hypothesis).
    """
    cfg = cfg or StabilizationConfig()
    _require_triangular(sys, "the graded pipeline")
    if context_sys is not None:
        _check_context(sys, context_sys)
    box, warnings = _bound_box(sys, A, B, cfg, context_sys)
    table = tabulate_f(sys, A, B, cfg.box if box is None else box, context_sys)
    result = _analyze_table(sys, A, B, table, cfg, context_sys)
    result.warnings[:0] = warnings
    if box is not None:
        result.evidence = BOUND_EVIDENCE
    return result


def _bound_box(
    sys: OperatorSystem, A, B, cfg: StabilizationConfig, context_sys
) -> Tuple[Optional[Tuple[int, ...]], List[str]]:
    """The system's proven graded bound for A plus the window, when it
    applies, and the warnings of that choice.

    It applies only without an explicit box or a context system and with
    B empty; ``OperatorSystem.graded_bound`` says whether the system
    knows a bound for A.  A bound box over ``MAX_WORDS``, or a bound whose
    basis is over its budget, is never clipped: the default box is used
    instead, with a warning.  ``None`` means the config's box.
    """
    if cfg.box is not None or context_sys is not None or B:
        return None, []
    _validate_all(sys.backend, A)
    try:
        bound = sys.graded_bound(A)
    except BasisBudgetExceeded as exc:
        return None, [f"{exc}; tabulated the default box instead"]
    if bound is None:
        return None, []
    box = tuple(c + cfg.window for c in bound)
    size = sys.partition.word_count(sys.partition.part_degree(box), "cumulative")
    if size > MAX_WORDS:
        return None, [
            f"stabilization bound box {box} needs {size:,} words, over the "
            f"limit of {MAX_WORDS:,}; tabulated the default box instead"
        ]
    return box, []


def _analyze_table(
    sys: OperatorSystem,
    A,
    B,
    table: DecreasingTable,
    cfg: StabilizationConfig,
    context_sys: OperatorSystem | None,
) -> PipelineResult:
    """The graded pipeline after tabulation: stabilize, interpolate, verify."""
    if table.violations:
        u, up = table.violations[0]
        raise HypothesisError(
            "marginal ranks increase along the product order "
            f"({u} -> {up}: {table.values[u]} -> {table.values[up]}); "
            "a declared triangular part does not satisfy the triangularity "
            "rank inequality",
            witness=(u, up),
        )
    certificate = detect_stabilization(table, cfg)
    m_bar = certificate.m_bar
    if not product_leq(sys.partition.part_degree(m_bar), table.slice_cap):
        # the joint bound outgrew the tabulated slices (certificate is
        # necessarily box-truncated then); fall back to the covered corner
        m_bar = tuple(min(a, b) for a, b in zip(m_bar, table.box))
    numerator = numerator_from_table(table, m_bar, sys.partition)
    polynomial = interpolate(numerator, sys.partition.part_sizes)
    lo = polynomial.threshold
    hi = tuple(t + cfg.window for t in lo)
    verification = verify_fit(polynomial, sys, A, B, (lo, hi), context_sys)
    warnings = []
    if not certificate.window_certified:
        warnings.append(f"staircase not certified: {certificate.failure}")
    if not verification.ok:
        warnings.append(
            f"verification found {len(verification.mismatches)} mismatching points"
        )
    status = (
        CERTIFIED
        if certificate.window_certified and verification.ok
        else BOX_TRUNCATED
    )
    return PipelineResult(
        sys, table, certificate, numerator, polynomial, verification, status, warnings
    )


def analyze_cumulative(
    sys: OperatorSystem, A, B=(), cfg: StabilizationConfig | None = None
) -> PipelineResult:
    """The cumulative orbit ranks of A over B, as the graded pipeline of the
    augmented system, whose graded orbits are exactly the cumulative orbits
    of the original; per-variable degree may reach d_i rather than d_i - 1.
    """
    cfg = cfg or StabilizationConfig()
    aug = augment(sys)
    if cfg.box is not None and len(cfg.box) == sys.m:
        cfg = replace(cfg, box=_augment_box(cfg.box, sys.partition))
    elif cfg.box is not None and len(cfg.box) != aug.m:
        raise InputError(f"box has {len(cfg.box)} coordinates, system has {sys.m}")
    return analyze_graded(aug, A, B, cfg)


def _augment_box(box: Tuple[int, ...], p: Partition) -> Tuple[int, ...]:
    """Insert an identity-coordinate bound per part (the max of the part)."""
    out: List[int] = []
    for i in range(p.k):
        part = box[p.part_slice(i)]
        out.append(max(part))
        out.extend(part)
    return tuple(out)


@dataclass
class ClosureDecision:
    """Trichotomy for orbit-closure membership: member / non-member / inconclusive.

    ``non-member`` is only returned when the certified pipeline supports
    it (marginals identically one on the certified staircase, so the
    ratio of orbit rank to word count stays at one); it carries the same
    trust level as any certified polynomial, never more.
    """

    decision: str
    witness: Optional[MultiIndex] = None
    detail: str = ""

    @property
    def is_member(self) -> bool:
        return self.decision == "member"


def phi_closure_member(
    sys: OperatorSystem, a, B=(), cfg: StabilizationConfig | None = None
) -> ClosureDecision:
    """Search for an orbit-rank deficit of a single element over B.

    A zero marginal anywhere in the box is a concrete witness of
    membership.  With triangular parts and a certified pipeline, the
    absence of zeros certifies non-membership; otherwise the box was
    simply too small and the answer is inconclusive.
    """
    cfg = cfg or StabilizationConfig()
    table = tabulate_f(sys, [a], B, cfg.box)
    zeros = sorted(
        (u for u, v in table.values.items() if v == 0),
        key=lambda u: (sum(u), lex_key(u)),
    )
    if zeros:
        witness = sys.partition.part_degree(zeros[0])
        return ClosureDecision(
            "member",
            witness=witness,
            detail=f"orbit rank falls below the word count at part degree {witness}",
        )
    if not sys.declared(TRIANGULAR):
        return ClosureDecision(
            "inconclusive",
            detail="no witness in the box and the parts are not declared "
            "triangular, so the limit dichotomy does not apply",
        )
    try:
        result = _analyze_table(sys, [a], B, table, cfg, None)
    except HypothesisError as exc:
        return ClosureDecision("inconclusive", detail=str(exc))
    if result.status == CERTIFIED:
        return ClosureDecision(
            "non-member",
            detail="marginals are identically one on the certified staircase; "
            "orbit rank equals the word count for all part degrees",
        )
    return ClosureDecision(
        "inconclusive", detail="staircase could not be certified within the box"
    )
