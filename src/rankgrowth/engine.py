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
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ContractError, HypothesisError, InputError
from .operators import (
    MultiIndex,
    OperatorSystem,
    Partition,
    TRIANGULAR,
    _SKIPPED,
    _images,
    _word_lattice,
    augment,
    check_budget,
    degrees_below,
    is_int,
    lex_key,
    map_failure,
    natural_index,
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
            self.box = natural_index(self.box, None, "box")

    def resolved_box(self, m: int) -> Tuple[int, ...]:
        if self.box is None:
            return default_box(m)
        if len(self.box) != m:
            raise InputError(f"box has {len(self.box)} coordinates, system has {m}")
        return self.box


BOUND_EVIDENCE = "bound"
WINDOW_EVIDENCE = "window"


@dataclass
class DecreasingTable:
    """Tabulated marginal ranks on a finite box, with staircase metadata.

    ``values`` holds every word whose part degree fits under the box's
    part degree (a superset of the nominal box: lex-earlier words of the
    same degree are needed for correct marginals, so they come for free).
    Its box must be natural numbers and its words exactly the slice-cap
    lattice's, in lattice order: slices in ``degrees_below(slice_cap)``
    order, ascending lex order inside each, as ``tabulate_f`` and
    ``from_function`` build them.  Its values are marginal ranks, so
    natural numbers of type exactly ``int`` (no bool, float or
    ``Fraction``); the first other value in lattice order is named.  Any
    other table is an ``InputError``.

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
    slice_cap: Tuple[int, ...] = field(init=False)
    violations: List[Tuple[MultiIndex, MultiIndex]] = field(init=False)
    corners: List[Tuple[MultiIndex, int, int]] = field(init=False)

    def __post_init__(self):
        p = self.partition
        self.box = natural_index(self.box, None, "box")
        self.slice_cap = cap = p.part_degree(self.box)
        lattice = _word_lattice(p.part_sizes, cap)
        words = list(self.values)
        if words != lattice.words:
            raise InputError(
                f"table words are not the {len(lattice.words):,} words under "
                f"slice cap {cap} in lattice order"
            )
        f = list(self.values.values())
        if not set(map(type, f)) <= {int}:  # one pass over the values' types
            n = next(n for n, v in enumerate(f) if type(v) is not int)
            raise InputError(
                f"marginal rank at {words[n]} must be an integer, got {f[n]!r}"
            )
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
        """Synthetic table from an explicit function on multi-indices,
        checked as every table is."""
        box = natural_index(box, None, "box")  # before the lattice reads it
        cap = partition.part_degree(box)
        values = {r: f(r) for r in _word_lattice(partition.part_sizes, cap).words}
        return cls(box, partition, values)

    @property
    def is_decreasing(self) -> bool:
        return not self.violations

    def graded_sum(self, s: MultiIndex) -> int:
        """The sum of the values at part degree ``s``, which must be a point of
        N^k under the slice cap, else an ``InputError``."""
        s = natural_index(s, self.partition.k, "part degree")
        if not product_leq(s, self.slice_cap):
            raise InputError(f"part degree {s} is outside slice cap {self.slice_cap}")
        return sum(self.values[r] for r in self.partition.words_of_part_degree(s))


def tabulate_f(
    sys: OperatorSystem,
    A,
    B,
    box: Sequence[int] | None = None,
    context_sys: OperatorSystem | None = None,
) -> DecreasingTable:
    """Tabulate the marginal rank function over every slice under the box.

    ``box`` is validated as a ``StabilizationConfig`` box; ``None`` means
    the default box.  A's images come from ``operators._images``, the one
    walk of the word lattice, which check mode steps too, over the lattice
    under the box's part degree.  B's orbits come from ``_stepped_orbits``
    at the same part degrees, in the context system (vetted by
    ``_check_context``) or else in ``sys``; an empty B gives an empty orbit
    at each, at no map call.  A nonempty B's context words are counted in
    closed form against the work budget before any map runs, and no
    lattice is built for the context.  So B's maps are held to
    commute, as in ``verify_fit``: a larger orbit is a ``HypothesisError``.

    Each slice (part-degree class) gets a fresh basis builder, fed B's
    orbit there; A's images then arrive as the walk yields the slice, word
    by word in ascending lex order with the seeds in sorted order, and each
    word's marginal is the number of its images of A that raise the rank
    over everything fed before.  Summing over a slice telescopes to the
    relative rank of the graded orbits.

    With no context, a system that ``translates_points`` (the systems
    whose bound ``graded_bound`` proves) marks each pair the
    builder rejects ``_SKIPPED``, so the walk steps nothing from it: every
    pair stepped from a rejected pair is rejected too.  Let ``E`` be what
    comes before a pair ``(a, w)`` of slice ``s``: B's orbit at ``s``, the
    pairs at the words below ``w`` and those of the seeds before ``a`` at
    ``w``.  By induction over the walk, each pair of ``E`` that was dropped
    lies in the span of what was fed before it, so the span of ``E`` is
    that of what was fed.  Let ``(a, w)`` lie in it, and let map ``c`` of
    part ``p`` step it to ``(a, w + e_c)`` in slice ``s + e_p``.  The maps
    commute, so ``c`` sends each pair ``(b, u)`` of ``E`` to
    ``(b, u + e_c)``, whose word is below ``w + e_c`` when ``u`` is below
    ``w`` (the lex order is translation-invariant) and whose seed keeps its
    order; and B's orbit at ``s``, the images of its words, into B's orbit
    at ``s + e_p``.  So ``c(E)`` comes before ``(a, w + e_c)``.  A
    translation keeps spans: an equal point stays equal, a point above a
    killed point stays above it (killed points need 0/1 vectors), and a
    monomial shift is linear.  Hence ``(a, w + e_c)`` lies in the span of
    ``c(E)``, so the builder would reject it, and dropping it changes no
    marginal: the paper's triangularity inequality for one element.
    Elsewhere every pair is stepped and fed: a context's B orbit holds the
    translates of its earlier orbit only if the context's maps commute,
    which nothing checks, and a part that is only declared triangular is
    what the table's violation scan tests.
    """
    box = StabilizationConfig(box=box).resolved_box(sys.m)
    if context_sys is not None:
        _check_context(sys, context_sys)
    backend = sys.backend
    # both seed sets are validated before any map runs
    seeds, seeds_b = backend.sorted_elems(A), backend.sorted_elems(B)
    cap = sys.partition.part_degree(box)
    lattice = _word_lattice(sys.partition.part_sizes, cap)
    if seeds_b and context_sys is not None:  # else A's lattice bounds B's words
        sizes = list(context_sys.partition.part_sizes)
        check_budget(
            context_sys.partition.word_count((0,) * sys.k, cap),
            f"tabulating part degrees up to {cap}",
            f"B's orbits run in the context system with parts of sizes "
            f"{sizes}; use a smaller box (--box)",
        )
    orbits_b = _stepped_orbits(context_sys or sys, seeds_b, (0,) * sys.k, cap)
    drop = context_sys is None and sys.translates_points
    marginals = []
    # the walk's slices and B's orbits both come in degrees_below(cap) order
    for (start, stop, images), (_, orbit_b) in zip(
        _images(sys.maps, seeds, lattice), orbits_b
    ):
        builder = backend.basis_builder()
        builder.add_all(orbit_b)
        add = builder.add
        for n in range(start, stop):  # word by word, seeds in order
            count = 0
            for img in images:
                x = img[n]
                if x is _SKIPPED:
                    continue
                if add(x):
                    count += 1
                elif drop:
                    img[n] = _SKIPPED
            marginals.append(count)
    values = dict(zip(lattice.words, marginals))
    return DecreasingTable(box, sys.partition, values)


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
    implicitly the product of (1 - Y_i)^{d_i}.  Part sizes that are not
    positive integers, a cap or an exponent that is not a point of N^k,
    an exponent above the cap or a coefficient that is no integer is an
    ``InputError``.
    """

    coeffs: Dict[MultiIndex, int]
    cap: MultiIndex
    part_sizes: Tuple[int, ...]

    def __post_init__(self):
        partition = Partition(self.part_sizes)
        self.part_sizes, k = partition.part_sizes, partition.k
        self.cap = natural_index(self.cap, k, "numerator cap")
        for e, c in self.coeffs.items():
            natural_index(e, k, "numerator exponent")
            if not product_leq(e, self.cap):
                raise InputError(f"numerator exponent {e} exceeds cap {self.cap}")
            if not is_int(c):
                raise InputError(
                    f"numerator coefficient at {e} must be an integer, got {c!r}"
                )

    def at_ones(self) -> int:
        return sum(self.coeffs.values())


def numerator_from_table(
    table: DecreasingTable, m_bar: MultiIndex
) -> GeneratingNumerator:
    """Coordinatewise finite differences, then the partition substitution.

    Applying (1 - Y_i) for each of the m variables in turn leaves integer
    coefficients supported below ``m_bar``; substituting one variable per
    part of the table's partition collapses exponents to part degrees.
    """
    p = table.partition
    m_bar = natural_index(m_bar, p.m, "staircase bound")
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
    above it (not necessarily the least such bound).  The degree bound
    and the threshold must be points of N^k, each exponent a point of N^k,
    under the degree bound where its coefficient is nonzero, and each
    coefficient an ``int`` or a ``Fraction``; anything else is an
    ``InputError``.
    """

    def __init__(
        self,
        coeffs: Dict[MultiIndex, Fraction],
        degree_bound: Tuple[int, ...],
        threshold: Tuple[int, ...],
    ):
        self.degree_bound = natural_index(degree_bound, None, "degree bound")
        self.threshold = natural_index(threshold, self.k, "threshold")
        self.coeffs = {}
        for e, c in coeffs.items():
            e = natural_index(e, self.k, "exponent")
            if not (is_int(c) or isinstance(c, Fraction)):
                raise InputError(
                    f"coefficient at {e} must be an int or a Fraction, got {c!r}"
                )
            if c:
                if not product_leq(e, self.degree_bound):
                    raise InputError(
                        f"exponent {e} exceeds degree bound {self.degree_bound}"
                    )
                self.coeffs[e] = Fraction(c)

    @property
    def k(self) -> int:
        return len(self.degree_bound)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, s: Sequence[int]) -> Fraction:
        """The value at ``s``, a list or tuple of k integers (negative ones
        too); any other point is an ``InputError``."""
        if not isinstance(s, (list, tuple)):
            raise InputError(f"point {s!r} must be a list or tuple of integers")
        if len(s) != self.k:
            raise InputError(f"point {s} has {len(s)} coordinates, not {self.k}")
        if not all(map(is_int, s)):
            raise InputError(f"point {s} must have integer coordinates")
        return self._integer_values()(s)

    def _integer_values(self) -> Callable[[Sequence[int]], Fraction]:
        """The map from a point of k integers, unchecked, to the value there.

        The coefficients' common denominator and each term's numerator
        over it are computed once, here; each call sums the numerators
        times their nonzero powers of the point and builds one
        ``Fraction``.  ``verify_fit`` builds the map once and calls it at
        every window point.
        """
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        terms = [
            (
                c.numerator * (den // c.denominator),
                [(i, x) for i, x in enumerate(e) if x],
            )
            for e, c in self.coeffs.items()
        ]

        def value(s: Sequence[int]) -> Fraction:
            total = 0
            for term, powers in terms:
                for i, x in powers:
                    term *= s[i] ** x
                total += term
            return Fraction(total, den)

        return value

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


def _scaled_binomial_coeffs(r: int, d: int) -> List[int]:
    """Coefficients of (d - 1)! C(Y - r + d - 1, d - 1), the product of
    Y + d - 1 - r - j over j < d - 1: integers."""
    coeffs = [1]
    for j in range(d - 1):
        shift = d - 1 - r - j
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += c * shift
        coeffs = nxt
    return coeffs


def interpolate(numerator: GeneratingNumerator) -> GrowthPolynomial:
    """Expand the rational generating function into its eventual polynomial.

    With d the part sizes, each term a * Y^r contributes a times the
    product of binomial-basis polynomials C(Y_i - r_i + d_i - 1, d_i - 1);
    the sum agrees with the growth function at every point above the
    numerator's exponent cap, and its top coefficient is the numerator
    evaluated at (1, ..., 1) divided by the product of (d_i - 1)!.  The
    sum is accumulated in integers scaled by that product, and divided
    once per coefficient at the end.
    """
    d = numerator.part_sizes
    total: Dict[MultiIndex, int] = {}
    for r, a in numerator.coeffs.items():
        term: Dict[MultiIndex, int] = {(): a}
        for ri, di in zip(r, d):
            basis = list(enumerate(_scaled_binomial_coeffs(ri, di)))
            term = {e + (j,): c * bc for e, c in term.items() for j, bc in basis if bc}
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    scale = math.prod(math.factorial(x - 1) for x in d)
    bound = tuple(x - 1 for x in d)
    coeffs = {e: Fraction(c, scale) for e, c in total.items() if c}
    return GrowthPolynomial(coeffs, bound, numerator.cap)


def dominant_terms(P: GrowthPolynomial):
    """Terms maximal under some coordinate-permutation lexicographic order.

    If an order makes a term maximal and the term's exponent is largest at
    coordinate ``c``, moving ``c`` to the front of that order keeps it
    maximal, since the terms that tie with it at ``c`` compare as before.
    So no search over the ``k!`` orders is made: a term dominates exactly
    when it can keep choosing an unused coordinate where it is largest
    among the terms still tied with it, until no other term is tied.  Each
    term takes at most ``k`` rounds, each scanning the terms still tied.
    """
    exps, winners = list(P.coeffs), set()
    for e, coeff in P.coeffs.items():
        tied, free = exps, list(range(P.k))
        while len(tied) > 1:
            c = next((c for c in free if e[c] == max(t[c] for t in tied)), None)
            if c is None:
                break
            free.remove(c)
            tied = [t for t in tied if t[c] == e[c]]
        else:
            winners.add((e, coeff))
    return winners


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


def _stepped_orbits(
    sys: OperatorSystem, seeds: List, lo: MultiIndex, hi: MultiIndex
) -> Iterator[Tuple[MultiIndex, List]]:
    """Yield ``(s, orbit)`` for every part degree ``s`` of the box ``[lo, hi]``,
    in product order, from the distinct ``seeds``.

    The orbit steps one part degree at a time: the orbit at ``s + e_i`` is
    the union of the images of the orbit at ``s`` under the maps of part
    ``i``, without duplicates.  For commuting maps that is the
    set of images of the words of part degree ``s + e_i``, whatever the
    order of their maps.  A chain from 0 reaches ``lo``, raising one
    coordinate after another; every other point of the box steps from its
    predecessor in its last coordinate above ``lo``.  No word is built and
    no image is read from ``operators._images`` or a table.  ``verify_fit``
    steps both orbits of its window here, and ``tabulate_f`` B's orbits
    from 0 to its slice cap.  With no seeds every orbit is empty: the
    chain to ``lo`` steps it at no cost and the box yields it as it is,
    stored and stepped nowhere, so no map runs.

    Commuting maps give at most ``len(seeds)`` times the words of part
    degree ``s`` points at ``s``, a product of one binomial per part read
    from lists built once per call: a larger orbit is a ``HypothesisError``
    with witness ``s``, so each step runs the maps of its part on at most
    that many points.  A map that raises is an
    ``OperatorError`` naming the map and the part degree being reached,
    with the original exception as its cause.
    """
    p = sys.partition
    # each part's words of degree 0..hi_i, for the bound at every step
    words = [
        [math.comb(t + d - 1, d - 1) for t in range(h + 1)]
        for d, h in zip(p.part_sizes, hi)
    ]

    def step(orbit: List, i: int, t: MultiIndex) -> List:
        """The orbit at ``t`` from the orbit at ``t - e_i``."""
        if not orbit:  # no seeds
            return orbit
        found: Dict = {}
        for slot, phi in enumerate(sys.part_maps(i), p.breakpoints[i]):
            try:
                images = list(map(phi, orbit))
            except Exception as exc:  # noqa: BLE001 - rewrapped as apply_word does
                raise map_failure(slot, f"reaching part degree {t}", exc) from exc
            found.update(dict.fromkeys(images))
        limit = len(seeds) * math.prod(map(list.__getitem__, words, t))
        if len(found) > limit:
            raise HypothesisError(
                f"the orbit at part degree {t} has {len(found):,} points, but "
                f"commuting maps give at most {limit:,} (seeds times words); "
                "the system's maps do not commute",
                witness=t,
            )
        return list(found)

    orbit = seeds
    for i in range(p.k):
        for c in range(lo[i]):
            orbit = step(orbit, i, lo[:i] + (c + 1,) + (0,) * (p.k - i - 1))
    orbits = {lo: orbit}
    for t in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if t != lo and orbit:  # an empty orbit at lo is empty throughout
            i = max(j for j in range(p.k) if t[j] > lo[j])
            orbits[t] = step(orbits[t[:i] + (t[i] - 1,) + t[i + 1 :]], i, t)
        yield t, orbits.get(t, orbit)


def verify_fit(
    P: GrowthPolynomial,
    sys: OperatorSystem,
    A,
    B,
    window: Tuple[Sequence[int], Sequence[int]],
    context_sys: OperatorSystem | None = None,
) -> VerifyReport:
    """Exact comparison of P with directly computed ranks on a window.

    Each point's rank is recomputed from the orbits of A (in ``sys``) and
    of B (in the context system when one is given, else ``sys``), which
    ``_stepped_orbits`` steps one part degree at a time, sharing no image
    code with A's walk in ``tabulate_f`` and reading nothing from its
    table.  A ``P`` whose variables are not one per part of ``sys``, a
    window whose corners are not points of N^k, the end nowhere
    below the start, or over the work budget (counted in closed form in
    the B system too when B's validated seeds are nonempty) is an
    ``InputError`` before any point is verified, as is a context system
    that does not extend ``sys`` (``_check_context``) or a malformed
    element of A or B (``RankOracle.sorted_elems``); an orbit larger than
    commuting maps allow is a ``HypothesisError``.
    ``P`` is evaluated at every point in integers, its common denominator
    and numerators computed once per call.
    """
    if P.k != sys.k:
        raise InputError(
            f"polynomial has k = {P.k} variables, system has k = {sys.k} parts"
        )
    lo = natural_index(window[0], P.k, "window start")
    hi = natural_index(window[1], P.k, "window end")
    if not product_leq(lo, hi):
        raise InputError(f"window end {hi} is below its start {lo}")
    if not product_leq(P.threshold, lo):
        raise ContractError(
            f"window start {lo} is below the stabilization threshold {P.threshold}"
        )
    if context_sys is not None:
        _check_context(sys, context_sys)
    base_sys = context_sys or sys
    backend = sys.backend
    seeds, seeds_b = backend.sorted_elems(A), backend.sorted_elems(B)
    words = sys.partition.word_count(lo, hi)
    if seeds_b:
        words = max(words, base_sys.partition.word_count(lo, hi))
    doing = f"verifying part degrees {lo} to {hi}"
    check_budget(words, doing, "use a smaller window (--window)")
    orbits_a = _stepped_orbits(sys, seeds, lo, hi)
    orbits_b = _stepped_orbits(base_sys, seeds_b, lo, hi)
    value = P._integer_values()
    points, mismatches = [], []
    for (s, orbit_b), (_, orbit_a) in zip(orbits_b, orbits_a):
        builder = backend.basis_builder()
        builder.add_all(orbit_b)
        direct = builder.add_all(orbit_a)
        val = value(s)
        points.append((s, direct, val))
        if val != direct:
            mismatches.append((s, direct, val))
    return VerifyReport((lo, hi), points, mismatches)


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one system and seed pair.

    ``evidence`` says what judged the table's box: ``"bound"`` when it
    covers the system's proven stabilization bound plus the window, so a
    certified result is proved, and ``"window"`` otherwise (a box no
    known bound judges, whose window check is evidence only; a box that
    misses a known bound is never certified).
    """

    system: OperatorSystem
    table: DecreasingTable
    certificate: StaircaseCertificate
    numerator: GeneratingNumerator
    polynomial: GrowthPolynomial
    verification: VerifyReport
    status: str
    warnings: List[str]
    evidence: str

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
    """An ``InputError`` unless ``context_sys`` extends ``sys`` part by part:
    each map of a primary part, by identity, appears in the context's part
    at least as often, in any order (B's orbit is a set of points, which the
    order of a part's maps cannot change)."""
    if context_sys.backend is not sys.backend:
        raise InputError("context system must share the backend")
    if context_sys.k != sys.k:
        raise InputError("context system must use the same number of parts")
    for i in range(sys.k):
        held = Counter(map(id, context_sys.part_maps(i)))
        if Counter(map(id, sys.part_maps(i))) - held:
            raise InputError(
                f"part {i + 1}: context operators hold a map of the primary "
                "system fewer times than the primary does"
            )


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
    counterexample to the declared hypothesis).  A and B are read once, by
    ``RankOracle.sorted_elems`` after the triangularity checks, so they may
    be any iterables; every stage after that reads those lists.
    """
    cfg = cfg or StabilizationConfig()
    _require_triangular(sys, "the graded pipeline")
    if context_sys is not None:
        _require_triangular(context_sys, "context mode")
    A, B = sys.backend.sorted_elems(A), sys.backend.sorted_elems(B)
    box, evidence, warnings, missed = _choose_box(sys, A, B, cfg, context_sys)
    table = tabulate_f(sys, A, B, box, context_sys)
    return _analyze_table(
        sys, A, B, table, cfg, context_sys, evidence, warnings, missed
    )


def _choose_box(
    sys: OperatorSystem, A, B, cfg: StabilizationConfig, context_sys
) -> Tuple[Tuple[int, ...], str, List[str], Optional[str]]:
    """The box to tabulate, its evidence, the warnings of that choice and the
    failure that keeps it from certifying, if any.

    With no context system and B empty, the system's proven graded bound
    for A (``OperatorSystem.graded_bound`` says whether the system knows
    one) judges the box.  With no explicit box, the box is that bound plus
    the window; a bound box over the work budget is never clipped: the
    default box is used instead, with a warning.  A box whose slice cap
    covers the bound box's has ``"bound"`` evidence.  One that does not
    cannot certify: its failure names the bound and the box it needs.  A
    bound whose basis is over its budget is no bound known, so the default
    box gets a warning and an explicit box none.  Every box but a covering
    one has ``"window"`` evidence.  ``A`` and ``B`` are the lists that
    ``RankOracle.sorted_elems`` made, so a malformed seed was refused there,
    before any bound was asked for.
    """
    box = cfg.resolved_box(sys.m)
    if context_sys is not None or B:
        return box, WINDOW_EVIDENCE, [], None
    fallback = "tabulated the default box instead"
    try:
        bound = sys.graded_bound(A)
    except InputError as exc:  # its toric basis is over the budget
        warnings = [] if cfg.box is not None else [f"{exc}; {fallback}"]
        return box, WINDOW_EVIDENCE, warnings, None
    if bound is None:
        return box, WINDOW_EVIDENCE, [], None
    p = sys.partition
    bound_box = tuple(c + cfg.window for c in bound)
    needs = p.part_degree(bound_box)
    warnings = []
    if cfg.box is None:
        size = p.word_count((0,) * p.k, needs)
        try:
            check_budget(size, f"stabilization bound box {bound_box}", fallback)
            box = bound_box
        except InputError as exc:
            warnings.append(str(exc))
    if product_leq(needs, p.part_degree(box)):
        return box, BOUND_EVIDENCE, warnings, None
    failure = f"the proven stabilization bound {bound} needs box {bound_box}"
    return box, WINDOW_EVIDENCE, warnings, f"{failure}, which box {box} misses"


def _analyze_table(
    sys: OperatorSystem,
    A,
    B,
    table: DecreasingTable,
    cfg: StabilizationConfig,
    context_sys: OperatorSystem | None,
    evidence: str,
    warnings: List[str],
    missed: Optional[str],
) -> PipelineResult:
    """The graded pipeline after tabulation: stabilize, interpolate, verify.
    ``missed``, when given, says how the box misses a proven bound: the
    staircase is then box-truncated with that failure."""
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
    if missed is not None:
        certificate = replace(certificate, status=BOX_TRUNCATED, failure=missed)
    m_bar = certificate.m_bar
    if not product_leq(sys.partition.part_degree(m_bar), table.slice_cap):
        # the joint bound outgrew the tabulated slices (certificate is
        # necessarily box-truncated then); fall back to the covered corner
        m_bar = tuple(min(a, b) for a, b in zip(m_bar, table.box))
    numerator = numerator_from_table(table, m_bar)
    polynomial = interpolate(numerator)
    lo = polynomial.threshold
    hi = tuple(t + cfg.window for t in lo)
    verification = verify_fit(polynomial, sys, A, B, (lo, hi), context_sys)
    warnings = list(warnings)
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
        sys, table, certificate, numerator, polynomial, verification, status,
        warnings, evidence,
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
    ratio of orbit rank to word count stays at one); it carries the
    evidence of that run, as any certified polynomial does, never more.
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

    The box is the one ``analyze_graded`` would tabulate, and ``[a]`` and B
    are read once, as there.  A zero
    marginal anywhere in it is a concrete witness of membership.  With
    triangular parts and a certified pipeline, the absence of zeros
    certifies non-membership; otherwise the box was simply too small and
    the answer is inconclusive.  With one seed every marginal is 0 or 1, so
    a table with a violation has a zero and has answered ``member`` already.
    """
    cfg = cfg or StabilizationConfig()
    A, B = sys.backend.sorted_elems([a]), sys.backend.sorted_elems(B)
    box, evidence, warnings, missed = _choose_box(sys, A, B, cfg, None)
    table = tabulate_f(sys, A, B, box)
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
    result = _analyze_table(sys, A, B, table, cfg, None, evidence, warnings, missed)
    if result.status == CERTIFIED:
        return ClosureDecision(
            "non-member",
            detail="marginals are identically one on the certified staircase; "
            "orbit rank equals the word count for all part degrees "
            f"({evidence} evidence)",
        )
    return ClosureDecision(
        "inconclusive", detail="staircase could not be certified within the box"
    )
