"""Independent brute-force oracles used to pin expected test values.

Deliberately separate from the package internals: plain Fraction row
reduction, a five-line union-find, the set-count ranks of the trivial
backend (with and without killed points) and of the free-chain backend,
cumulative orbits applied map by map, direct sumset iteration and the
shadowed words of a sumset's slices, lattice point and monomial-quotient
counting, quadratic greedy sweeps for the staircase, the violations
and the level frontiers of a table, the word lattice built from recursive
compositions with a tuple-keyed index, the greedy basis extension by
plain rank calls, and check mode's sampled triangularity test map by map,
each map's rank recomputed from scratch by the backend's
``relative_rank`` over the orbit ``apply_word`` gives.
Tests freeze values computed here and compare the package's answers
against them.  The exceptions are ``reference_tabulate`` and
``reference_verify``, the per-slice tabulation kernel and the per-point
verification built from the package's ``apply_word``, ``graded_orbit`` and
basis builders, which pin the word-lattice kernel and the stepped orbits
to them: ``apply_word`` applies each word map by map from its seed, so it
shares no image with the lattice walk it checks.  ``FractionEchelonBuilder`` and ``fraction_linear_operator`` are
the linear backend's elimination and linear maps in plain ``Fraction``
arithmetic, which pin its integer kernel; ``reference_interpolate`` and
``reference_evaluate`` are the binomial-basis interpolation and the
polynomial evaluation in ``Fraction`` arithmetic, which pin the integer
ones; ``permutation_dominant_terms`` is the definition of a dominant term,
a search over every coordinate order, which pins the greedy test;
``reference_truncated_basis`` is the truncated toric Buchberger on
exponent tuples, which pins the packed-int kernel; ``reference_translation``
and ``reference_counts`` are the translation and the killed-point test
through ``map`` in any dimension, which pin the kernels unrolled up to
dimension 3.
"""

import heapq
import math
import operator
from fractions import Fraction
from itertools import permutations, product
from typing import List


def matrix_rank(rows):
    """Rank of a matrix given as a list of equal-length rows, exact."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class FractionEchelonBuilder:
    """Incremental sparse elimination over the rationals.

    ``add`` takes a canonical (key, int or Fraction) vector, coerces each
    coefficient to a ``Fraction`` and says whether it raises the rank;
    ``pivots`` maps each pivot key to its row scaled to pivot coefficient
    1.  The pivot is always the least key of the remainder.
    """

    def __init__(self):
        self.pivots = {}

    def add(self, elem):
        v = {k: Fraction(c) for k, c in elem}
        while v:
            p = min(v)
            row = self.pivots.get(p)
            if row is None:
                inv = 1 / v[p]
                self.pivots[p] = {k: c * inv for k, c in v.items()}
                return True
            coef = v.pop(p)
            for k, c in row.items():
                if k == p:
                    continue
                nc = v.get(k, Fraction(0)) - coef * c
                if nc:
                    v[k] = nc
                else:
                    v.pop(k, None)
        return False


def fraction_linear_operator(image_fn):
    """The linear extension of a basis-key map, term by term in Fractions.

    Returns canonical vectors: sorted (key, Fraction) pairs, zeros dropped.
    """

    def op(elem):
        acc = {}
        for k, c in elem:
            for k2, c2 in image_fn(k):
                acc[k2] = acc.get(k2, Fraction(0)) + Fraction(c) * Fraction(c2)
        return tuple(sorted((k, c) for k, c in acc.items() if c != 0))

    return op


def forest_rank(edges):
    """Graphic-matroid rank of an edge list: vertices minus components."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    r = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            r += 1
    return r


def distinct_count(elems):
    """Trivial-backend rank: the number of distinct elements."""
    return len(set(elems))


def ideal_count(elems, antichain):
    """Ideal-count rank: distinct points with no antichain point below them."""
    return len({p for p in elems if not any(_leq(q, p) for q in antichain)})


def reference_translation(v):
    """The map ``x -> x + v`` in any dimension, as ``tuple(map(add, x, v))``:
    the generic kernel that ``backends.translation`` keeps above dimension 3."""

    def op(x):
        return tuple(map(operator.add, x, v))

    return op


def reference_counts(killed, point):
    """Whether ``point`` lies above no point of ``killed``, each compared
    through ``map``: the generic killed test that
    ``TrivialBackend.basis_builder`` keeps above dimension 3."""
    for r in killed:
        if all(map(operator.le, r, point)):
            return False
    return True


def nonzero_chain_count(elems, zero):
    """Free chain rank: distinct chain elements other than ``zero``."""
    return len(set(elems) - {zero})


def cumulative_orbit(sys, A, s):
    """Distinct images of the seeds A under every word of part degree at
    most s, each word applied map by map from its seed, in first-seen
    order (seeds as given, words in ``product`` order)."""
    p = sys.partition
    coords = [range(s[p.part_of(i)] + 1) for i in range(p.m)]
    out, seen = [], set()
    for a in A:
        for r in product(*coords):
            if any(d > c for d, c in zip(p.part_degree(r), s)):
                continue
            x = a
            for i, c in enumerate(r):
                for _ in range(c):
                    x = sys.maps[i](x)
            if x not in seen:
                seen.add(x)
                out.append(x)
    return out


def sumset_sizes(A, B, t_max):
    """Sizes of A + tB for t = 0..t_max by direct iteration."""
    cur = {tuple(a) if isinstance(a, (tuple, list)) else (a,) for a in A}
    Bv = [tuple(b) if isinstance(b, (tuple, list)) else (b,) for b in B]
    sizes = [len(cur)]
    for _ in range(t_max):
        cur = {tuple(x + y for x, y in zip(s, b)) for s in cur for b in Bv}
        sizes.append(len(cur))
    return sizes


def sumset_count(A, parts, s):
    """|A + s_1 B_1 + ... + s_k B_k| by direct iteration over vector tuples."""
    cur = {tuple(a) for a in A}
    for B, t in zip(parts, s):
        for _ in range(t):
            cur = {tuple(x + y for x, y in zip(p, b)) for p in cur for b in B}
    return len(cur)


def shadowed_generators(parts, seeds, box):
    """Per seed, the minimal words inside ``box`` whose image of that seed
    repeats a point fed earlier in its slice.

    Slices are fed whole: words of one part degree in lex order (last
    coordinate first), each word's seeds in the order given.
    """
    vectors = [tuple(b) for B in parts for b in B]
    dim = len(vectors[0])
    sizes = [len(B) for B in parts]
    cap = []
    start = 0
    for d in sizes:
        cap.append(sum(box[start : start + d]))
        start += d
    shadowed = [[] for _ in seeds]
    for s in product(*(range(c + 1) for c in cap)):
        blocks = [
            [w for w in product(range(t + 1), repeat=d) if sum(w) == t]
            for t, d in zip(s, sizes)
        ]
        words = sorted((sum(ws, ()) for ws in product(*blocks)), key=_lex_key)
        seen = set()
        for u in words:
            shift = [sum(c * v[i] for c, v in zip(u, vectors)) for i in range(dim)]
            for j, a in enumerate(seeds):
                point = tuple(x + y for x, y in zip(a, shift))
                if point in seen:
                    if _leq(u, box):
                        shadowed[j].append(u)
                else:
                    seen.add(point)
    return [
        sorted(u for u in S if not any(v != u and _leq(v, u) for v in S))
        for S in shadowed
    ]


def ideal_points_of_degree(antichain, m, part_sizes, s, cumulative=False):
    """Count lattice points in the ideal with the given complement antichain.

    A point is in the ideal iff no antichain element is coordinatewise
    below it; degrees are per-part coordinate sums.
    """
    breaks = [0]
    for d in part_sizes:
        breaks.append(breaks[-1] + d)

    def part_deg(r):
        return tuple(
            sum(r[breaks[i] : breaks[i + 1]]) for i in range(len(part_sizes))
        )

    def in_ideal(r):
        return not any(all(a <= b for a, b in zip(ac, r)) for ac in antichain)

    total_cap = sum(s) + 1
    count = 0
    for r in product(range(total_cap + 1), repeat=m):
        d = part_deg(r)
        if cumulative:
            if all(x <= y for x, y in zip(d, s)) and in_ideal(r):
                count += 1
        elif d == tuple(s) and in_ideal(r):
            count += 1
    return count


def quotient_orbit_rank(gens, relations, part_sizes, s, cumulative=False):
    """Rank of the word images of monomial generators in a monomial quotient.

    The distinct exponent vectors g + r, over generators g and words r of
    part degree s (at most s when cumulative), that lie above no relation.
    """
    breaks = [0]
    for d in part_sizes:
        breaks.append(breaks[-1] + d)
    m = breaks[-1]
    images = set()
    for r in product(range(sum(s) + 1), repeat=m):
        d = [sum(r[breaks[i] : breaks[i + 1]]) for i in range(len(part_sizes))]
        if d == list(s) or (cumulative and all(x <= y for x, y in zip(d, s))):
            images.update(tuple(a + b for a, b in zip(g, r)) for g in gens)
    return len([x for x in images if not any(_leq(q, x) for q in relations)])


def subcomplex_betti(simplices, n):
    """Betti number b_n of a set of simplices via full boundary matrices."""
    closed = set()
    for s in simplices:
        s = tuple(sorted(set(s)))
        for r in range(1, len(s) + 1):
            from itertools import combinations

            for face in combinations(s, r):
                closed.add(face)

    def boundary_rank(dim):
        # rank of the boundary map on dim-simplices (tuples of length dim+1)
        if dim < 1:
            return 0
        faces = sorted(x for x in closed if len(x) == dim)
        cols = sorted(x for x in closed if len(x) == dim + 1)
        idx = {f: i for i, f in enumerate(faces)}
        mat = []
        for c in cols:
            col = [0] * len(faces)
            for j in range(len(c)):
                face = c[:j] + c[j + 1 :]
                col[idx[face]] += (-1) ** j
            mat.append(col)
        return matrix_rank(mat) if mat else 0

    n_simps = len([x for x in closed if len(x) == n + 1])
    return n_simps - boundary_rank(n) - boundary_rank(n + 1)


def _lex_key(u):
    return tuple(reversed(u))


def _leq(v, u):
    return all(a <= b for a, b in zip(v, u))


def successor_violations(values):
    """Pairs (u, u + e_i) of a table where the value increases.

    Scans every word's successors; ordered by the lower word's total
    degree, then its last-coordinate-first lex key, then the axis.
    """
    out = []
    for u, fu in values.items():
        for i in range(len(u)):
            up = u[:i] + (u[i] + 1,) + u[i + 1 :]
            fup = values.get(up)
            if fup is not None and fup > fu:
                out.append((u, up))
    out.sort(key=lambda pair: (sum(pair[0]), _lex_key(pair[0])))
    return out


def greedy_staircase(values, part_sizes, slice_cap, window):
    """(levels, m_bar, status, failure) of a decreasing table, greedily.

    For each n = 0..f(0), sweeps every word by total degree and lex key
    and keeps those with f <= n that no kept word lies below: the minimal
    words of {f <= n}.  ``m_bar`` joins them all; the window check then
    compares every word of the band beyond ``m_bar`` with its clamp.
    """
    m = sum(part_sizes)
    zero = (0,) * m
    f0 = values[zero]
    by_degree = sorted(values.items(), key=lambda kv: (sum(kv[0]), _lex_key(kv[0])))
    levels = {}
    m_bar = list(zero)
    for n in range(f0 + 1):
        antichain = []
        for u, fu in by_degree:
            if fu <= n and not any(_leq(v, u) for v in antichain):
                antichain.append(u)
        levels[n] = tuple(antichain)
        for u in antichain:
            m_bar = [max(a, b) for a, b in zip(m_bar, u)]
    m_bar = tuple(m_bar)

    def part_degree(r):
        out, start = [], 0
        for d in part_sizes:
            out.append(sum(r[start : start + d]))
            start += d
        return tuple(out)

    band_cap = tuple(c + window for c in m_bar)
    if not _leq(part_degree(band_cap), slice_cap):
        failure = f"window {band_cap} exceeds tabulated part degrees {slice_cap}"
        return levels, m_bar, "box-truncated", failure
    for u in product(*(range(c + 1) for c in band_cap)):
        if _leq(u, m_bar):
            continue
        clamped = tuple(min(a, b) for a, b in zip(u, m_bar))
        if values[u] != values[clamped]:
            failure = f"value changes beyond candidate bound at {u}"
            return levels, m_bar, "box-truncated", failure
    return levels, m_bar, "window-certified", None


def greedy_frontier(values, n):
    """Maximal words of {f >= n}, by a greedy sweep from the top, sorted."""
    members = sorted(
        (u for u, fu in values.items() if fu >= n),
        key=lambda u: (sum(u), _lex_key(u)),
        reverse=True,
    )
    frontier = []
    for u in members:
        if not any(_leq(u, v) for v in frontier):
            frontier.append(u)
    return tuple(sorted(frontier))


def reference_tabulate(sys, A, B, box, context_sys=None):
    """(values, violations, corners) of a tabulation, slice by slice.

    Every slice gets a fresh builder seeded with the graded orbit of B
    (in the context system when one is given), then each word's images
    of A through ``apply_word``, each image applied map by map from its
    seed; ``reference_scan`` gives the rest.
    """
    from rankgrowth.operators import apply_word, degrees_below, graded_orbit

    backend, p = sys.backend, sys.partition
    A_sorted = backend.sorted_elems(A)
    B_list = backend.dedupe(B)
    base = context_sys if context_sys is not None else sys
    values = {}
    for s in degrees_below(p.part_degree(tuple(box))):
        builder = backend.basis_builder()
        builder.add_all(graded_orbit(base, B_list, s))
        for r in p.words_of_part_degree(s):
            values[r] = sum(
                1 for a in A_sorted if builder.add(apply_word(sys, a, r))
            )
    return (values, *reference_scan(values))


def reference_scan(values):
    """(violations, corners) of a table, building each ``u - e_i`` as a tuple.

    Words are visited in the table's order; violations are then sorted by
    the lower word's degree and lex key, then the upper word's.
    """
    violations, corners = [], []
    for u, fu in values.items():
        preds = []
        for i, c in enumerate(u):
            if c:
                down = u[:i] + (c - 1,) + u[i + 1 :]
                preds.append(values[down])
                if fu > values[down]:
                    violations.append((down, u))
        hi = min(preds) if preds else fu + 1
        if fu < hi:
            corners.append((u, fu, hi))
    violations.sort(
        key=lambda pair: (sum(pair[0]), _lex_key(pair[0]), _lex_key(pair[1]))
    )
    return violations, corners


def compositions(total, parts):
    """All tuples of ``parts`` naturals summing to ``total``, ascending in
    the lex order, by recursion on the last slot."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in compositions(total - last, parts - 1):
            yield rest + (last,)


def reference_lattice(part_sizes, cap):
    """(words, slices, top, up, down) of the word lattice under ``cap``.

    Each slice joins one ``compositions`` block per part, the last part
    outermost, with slices in product order; every neighbour is then
    looked up by its tuple.
    """
    words, slices = [], []
    for s in product(*(range(c + 1) for c in cap)):
        start = len(words)
        block_words = [()]
        for t, d in zip(s, part_sizes):
            block_words = [w + b for b in compositions(t, d) for w in block_words]
        words.extend(block_words)
        slices.append((s, start, len(words)))
    index = {w: n for n, w in enumerate(words)}

    def minus(w, i):
        return w[:i] + (w[i] - 1,) + w[i + 1 :]

    top = [max((i for i, c in enumerate(w) if c), default=-1) for w in words]
    up = [index[minus(w, i)] if i >= 0 else 0 for w, i in zip(words, top)]
    down = [
        [index[minus(w, i)] if w[i] else -1 for w in words]
        for i in range(sum(part_sizes))
    ]
    return words, slices, top, up, down


def extend_basis(rank, basis, candidates):
    """``basis`` followed by each candidate, in order, that raises ``rank``
    of the elements kept before it: the greedy basis extension."""
    out = list(basis)
    for x in candidates:
        if rank(out + [x]) > rank(out):
            out.append(x)
    return out


def reference_verify(P, sys, A, B, window, context_sys=None):
    """(points, mismatches) of ``P`` on a window, word by word: each
    point's rank over the graded orbit of B (in the context system when
    one is given) from ``graded_orbit``, and each value from
    ``reference_evaluate``."""
    from rankgrowth.operators import graded_orbit

    lo, hi = tuple(window[0]), tuple(window[1])
    base = context_sys if context_sys is not None else sys
    points, mismatches = [], []
    for s in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        builder = sys.backend.basis_builder()
        builder.add_all(graded_orbit(base, B, s))
        direct = builder.add_all(graded_orbit(sys, A, s))
        val = reference_evaluate(P.coeffs, s)
        points.append((s, direct, val))
        if val != direct:
            mismatches.append((s, direct, val))
    return points, mismatches


def reference_binomial_basis_coeffs(r, d):
    """Coefficients of the degree-(d-1) polynomial C(Y - r + d - 1, d - 1),
    as Fractions."""
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


def reference_interpolate(numerator):
    """The nonzero coefficients of the eventual polynomial of a numerator:
    each term a * Y^r times the product of the binomial-basis polynomials
    of its exponents, summed in Fractions."""
    d = numerator.part_sizes
    total = {}
    for r, a in numerator.coeffs.items():
        term = {(): Fraction(a)}
        for i in range(len(d)):
            basis = reference_binomial_basis_coeffs(r[i], d[i])
            nxt = {}
            for e, c in term.items():
                for j, bc in enumerate(basis):
                    if bc:
                        nxt[e + (j,)] = nxt.get(e + (j,), Fraction(0)) + c * bc
            term = nxt
        for e, c in term.items():
            total[e] = total.get(e, Fraction(0)) + c
    return {e: c for e, c in total.items() if c}


def reference_evaluate(coeffs, s):
    """The polynomial with ``coeffs`` at the point ``s``, term by term in
    Fractions."""
    total = Fraction(0)
    for e, c in coeffs.items():
        term = Fraction(c)
        for base, exp in zip(s, e):
            term *= Fraction(base) ** exp
        total += term
    return total


def reference_check_pairs(sys, sample, depth=3, pair_count=40):
    """(orbit, pairs) of ``check_system`` by their plain definitions.

    The orbit is each sorted seed's images under ``apply_word`` at the
    words of m slots and degree below ``depth - 1`` (at least the zero
    word), in ascending lex order, less those whose word raised, without
    repeats.  The pairs are ``pair_count`` draws from ``random.Random(0)``:
    A of one to three orbit points, then B of none to three.
    """
    import random

    from rankgrowth.errors import OperatorError
    from rankgrowth.operators import Partition, apply_word

    one_part = Partition((sys.m,))
    images = []
    for a in sys.backend.sorted_elems(sample):
        for t in range(max(1, depth - 1)):
            for r in one_part.words_of_part_degree((t,)):
                try:
                    images.append(apply_word(sys, a, r))
                except OperatorError:
                    continue
    orbit = sys.backend.dedupe(images)
    rng = random.Random(0)
    pairs = []
    for _ in range(pair_count if orbit else 0):
        A = rng.sample(orbit, k=min(len(orbit), rng.randint(1, 3)))
        B = rng.sample(orbit, k=min(len(orbit), rng.randint(0, 3)))
        pairs.append((A, B))
    return orbit, pairs


def reference_part_failures(backend, maps, pairs, label):
    """The sampled triangular rank inequality of one part, map by map.

    For each pair and each map, the rank of the map's images of A over the
    earlier maps' images of A+B and the map's images of B, recomputed from
    scratch by ``relative_rank``, must not exceed the rank of A over B.  A
    pair's test stops at its first failing map, and skips a map whose
    images raise.
    """
    failures = []
    for A, B in pairs:
        rhs = backend.relative_rank(A, B)
        for j, phi in enumerate(maps):
            try:
                base = [psi(x) for psi in maps[:j] for x in A + B]
                base += [phi(x) for x in B]
                lhs = backend.relative_rank([phi(x) for x in A], base)
            except Exception:  # noqa: BLE001 - an unmappable point is skipped
                continue
            if lhs > rhs:
                failures.append(
                    f"{label}: map {j + 1} gives rank {lhs} > {rhs} "
                    f"on A={A!r}, B={B!r}"
                )
                break
    return failures


def reference_check_failures(sys, sample, depth=3, pair_count=40):
    """(triangular failures, quasi-triangular failures, parts triangular,
    parts quasi-triangular) of ``check_system``: each part tested by
    ``reference_part_failures`` on ``reference_check_pairs``' pairs, then
    again with the identity map prepended."""
    _, pairs = reference_check_pairs(sys, sample, depth, pair_count)
    tri, quasi, tri_ok, quasi_ok = [], [], (), ()
    for i in range(sys.k):
        maps = tuple(sys.part_maps(i))
        fails = reference_part_failures(sys.backend, maps, pairs, f"part {i + 1}")
        fails_q = reference_part_failures(
            sys.backend, (lambda x: x,) + maps, pairs, f"part {i + 1} (augmented)"
        )
        tri, quasi = tri + fails, quasi + fails_q
        tri_ok, quasi_ok = tri_ok + (not fails,), quasi_ok + (not fails_q,)
    return tri, quasi, tri_ok, quasi_ok


def permutation_dominant_terms(coeffs, k):
    """The terms of ``coeffs`` maximal under some lexicographic order of the
    k coordinates, found by trying all k! orders."""
    winners = set()
    for sigma in permutations(range(k)):
        if coeffs:
            winners.add(max(coeffs, key=lambda e: [e[i] for i in sigma]))
    return {(e, coeffs[e]) for e in winners}


def _support(e: tuple) -> int:
    """Bit 8i set when variable i occurs."""
    return int.from_bytes(bytes(map(bool, e)), "little")


def reference_truncated_basis(gens: List[tuple], graded: List[int]) -> List[tuple]:
    """The toric kernel on exponent tuples, as ``toric._truncated_basis``
    held them before it packed each into one int.

    Buchberger over binomials ``(lead, trail)`` of exponent tuples in
    lex order, keeping only S-pairs whose lcm has degree at most 1 in the
    ``graded`` positions; normal selection, coprime leads skipped.  Each
    basis element is held as ``(support of lead, lead, trail)``.

    Every binomial has degree 0 or 1, so a lead of degree 1 holds one
    graded variable, to the power 1, and an lcm has degree at most 1 iff
    the two leads hold at most one graded variable between them.

    A divisor test (a basis element scanned while reducing) counts as a
    word against the one work budget, ``operators.check_budget``.
    """
    from rankgrowth.operators import check_budget

    graded_mask = _support([i in graded for i in range(len(gens[0][0]))])
    basis: List[tuple] = []
    pairs: List[tuple] = []
    work = 0

    def reduce(p, q):
        """``p - q`` top-reduced and divided by the gcd of its terms, as
        ``(lead, trail)``, or ``None`` when it reduces to zero."""
        nonlocal work
        while p != q:
            if p < q:
                p, q = q, p
            outside = ~_support(p)
            work += len(basis)
            check_budget(
                work, "the toric Gröbner basis for the stabilization bound",
                "its divisor tests count as words",
            )
            for mask, lead, trail in basis:
                if not mask & outside and all(map(operator.le, lead, p)):
                    break
            else:
                # J is prime and holds no monomial, so the quotient is in J
                g = tuple(map(min, p, q))
                return tuple(map(operator.sub, p, g)), tuple(map(operator.sub, q, g))
            p = tuple(map(operator.add, map(operator.sub, p, lead), trail))
        return None

    def insert(b):
        lead = b[0]
        support = _support(lead)
        for i, (mask, other, _) in enumerate(basis):
            both = (mask | support) & graded_mask
            if mask & support and not both & (both - 1):
                heapq.heappush(pairs, (tuple(map(max, lead, other)), i, len(basis)))
        basis.append((support,) + b)

    for b in gens:
        insert(b)
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        _, a1, b1 = basis[i]
        _, a2, b2 = basis[j]
        b = reduce(
            tuple(map(operator.add, map(operator.sub, lcm, a1), b1)),
            tuple(map(operator.add, map(operator.sub, lcm, a2), b2)),
        )
        if b is not None:
            insert(b)
    return [b[1:] for b in basis]
