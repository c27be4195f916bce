"""Independent brute-force oracles used to pin expected test values.

Deliberately separate from the package internals: plain Fraction row
reduction, a five-line union-find, the set-count ranks of the trivial,
ideal-count and free-chain backends, direct sumset iteration, lattice
point and monomial-quotient counting, and quadratic greedy sweeps for
the staircase, the violations and the level frontiers of a table.
Tests freeze values computed here and compare the package's answers
against them.  The one exception is ``reference_tabulate``, the
per-slice tabulation kernel built from the package's ``apply_word`` and
basis builders, which pins the word-lattice kernel to it.
``FractionEchelonBuilder`` and ``fraction_linear_operator`` are the
linear backend's elimination and linear maps in plain ``Fraction``
arithmetic, which pin its integer kernel.
"""

from fractions import Fraction
from itertools import product


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


def nonzero_chain_count(elems, zero):
    """Free chain rank: distinct chain elements other than ``zero``."""
    return len(set(elems) - {zero})


def sumset_sizes(A, B, t_max):
    """Sizes of A + tB for t = 0..t_max by direct iteration."""
    cur = {tuple(a) if isinstance(a, (tuple, list)) else (a,) for a in A}
    Bv = [tuple(b) if isinstance(b, (tuple, list)) else (b,) for b in B]
    sizes = [len(cur)]
    for _ in range(t_max):
        cur = {tuple(x + y for x, y in zip(s, b)) for s in cur for b in Bv}
        sizes.append(len(cur))
    return sizes


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
    of A through ``apply_word`` with one (seed key, word) cache for the
    run; ``reference_scan`` gives the rest.
    """
    from rankgrowth.operators import apply_word, degrees_below, graded_orbit

    backend, p = sys.backend, sys.partition
    A_sorted = backend.sorted_elems(A)
    B_list = backend.dedupe(B)
    base = context_sys if context_sys is not None else sys
    cache, cache_b = {}, {}
    values = {}
    for s in degrees_below(p.part_degree(tuple(box))):
        builder = backend.basis_builder()
        builder.add_all(graded_orbit(base, B_list, s, cache_b))
        for r in p.words_of_part_degree(s):
            values[r] = sum(
                1 for a in A_sorted if builder.add(apply_word(sys, a, r, cache))
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
