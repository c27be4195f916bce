"""Brute-force answers the benchmark checks rankgrowth's results against.

Nothing here imports rankgrowth: every value is counted directly from the
inputs the benchmark generated (lattice points, sumsets, distinct word
images, forests, greedy circuit bases, exact row reduction).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Point = Tuple[int, ...]


def compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def words(part_sizes: Sequence[int], s: Sequence[int], cumulative: bool = False):
    """Multi-indices whose per-part coordinate sums equal s (or are <= s)."""
    degrees = (
        itertools.product(*(range(t + 1) for t in s)) if cumulative else [tuple(s)]
    )
    for deg in degrees:
        per_part = [list(compositions(t, d)) for t, d in zip(deg, part_sizes)]
        for combo in itertools.product(*per_part):
            yield tuple(itertools.chain.from_iterable(combo))


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def add(a: Sequence[int], b: Sequence[int]) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def ideal_count(antichain, part_sizes, s, cumulative=False) -> int:
    """Lattice points of the ideal (no antichain point below them) at degree s."""
    return sum(
        1
        for r in words(part_sizes, s, cumulative)
        if not any(leq(c, r) for c in antichain)
    )


def sumset(A, summands, s) -> set:
    """A + s_1 B_1 + ... + s_k B_k for integer-vector sets."""
    cur = {tuple(a) for a in A}
    for B, times in zip(summands, s):
        for _ in range(times):
            cur = {add(x, b) for x in cur for b in B}
    return cur


def word_image_count(exponents, part_sizes, s, cumulative=False, killed=()) -> int:
    """Distinct monomials a + r over seeds a and words r, minus killed ones.

    After the invertible change of variables that turns the linear forms
    into the coordinate variables, the orbit of a product of forms is a set
    of monomials, so its rank is this count.
    """
    images = {add(a, r) for a in exponents for r in words(part_sizes, s, cumulative)}
    return sum(1 for x in images if not any(leq(k, x) for k in killed))


def forest_rank(edges) -> int:
    """Graphic-matroid rank of an edge list (loops have rank zero)."""
    parent: Dict[object, object] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            rank += 1
    return rank


def gadget_endpoints(kind: str, i: int):
    """Endpoints of edge (kind, i) of the oscillating gadget chain.

    Even indices 2j form a triangle on hubs j, j+1 and a lower vertex w_j;
    odd indices 2j+1 form the path hub j - p_j - q_j - hub j+1.
    """
    j, odd = divmod(i, 2)
    if odd:
        return {
            "a": (("u", j), ("p", j)),
            "b": (("p", j), ("q", j)),
            "c": (("q", j), ("u", j + 1)),
        }[kind]
    return {
        "a": (("u", j), ("u", j + 1)),
        "b": (("w", j), ("u", j)),
        "c": (("u", j + 1), ("w", j)),
    }[kind]


def gadget_cumulative_rank(s: int) -> int:
    return forest_rank(gadget_endpoints(k, i) for i in range(s + 1) for k in "abc")


def circuit_rank(elements, circuits) -> int:
    """Rank in a direct sum (over degrees) of explicit circuit matroids.

    ``circuits`` maps a degree to a list of payload sets; an independent
    set contains no circuit, and greedy insertion finds a basis.
    """
    accepted: Dict[Tuple[int, ...], set] = {}
    rank = 0
    for deg, payload in elements:
        bucket = accepted.setdefault(deg, set())
        if payload in bucket:
            continue
        if any(c <= bucket | {payload} for c in circuits.get(deg, ())):
            continue
        bucket.add(payload)
        rank += 1
    return rank


def row_rank(rows: Iterable[Dict[object, int]]) -> int:
    """Rank of sparse integer rows by exact Fraction elimination."""
    pivots: Dict[object, Dict[object, Fraction]] = {}
    rank = 0
    for row in rows:
        v = {k: Fraction(c) for k, c in row.items() if c}
        while v:
            p = min(v)
            if p not in pivots:
                inv = 1 / v[p]
                pivots[p] = {k: c * inv for k, c in v.items()}
                rank += 1
                break
            coef = v[p]
            for k, c in pivots[p].items():
                nc = v.get(k, Fraction(0)) - coef * c
                if nc:
                    v[k] = nc
                else:
                    v.pop(k, None)
    return rank


def _boundary(simplex: Tuple) -> Dict[Tuple, int]:
    return {simplex[:j] + simplex[j + 1 :]: (-1) ** j for j in range(len(simplex))}


def _image(simplex: Tuple, vmaps: Sequence[Dict[str, str]], word: Sequence[int]):
    verts = simplex
    for vmap, times in zip(vmaps, word):
        for _ in range(times):
            verts = tuple(vmap[v] for v in verts)
    image = tuple(sorted(set(verts)))
    return image if len(image) == len(simplex) else None


def orbit_betti(seed_simplices, vmaps, part_sizes, s, n, cumulative=False) -> int:
    """Betti number b_n of the graded (or cumulative) orbit of a subcomplex.

    As the pipeline defines it: the number of distinct non-collapsed
    n-simplices in the orbit, minus the rank of their boundaries, minus the
    rank of the boundaries of the (n+1)-simplices in the orbit.
    """

    def orbit(dim):
        seeds = [x for x in seed_simplices if len(x) == dim + 1]
        out = set()
        for r in words(part_sizes, s, cumulative):
            for x in seeds:
                img = _image(x, vmaps, r)
                if img is not None:
                    out.add(img)
        return sorted(out)

    def boundary_rank(dim):
        return 0 if dim == 0 else row_rank(_boundary(x) for x in orbit(dim))

    return len(orbit(n)) - boundary_rank(n) - boundary_rank(n + 1)


def evaluate(coeffs: Dict[Point, Fraction], s: Sequence[int]) -> Fraction:
    """Value of a polynomial given as {exponents: coefficient} at s."""
    total = Fraction(0)
    for exps, c in coeffs.items():
        total += Fraction(c) * math.prod(x**e for x, e in zip(s, exps))
    return total


def check_points(threshold: Sequence[int]) -> List[Point]:
    """Three distinct points coordinatewise above the threshold."""
    return [
        tuple(t + 1 + j + i * j for i, t in enumerate(threshold)) for j in range(3)
    ]


def leading_difference(values: Sequence[int]) -> int:
    """Top finite difference of consecutive polynomial values."""
    vals = list(values)
    while len(vals) > 1:
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return vals[0]
