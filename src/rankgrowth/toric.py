"""Shadowed words of a translation system, from a truncated toric Gröbner basis.

A translation system (a sumset, an ideal count, a monomial module)
translates by ``b_c`` along word coordinate ``c`` (one vector per map,
grouped in parts), so seed ``a_j`` under word ``u`` gives
the point ``a_j + sum_c u_c b_c``.  The engine feeds each slice (part
degree) by words in ``lex_key`` order and, per word, the seeds in sorted
order; call ``(u, j)`` *shadowed* when an earlier pair of the same slice
gives the same point.  The marginal ``f(u)`` is the number of seeds ``j``
with ``(u, j)`` not shadowed.

Up-sets.  If ``(u', j')`` shadows ``(u, j)`` then ``(u' + e_c, j')``
shadows ``(u + e_c, j)``: the slice and the point move together and the
lex order is translation invariant.  So the shadowed words of seed ``j``
form an up-set ``S_j``, generated by finitely many minimal words.  The
level set ``{f <= n}`` is the union, over seed sets ``J`` of size
``r - n``, of the intersections of the ``S_j`` with ``j`` in ``J``; a
minimal word of an intersection is a join of one generator of each
member, and a minimal word of a union is minimal in some member.  So
every corner of ``f`` lies under the join of all the generators.

Killed points.  A system may declare points ``r`` whose images count
nothing once they lie above one, as the complement antichain of an
ideal or the relations of a monomial module do
(``OperatorSystem.killed``).  Whether a pair is killed depends on its
point alone, and distinct points that are not killed count one each, so
``f(u)`` counts the seeds ``j`` with ``u`` outside ``S_j ∪ K_j``, where
``K_j`` holds the words whose image of seed ``j`` is killed.  With
every ``b_c`` zero or a unit vector ``e_i`` the image lies above ``r``
iff, for each ``i``, the ``u_c`` over the coordinates translating by
``e_i`` sum to at least ``max(r_i - a_ji, 0)``.  The translations are
nonnegative, so ``K_j`` is an up-set.  Each of its minimal words is
minimal for one ``r``, so it holds at most ``max(r_i - a_ji, 0)`` on
each coordinate translating by ``e_i`` (lowering a larger entry keeps
the sum) and 0 on each zero vector.  The argument above, with
``S_j ∪ K_j`` in place of ``S_j``, then puts every corner under the
join of the generators of all the ``S_j`` and ``K_j``.

Generators.  The map ``x_c -> s_i t^(b_c)`` (``i`` the part of ``c``)
and ``y_j -> z t^(a_j)`` sends ``x^u y_j`` to ``s^(slice) z t^(point)``.
Order monomials lexicographically, the ``x_c`` by ``lex_key`` (last
coordinate most significant), then the ``y_j`` (last seed most
significant): ``x^u y_j`` is then above ``x^u' y_j'`` exactly when
``(u, j)`` is fed later, and the shadowed pairs are the monomials of
y-degree 1 that are not the least of their fibre.  The toric ideal
``I``, the kernel of that map, is spanned by the differences of
monomials sharing a fibre, so its initial ideal holds exactly the
monomials that are not the least of their fibre: ``u`` is in ``S_j``
iff ``x^u y_j`` is in ``in(I)``.  ``I`` is the elimination ideal of
``J = <x_c - s_i t^(b_c), y_j - z t^(a_j)>``; under a block order with
``s, z, t`` first, the basis elements of ``J`` free of them are a basis
of ``I``, and the generators of ``S_j`` are the minimal word parts of
their leading terms ``x^w`` and ``x^w y_j``.  The ``t`` exponents are
made nonnegative by one shift per part and one for the seeds, which
moves every point of a slice alike and so keeps its fibres.

Truncation.  ``J`` is homogeneous when ``y_j`` and ``z`` have degree 1
and every other variable degree 0.  For a nonnegative grading Buchberger's
criterion holds degree by degree (a homogeneous element of degree ``d``
has a representation in degree ``d``, whose S-pairs have lcms dividing
monomials of degree ``d``), so skipping every S-pair whose lcm has degree
above 1 leaves a basis that is complete up to degree 1, which is all the
generators need.  Dividing a binomial by the gcd of its terms keeps it in
``J``, which is prime and holds no monomial.
"""

from __future__ import annotations

import heapq
import operator
from typing import List, Sequence, Tuple

from .errors import BasisBudgetExceeded

MultiIndex = Tuple[int, ...]

BASIS_BUDGET = 300_000
"""Work budget: the most divisor tests (basis elements scanned while
reducing) one truncated basis may take, about 0.1 s of work."""


def _support(e: tuple) -> int:
    """Bit 8i set when variable i occurs."""
    return int.from_bytes(bytes(map(bool, e)), "little")


def _truncated_basis(gens: List[tuple], graded: List[int]) -> List[tuple]:
    """Buchberger over binomials ``(lead, trail)`` of exponent tuples in
    lex order, keeping only S-pairs whose lcm has degree at most 1 in the
    ``graded`` positions; normal selection, coprime leads skipped.  Each
    basis element is held as ``(support of lead, lead, trail)``.

    Every binomial has degree 0 or 1, so a lead of degree 1 holds one
    graded variable, to the power 1, and an lcm has degree at most 1 iff
    the two leads hold at most one graded variable between them.
    """
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
            if work > BASIS_BUDGET:
                raise BasisBudgetExceeded(
                    "the toric Gröbner basis for the stabilization bound took "
                    f"over {BASIS_BUDGET:,} divisor tests"
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


def _minimal(words: List[MultiIndex]) -> List[MultiIndex]:
    words = sorted(set(words))
    return [
        u for u in words
        if not any(w != u and all(map(operator.le, w, u)) for w in words)
    ]


def shadow_generators(
    parts: Sequence[Sequence[Tuple[int, ...]]], seeds: Sequence[Tuple[int, ...]]
) -> List[List[MultiIndex]]:
    """Per seed, in the order given, the sorted minimal words of ``S_j``.

    ``parts`` holds the translation vectors of each part in map order and
    ``seeds`` the seeds' points in the engine's feeding order; a point
    repeated from an earlier seed gets the zero word.  Raises
    ``BasisBudgetExceeded`` when the basis takes over ``BASIS_BUDGET``
    divisor tests.
    """
    k, r = len(parts), len(seeds)
    vectors = [v for vecs in parts for v in vecs]
    m, dim = len(vectors), len(vectors[0])
    # variables in lex significance: s_1..s_k, z, t, then the words'
    # x_c by lex_key (last coordinate first), then y_j, last seed first
    elim = k + 1 + dim
    n = elim + m + r

    def monomial(i, t=()):
        """Exponent 1 at position ``i``, and ``t`` on the t variables."""
        e = [0] * n
        e[i] = 1
        e[k + 1 : k + 1 + len(t)] = t
        return tuple(e)

    def shifted(vecs):
        low = [min(c) for c in zip(*vecs)]
        return [[a - b for a, b in zip(v, low)] for v in vecs]

    gens = []
    for i, vecs in enumerate(parts):
        for v in shifted(vecs):
            gens.append((monomial(i, v), monomial(elim + m - 1 - len(gens))))
    for j, a in enumerate(shifted(seeds)):
        gens.append((monomial(k, a), monomial(n - 1 - j)))
    basis = _truncated_basis(gens, [k] + list(range(elim + m, n)))
    common: List[MultiIndex] = []
    own: List[List[MultiIndex]] = [[] for _ in seeds]
    for lead, _ in basis:
        if any(lead[:elim]):
            continue
        word = tuple(reversed(lead[elim : elim + m]))
        ys = lead[elim + m :]
        if any(ys):
            own[r - 1 - ys.index(1)].append(word)
        else:
            common.append(word)
    return [_minimal(common + words) for words in own]
