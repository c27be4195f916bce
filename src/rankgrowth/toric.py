"""Shadowed words of a translation system, in closed form or from a truncated
toric Gröbner basis.

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

Closed form.  Stack each map's translation vector over its part's
indicator, the column ``(b_c, e_i)`` (``i`` the part of ``c``), and call
``B`` the matrix of the ``b_c`` and ``P`` that of the indicators.  A pair
``(u', i)`` gives the point and slice of ``(u, j)`` iff ``d = u' - u``
solves ``B d = a_j - a_i`` and ``P d = 0``.  When the columns are
linearly independent that system has at most one solution, so a word
differs from each earlier word of its slice in point.  Seed ``i`` can
then shadow ``(u, j)`` only from the word ``u + d_ij``, where ``d_ij`` is
that solution and must be integral.  It is a word iff
``u >= max(-d_ij, 0)``, and, lex order being translation invariant, it
is fed before ``(u, j)`` iff ``d_ij`` precedes 0 in ``lex_key`` order, or
``d_ij = 0`` and ``i < j``.  So ``S_j`` is the union, over the seeds
``i`` whose ``d_ij`` is integral and meets that order condition, of the
up-sets generated by ``max(-d_ij, 0)``.  One integer Gauss-Jordan
elimination of ``[B; P]``, kept with its row operations, gives every
``d_ij``.  Every ideal-count, monomial-module and ring system and its
augmentation has independent columns, as does a 1-D sumset with parts
``[1]``, ``[2]``, ``[1, 1]``, ``[1, 2]`` or ``[2, 1]``.  Dependent columns
take the basis below: three translations of a line in one part, or most
augmented sumsets, where the zero vector joins each part.

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
``J``, which is prime and holds no monomial.  The basis spends the one
work budget: each divisor test counts as a word against
``operators.check_budget``, whose ``InputError`` the engine turns into a
fallback to the default box.

Packing.  Inside the basis each exponent vector is one int: one field of
``w`` bits per variable, each under a guard bit held at zero, variable 0
in the highest field.  Comparing the ints is then comparing the tuples
in lex order, so the S-pairs pop in the same order.  With ``G`` the
guard bits, ``((x | G) - y) & G`` holds the guard bit of each field
where ``x >= y``: no field borrows from the next.  That one test gives
the divisor test, the fieldwise max and min of an lcm and a gcd, and,
with ``y`` the lowest bit of each field, the nonzero fields of a lead.
Taking out a divisor or a gcd keeps every field below ``2^w``; only
adding a trail can carry, and only into the field's own guard bit, as
two fields below ``2^w`` sum below ``2^(w+1)``.  So no field ever wraps:
a carry is read as the field's top bit, the width doubles, and the
basis, the pending pairs and the sum are re-packed, which keeps their
order.  The first width is that of the largest input exponent; Buchberger
degrees can grow past it, so there is no fixed cap.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import List, Sequence, Tuple

from .operators import check_budget

MultiIndex = Tuple[int, ...]


def _pack(e: Sequence[int], stride: int) -> int:
    """``e`` as one int, ``stride`` bits a field, its first entry highest."""
    x = 0
    for v in e:
        x = x << stride | v
    return x


def _unpack(x: int, n: int, stride: int) -> tuple:
    """The ``n`` fields of ``x``, each read whole, its guard bit included."""
    field = (1 << stride) - 1
    return tuple(x >> stride * i & field for i in reversed(range(n)))


def _truncated_basis(gens: List[tuple], graded: List[int]) -> List[tuple]:
    """Buchberger over binomials ``(lead, trail)`` of exponent tuples in
    lex order, keeping only S-pairs whose lcm has degree at most 1 in the
    ``graded`` positions; normal selection, coprime leads skipped.  Each
    basis element is held as ``(nonzero fields of lead, lead, trail)``,
    packed as in the module docstring; the basis's leads are returned, as
    exponent tuples in basis order, since only they give words.

    Every binomial has degree 0 or 1, so a lead of degree 1 holds one
    graded variable, to the power 1, and an lcm has degree at most 1 iff
    the two leads hold at most one graded variable between them.

    A divisor test (a basis element scanned while reducing) counts as a
    word against the one work budget, ``operators.check_budget``.
    """
    n = len(gens[0][0])
    basis: List[tuple] = []
    pairs: List[tuple] = []
    work = width = stride = low = guard = graded_guard = 0

    def layout(w):
        nonlocal width, stride, low, guard, graded_guard
        width, stride = w, w + 1
        low = _pack([1] * n, stride)
        guard = low << w
        graded_guard = _pack([i in graded for i in range(n)], stride) << w

    def nonzero(x):
        """The guard bit of each nonzero field of ``x``."""
        return ((x | guard) - low) & guard

    def at_least(x, y):
        """All the bits of each field where ``x`` is at least ``y``."""
        ge = ((x | guard) - y) & guard
        return ge - (ge >> width)

    def widen(*xs):
        """Double the width, re-packing the basis, the pending pairs (in
        the same order, so still a heap) and ``xs``, which may hold a field
        overflowed into its guard bit."""
        old = stride
        layout(2 * width)

        def repack(x):
            return _pack(_unpack(x, n, old), stride)

        for k, (_, lead, trail) in enumerate(basis):
            lead = repack(lead)
            basis[k] = (nonzero(lead), lead, repack(trail))
        pairs[:] = [(repack(lcm), i, j) for lcm, i, j in pairs]
        return map(repack, xs)

    def reduce(p, q):
        """``p - q`` top-reduced and divided by the gcd of its terms, as
        ``(lead, trail)``, or ``None`` when it reduces to zero.  ``p`` and
        ``q`` may hold a field carried into its guard bit, which compares
        as the field's top bit."""
        nonlocal work
        while p != q:
            if (p | q) & guard:
                p, q = widen(p, q)
            if p < q:
                p, q = q, p
            work += len(basis)
            check_budget(
                work, "the toric Gröbner basis for the stabilization bound",
                "its divisor tests count as words",
            )
            top = p | guard
            for _, lead, trail in basis:
                if (top - lead) & guard == guard:
                    break
            else:
                # J is prime and holds no monomial, so the quotient is in J
                g = p ^ ((p ^ q) & at_least(p, q))
                return p - g, q - g
            p = p - lead + trail
        return None

    def insert(lead, trail):
        support = nonzero(lead)
        for i, (mask, other, _) in enumerate(basis):
            both = (mask | support) & graded_guard
            if mask & support and not both & (both - 1):
                lcm = other ^ ((lead ^ other) & at_least(lead, other))
                heapq.heappush(pairs, (lcm, i, len(basis)))
        basis.append((support, lead, trail))

    layout(max(x for b in gens for e in b for x in e).bit_length() or 1)
    for lead, trail in gens:
        insert(_pack(lead, stride), _pack(trail, stride))
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        _, a1, b1 = basis[i]
        _, a2, b2 = basis[j]
        b = reduce(lcm - a1 + b1, lcm - a2 + b2)
        if b is not None:
            insert(*b)
    return [_unpack(lead, n, stride) for _, lead, _ in basis]


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
    repeated from an earlier seed gets the zero word.  Independent
    columns take the closed form; dependent ones the truncated basis,
    which raises the work budget's ``InputError`` (``check_budget``) when
    its divisor tests are over it.
    """
    vectors = [v for vecs in parts for v in vecs]
    m, dim = len(vectors), len(vectors[0])
    # the rows of [B; P], each followed by its row of the row operations
    # done so far, restricted to B's rows: P's right-hand side is 0
    unit = [[int(s == t) for s in range(dim)] for t in range(dim)]
    part = [i for i, vecs in enumerate(parts) for _ in vecs]
    rows = [[v[t] for v in vectors] + unit[t] for t in range(dim)]
    rows += [[int(p == i) for p in part] + [0] * dim for i in range(len(parts))]
    for c in range(m):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return _basis_generators(parts, seeds)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c]
        for r, row in enumerate(rows):
            x = row[c]
            if r != c and x:
                row = [p[c] * y - x * z for y, z in zip(row, p)]
                g = math.gcd(*row)
                rows[r] = [y // g for y in row]
    # row operations applied to each seed: the solution of B d = a_j - a_i
    # and P d = 0 is read off the difference of the images of a_j and a_i
    images = [[sum(map(operator.mul, row[m:], a)) for row in rows] for a in seeds]
    pivots = [rows[c][c] for c in range(m)]
    own = []
    for j, wj in enumerate(images):
        words = []
        for i, wi in enumerate(images):
            diff = list(map(operator.sub, wj, wi))
            if i == j or any(diff[m:]) or any(map(operator.mod, diff, pivots)):
                continue
            d = list(map(operator.floordiv, diff, pivots))
            last = next((x for x in reversed(d) if x), 0)
            if last < 0 or (last == 0 and i < j):
                words.append(tuple(max(-x, 0) for x in d))
        own.append(_minimal(words))
    return own


def _basis_generators(
    parts: Sequence[Sequence[Tuple[int, ...]]], seeds: Sequence[Tuple[int, ...]]
) -> List[List[MultiIndex]]:
    """``shadow_generators`` from the truncated toric basis, for any columns."""
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
    leads = _truncated_basis(gens, [k] + list(range(elim + m, n)))
    common: List[MultiIndex] = []
    own: List[List[MultiIndex]] = [[] for _ in seeds]
    for lead in leads:
        if any(lead[:elim]):
            continue
        word = tuple(reversed(lead[elim : elim + m]))
        ys = lead[elim + m :]
        if any(ys):
            own[r - 1 - ys.index(1)].append(word)
        else:
            common.append(word)
    return [_minimal(common + words) for words in own]
