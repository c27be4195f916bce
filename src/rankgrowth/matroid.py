"""Finitary-matroid rank oracles.

A backend exposes a single primitive, ``basis_builder``: a fresh
incremental builder whose ``add`` says whether an element raises the rank
of everything fed before it.  Everything else (rank and relative rank) is
derived here, so backends stay minimal.  An element is its own identity:
two elements are the same point of the ground set iff they are equal, and
the seeds of an analysis hash and order, so that every enumeration in the
engine is deterministic.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Iterable, List

from .errors import InputError


class BasisBuilder(ABC):
    """Incremental basis maintenance for one growing set.

    ``add`` feeds one element and reports whether the rank strictly
    increased.  The number of accepted elements equals the rank of
    everything fed so far, relative to whatever was fed before.
    """

    @abstractmethod
    def add(self, elem) -> bool:
        ...

    def add_all(self, elems) -> int:
        gained = 0
        for x in elems:
            if self.add(x):
                gained += 1
        return gained


class RankOracle(ABC):
    """A deterministic rank function satisfying the matroid axioms.

    A backend implements ``basis_builder``, and optionally ``validate``;
    ``rank`` is the number of elements its builder accepts.  Elements are
    compared by ``==`` and ``hash``, and seeds sorted by ``<``.
    Required axioms, exact over the integers:
      rank({}) = 0
      rank(S + x) - rank(S) in {0, 1}
      S subset of T  implies  rank(S) <= rank(T)
      rank(S | T) + rank(S & T) <= rank(S) + rank(T)
    """

    @abstractmethod
    def basis_builder(self) -> BasisBuilder:
        """Fresh incremental builder for an empty set."""

    def validate(self, elem) -> None:
        """Raise InputError if the element is not interpretable. Default: accept."""

    def validated(self, elems: Iterable) -> List:
        """``elems`` as a list, each checked by ``validate``: the one element
        check, run before any element is hashed, sorted or fed to a builder."""
        elems = list(elems)
        for x in elems:
            self.validate(x)
        return elems

    def rank(self, elems: Iterable) -> int:
        """Rank of a finite set; every element is validated first."""
        return self.basis_builder().add_all(self.validated(elems))

    def dedupe(self, elems) -> List:
        """Distinct elements of ``elems`` in first-seen order, unvalidated:
        it dedupes orbit images, which the maps made."""
        return list(dict.fromkeys(elems))

    def sorted_elems(self, elems) -> List:
        """Distinct elements in sorted order, each validated first.  An
        element that does not hash, or does not order with another, is an
        ``InputError`` naming it."""
        return _sort_or_refuse(self.validated(elems), "element", dedupe=self.dedupe)

    def relative_rank(self, A: Iterable, B: Iterable) -> int:
        """rank(A over B) = rank(A | B) - rank(B); every element is
        validated first, as in ``rank``."""
        A, B = self.validated(A), self.validated(B)
        builder = self.basis_builder()
        builder.add_all(B)
        return builder.add_all(A)


def _sort_or_refuse(
    items: List, what: str, name: Callable | None = None, dedupe: Callable | None = None
) -> List:
    """``items`` sorted, in place unless ``dedupe`` drops repeats first: the
    one sort that refuses.  When they do not sort, the ``InputError`` names,
    as a ``what``, the ``name`` (the item itself by default) of one item that
    does not hash, or the names of two that do not order."""
    try:
        out = items if dedupe is None else dedupe(items)
        out.sort()
        return out
    except TypeError:
        names = items if name is None else list(map(name, items))
        for x in names:
            try:
                hash(x)
            except TypeError:
                raise InputError(f"{what} {x!r} is not hashable") from None
        for a, b in itertools.combinations(names, 2):
            try:
                sorted((a, b))
                sorted((b, a))
            except TypeError:
                raise InputError(f"{what}s {a!r} and {b!r} do not order") from None
        raise


def check_rank_axioms(oracle: RankOracle, sets: Iterable, rng) -> List[str]:
    """Sampled matroid axiom check over a pool of finite element sets.

    For random pairs drawn from ``sets`` verifies unit increase,
    monotonicity and submodularity exactly; returns a list of violation
    descriptions (empty when all sampled checks pass).
    """
    pool = [oracle.dedupe(s) for s in sets]
    failures = []
    if oracle.rank([]) != 0:
        failures.append("rank of the empty set is nonzero")
    for _ in range(len(pool)):
        S = pool[rng.randrange(len(pool))]
        T = pool[rng.randrange(len(pool))]
        rS, rT = oracle.rank(S), oracle.rank(T)
        if not 0 <= rS <= len(S):
            failures.append(f"rank out of range on {S!r}")
            continue
        if T:
            x = T[rng.randrange(len(T))]
            gain = oracle.rank(S + [x]) - rS
            if gain not in (0, 1):
                failures.append(f"unit-increase failed adding {x!r} to {S!r}")
        union = oracle.dedupe(S + T)
        inter = [e for e in S if e in T]
        rU, rI = oracle.rank(union), oracle.rank(inter)
        if rU < max(rS, rT):
            failures.append(f"monotonicity failed on {S!r} vs union with {T!r}")
        if rU + rI > rS + rT:
            failures.append(f"submodularity failed on {S!r}, {T!r}")
    return failures
