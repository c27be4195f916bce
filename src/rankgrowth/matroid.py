"""Finitary-matroid rank oracles.

A backend exposes a single primitive, ``basis_builder``: a fresh
incremental builder whose ``add`` says whether an element raises the rank
of everything fed before it.  Everything else (rank and relative rank) is
derived here, so backends stay minimal.  Elements are identified by a
canonical key: two elements are the same point of the ground set iff
their keys are equal, and keys are orderable so that every enumeration in
the engine is deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List


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

    A backend implements ``basis_builder``, and optionally ``key`` and
    ``validate``; ``rank`` is the number of elements its builder accepts.
    Required axioms, exact over the integers:
      rank({}) = 0
      rank(S + x) - rank(S) in {0, 1}
      S subset of T  implies  rank(S) <= rank(T)
      rank(S | T) + rank(S & T) <= rank(S) + rank(T)
    """

    @abstractmethod
    def basis_builder(self) -> BasisBuilder:
        """Fresh incremental builder for an empty set."""

    def key(self, elem):
        """Canonical, orderable identity of an element. Default: the element."""
        return elem

    def validate(self, elem) -> None:
        """Raise InputError if the element is not interpretable. Default: accept."""

    def validated(self, elems: Iterable) -> List:
        """``elems`` as a list, each checked by ``validate``: the one element
        check, run before any element is keyed, sorted or fed to a builder."""
        elems = list(elems)
        for x in elems:
            self.validate(x)
        return elems

    def rank(self, elems: Iterable) -> int:
        """Rank of a finite set; every element is validated first."""
        return self.basis_builder().add_all(self.validated(elems))

    def dedupe(self, elems) -> List:
        """Distinct elements of ``elems`` in first-seen order (by canonical key),
        unvalidated: it dedupes orbit images, which the maps made."""
        seen = set()
        out = []
        for x in elems:
            k = self.key(x)
            if k not in seen:
                seen.add(k)
                out.append(x)
        return out

    def sorted_elems(self, elems) -> List:
        """Distinct elements sorted by canonical key, each validated first."""
        return sorted(self.dedupe(self.validated(elems)), key=self.key)

    def relative_rank(self, A: Iterable, B: Iterable) -> int:
        """rank(A over B) = rank(A | B) - rank(B); every element is
        validated first, as in ``rank``."""
        A, B = self.validated(A), self.validated(B)
        builder = self.basis_builder()
        builder.add_all(B)
        return builder.add_all(A)


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
        keys_S = {oracle.key(e) for e in S}
        union = S + [e for e in T if oracle.key(e) not in keys_S]
        keys_T = {oracle.key(e) for e in T}
        inter = [e for e in S if oracle.key(e) in keys_T]
        rU, rI = oracle.rank(union), oracle.rank(inter)
        if rU < max(rS, rT):
            failures.append(f"monotonicity failed on {S!r} vs union with {T!r}")
        if rU + rI > rS + rT:
            failures.append(f"submodularity failed on {S!r}, {T!r}")
    return failures
