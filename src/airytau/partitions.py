"""Integer partitions with the Frobenius-coordinate view.

A partition indexes all Plucker/Schur data in this package.  The Frobenius
coordinates of mu are the arm/leg pairs read along the Durfee diagonal:
m_i = mu_i - i and n_i = mu^t_i - i (0-based lengths), two strictly
decreasing nonnegative sequences of equal length.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InvalidKeyError


class Partition:
    """Immutable weakly decreasing tuple of positive integers."""

    __slots__ = ("parts", "_frobenius")

    def __init__(self, parts=()):
        ps = tuple(int(p) for p in parts if int(p) != 0)
        if any(p < 0 for p in ps):
            raise InvalidKeyError(f"negative part in {parts!r}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise InvalidKeyError(f"parts not weakly decreasing: {parts!r}")
        self.parts = ps
        self._frobenius = None

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> Partition:
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p > i)
                for i in range(self.parts[0])]
        return Partition(cols)

    def frobenius(self) -> list[tuple[int, int]]:
        """Arm/leg pairs (m_i, n_i) down the Durfee diagonal; a new list."""
        if self._frobenius is None:
            conj = self.conjugate().parts
            self._frobenius = tuple(
                (p - i - 1, conj[i] - i - 1)
                for i, p in enumerate(self.parts) if p > i)
        return list(self._frobenius)

    @classmethod
    def from_frobenius(cls, pairs) -> Partition:
        arms = [m for m, _ in pairs]
        legs = [n for _, n in pairs]
        if arms != sorted(arms, reverse=True) or len(set(arms)) != len(arms):
            raise InvalidKeyError(f"arms not strictly decreasing: {arms}")
        if legs != sorted(legs, reverse=True) or len(set(legs)) != len(legs):
            raise InvalidKeyError(f"legs not strictly decreasing: {legs}")
        if any(m < 0 for m in arms) or any(n < 0 for n in legs):
            raise InvalidKeyError("Frobenius coordinates must be nonnegative")
        d = len(pairs)
        # below the Durfee square, row r reaches column i exactly when
        # column i, of legs[i] + i + 1 cells, reaches row r
        below = [sum(n + i >= r for i, n in enumerate(legs))
                 for r in range(d, max(legs, default=-1) + 1)]
        return cls([m + i + 1 for i, m in enumerate(arms)] + below)

    @classmethod
    def hook(cls, arm: int, leg: int) -> Partition:
        """The hook partition with Frobenius coordinates (arm | leg)."""
        return cls((arm + 1,) + (1,) * leg)

    def is_hook(self) -> bool:
        return len(self.frobenius()) <= 1

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def frobenius_str(self) -> str:
        pairs = self.frobenius()
        arms = ",".join(str(m) for m, _ in pairs)
        legs = ",".join(str(n) for _, n in pairs)
        return f"({arms}|{legs})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __lt__(self, other: Partition) -> bool:
        return (self.weight, self.parts) < (other.weight, other.parts)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, parts in weakly decreasing order."""
    if n < 0:
        return

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def partitions_up_to(weight: int) -> Iterator[Partition]:
    """All partitions of weight 0..weight (the empty partition first)."""
    for n in range(weight + 1):
        yield from partitions_of(n)
