"""Exact arithmetic in the idempotent semiring of integer vectors with max/plus.

Elements are all-finite integer vectors over an ordered label set (labels are
the indices 0..size-1), plus a single adjoined bottom element representing the
vector that is minus infinity everywhere.  Addition is entrywise max, with
bottom as the identity; multiplication is entrywise integer sum, with bottom
absorbing.  The vectors of nonnegative degree (entry sum) form the subsemiring
of interest; its unit group is exactly the degree-zero vectors, inverted by
entrywise negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Optional


class LabelMismatchError(ValueError):
    """Raised when two vectors over different label sets are combined."""


class NotAUnitError(ValueError):
    """Raised when inverting a vector of nonzero (or bottom) degree."""


def exact_int(value) -> int:
    """An integer entry as an int; bools, floats and non-integral rationals
    are refused rather than truncated, because exactness is the contract."""
    if type(value) is int:
        return value
    if isinstance(value, Rational) and not isinstance(value, bool) \
            and value.denominator == 1:
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def exact_rational(value) -> Fraction:
    """A rational entry as a Fraction; only ints and non-bool rationals
    qualify, since a float's binary expansion would name another number."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"expected an integer or a Fraction, got {value!r}")


def ext_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Max of two integers extended with None as minus infinity; the finite
    ones go through exact_int."""
    return max((exact_int(v) for v in (a, b) if v is not None), default=None)


def ext_add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Sum of two integers extended with None as minus infinity (absorbing);
    the finite ones go through exact_int."""
    finite = [exact_int(v) for v in (a, b) if v is not None]
    return sum(finite) if len(finite) == 2 else None


@dataclass(frozen=True, init=False, repr=False)
class TropVector:
    """An integer vector with max-plus operations, or the bottom element.

    A frozen dataclass, so compared, hashed, copied and pickled by value;
    all operations return new vectors.  ``entries`` is a tuple of ints, or
    None for bottom; ``size`` is the number of labels.
    """

    size: int
    entries: Optional[tuple[int, ...]]

    def __init__(self, entries: Iterable[int] | None, size: int | None = None):
        if size is not None:
            size = exact_int(size)
        if entries is None:
            if size is None:
                raise ValueError("bottom vector needs an explicit size")
            object.__setattr__(self, "entries", None)
            object.__setattr__(self, "size", size)
        else:
            tup = tuple(entries)
            if not all(type(e) is int for e in tup):
                tup = tuple(map(exact_int, tup))
            if size is not None and size != len(tup):
                raise ValueError("size disagrees with number of entries")
            object.__setattr__(self, "entries", tup)
            object.__setattr__(self, "size", len(tup))
        if self.size < 1:
            raise ValueError(f"a vector needs one label or more, got size {self.size}")

    @classmethod
    def bottom(cls, size: int) -> "TropVector":
        return cls(None, size)

    @property
    def is_bottom(self) -> bool:
        return self.entries is None

    def _check_labels(self, other: "TropVector") -> None:
        if self.size != other.size:
            raise LabelMismatchError(
                f"label sets differ: size {self.size} vs {other.size}")

    def __add__(self, other: "TropVector") -> "TropVector":
        """Entrywise max; bottom is the identity."""
        if not isinstance(other, TropVector):
            return NotImplemented
        self._check_labels(other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return TropVector(map(max, self.entries, other.entries))

    def __mul__(self, other: "TropVector") -> "TropVector":
        """Entrywise sum; bottom is absorbing."""
        if not isinstance(other, TropVector):
            return NotImplemented
        self._check_labels(other)
        if self.is_bottom or other.is_bottom:
            return TropVector.bottom(self.size)
        return TropVector(a + b for a, b in zip(self.entries, other.entries))

    @property
    def degree(self) -> Optional[int]:
        """Entry sum, or None (minus infinity) for bottom."""
        if self.is_bottom:
            return None
        return sum(self.entries)

    @property
    def is_pos(self) -> bool:
        """Membership in the nonnegative-degree subsemiring (bottom included)."""
        return self.is_bottom or self.degree >= 0

    @property
    def is_unit(self) -> bool:
        return not self.is_bottom and self.degree == 0

    def inverse(self) -> "TropVector":
        """Entrywise negation; defined exactly on degree-zero vectors."""
        if not self.is_unit:
            raise NotAUnitError(f"not invertible: degree {self.degree}")
        return TropVector(-e for e in self.entries)

    def decompose(self, a1: int, a2: int) -> tuple["TropVector", "TropVector"]:
        """Split into two degree-zero vectors whose max is this vector.

        The first part lowers entry ``a1`` by the degree, the second lowers
        ``a2``; requires two distinct labels in 0..size-1 (no negative
        indices, which would alias a label) and a non-bottom vector.
        """
        if self.is_bottom:
            raise ValueError("cannot decompose the bottom element")
        if self.size < 2:
            raise ValueError("decomposition needs at least two labels")
        a1, a2 = exact_int(a1), exact_int(a2)
        if not (0 <= a1 < self.size and 0 <= a2 < self.size):
            raise ValueError(f"decomposition labels must lie in 0..{self.size - 1}")
        if a1 == a2:
            raise ValueError("decomposition labels must differ")
        d = self.degree
        if d < 0:
            raise ValueError("decomposition into units needs nonnegative degree")
        e1 = list(self.entries)
        e1[a1] -= d
        e2 = list(self.entries)
        e2[a2] -= d
        return TropVector(e1), TropVector(e2)

    def __getitem__(self, a: int) -> int:
        if self.is_bottom:
            raise ValueError("bottom has no finite entries")
        return self.entries[a]

    def __iter__(self) -> Iterator[int]:
        if self.is_bottom:
            raise ValueError("bottom has no finite entries")
        return iter(self.entries)

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"TropVector.bottom({self.size})"
        return f"TropVector({list(self.entries)})"

    def to_json(self):
        """JSON form: list of ints in label order, or the string "-inf"."""
        if self.is_bottom:
            return "-inf"
        return list(self.entries)

    @classmethod
    def from_json(cls, data, size: int | None = None) -> "TropVector":
        if data == "-inf":
            if size is None:
                raise ValueError("bottom needs an explicit size")
            return cls.bottom(size)
        return cls(data, size)


def zero_unit(size: int) -> TropVector:
    """The multiplicative identity: the all-zero vector (size by exact_int)."""
    return TropVector([0] * exact_int(size))
