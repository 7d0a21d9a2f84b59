"""Exact integer-lattice algorithms: Hermite normal form, membership, solving.

All matrices are lists/tuples of equal-length int rows.  The Hermite form used
throughout is the row style: row echelon, positive pivots, and every entry
above a pivot reduced into [0, pivot).  That form is the unique canonical
basis of the row lattice, so lattices compare by structural equality.

A Lattice answers membership with linear forms computed once per lattice:
an integer basis W of the span's orthogonal complement, the product P of
the basis pivots, and Q, P times the inverse of the pivot submatrix.  A
vector v is a member exactly when W v = 0 and P divides every entry of
v Q; its coefficients are v Q / P, and its least multiplier into the
lattice is P / gcd(P, v Q).  HomEnumeration.expand reads the same forms to
keep only the kernel points whose matrices are members, and solve_int
reads them on the lattice of its own rows, whose HNF it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .maxplus import exact_int

IntRow = tuple[int, ...]
IntMatrix = tuple[IntRow, ...]


class LatticeSolveError(ValueError):
    """A target row is not in the integer row span; carries the row index."""

    def __init__(self, row_index: int, message: str | None = None):
        self.row_index = row_index
        super().__init__(message or f"target row {row_index} is not in the lattice")

    def __reduce__(self):  # ValueError's passes the message as the row index
        return type(self), (self.row_index, self.args[0]), self.__dict__


class LatticeSpanError(ValueError):
    """A row is outside even the rational span of the lattice."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _as_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    out = [[exact_int(e) for e in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("rows have unequal lengths")
    return out


def hnf(rows: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transform: returns (H, U), H = U * rows.

    U is unimodular (|det| = 1).  H is in canonical row HNF: echelon with
    positive pivots, entries above each pivot reduced into [0, pivot), zero
    rows at the bottom.
    """
    H = _as_matrix(rows)
    m = len(H)
    k = len(H[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for col in range(k):
        if r == m:
            break
        # Fold the column below row r down to its gcd in row r.
        for i in range(r + 1, m):
            if H[i][col] == 0:
                continue
            a, b = H[r][col], H[i][col]
            g, x, y = xgcd(a, b)
            ag, mbg = a // g, -(b // g)
            for M in (H, U):
                Mr, Mi = M[r], M[i]
                for j in range(len(Mr)):
                    s, t = Mr[j], Mi[j]
                    Mr[j] = x * s + y * t
                    Mi[j] = mbg * s + ag * t
        if H[r][col] == 0:
            continue
        if H[r][col] < 0:
            H[r] = [-e for e in H[r]]
            U[r] = [-e for e in U[r]]
        p = H[r][col]
        for i in range(r):
            q = H[i][col] // p
            if q:
                H[i] = [e - q * f for e, f in zip(H[i], H[r])]
                U[i] = [e - q * f for e, f in zip(U[i], U[r])]
        r += 1
    Ht = tuple(tuple(row) for row in H)
    Ut = tuple(tuple(row) for row in U)
    return Ht, Ut


def _pivots(H: IntMatrix) -> list[tuple[int, int]]:
    """(row, col) of each nonzero row's leading entry."""
    out = []
    for i, row in enumerate(H):
        for j, e in enumerate(row):
            if e:
                out.append((i, j))
                break
    return out


def _is_hnf(H: Sequence[Sequence[int]]) -> bool:
    """Whether H already is its canonical row HNF: echelon with positive
    pivots, entries above each pivot in [0, pivot), zero rows last."""
    last = -1
    for i, (r, j) in enumerate(_pivots(H)):
        p = H[r][j]
        if r != i or j <= last or p < 0 or any(not 0 <= H[k][j] < p for k in range(r)):
            return False
        last = j
    return True


def _reduce_against(H: IntMatrix, v: Sequence[int]) -> list[int]:
    """Forward-substitute the integer vector v against echelon H, when every
    pivot divides the entry it meets: one coefficient per row of H (zero
    for zero rows)."""
    coeffs = [0] * len(H)
    for i, j in _pivots(H):
        q = coeffs[i] = v[j] // H[i][j]
        if q:
            v = [e - q * f for e, f in zip(v, H[i])]
    return coeffs


@dataclass(frozen=True, repr=False)
class Lattice:
    """A subgroup of Z^m stored by its canonical row-HNF basis.

    The constructor brings any generating rows of the right length to that
    basis, so equal lattices compare equal however they were given; rows
    already in that form are taken as they are, without an HNF run.
    Membership reads the linear forms of the forms property, computed once
    per lattice and cached outside the fields, so they take no part in ==,
    hash or dataclasses.replace.
    """

    ambient: int
    basis: IntMatrix

    def __post_init__(self):
        ambient = exact_int(self.ambient)
        if ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows = _as_matrix(self.basis)
        if any(len(row) != ambient for row in rows):
            raise ValueError("generator length disagrees with ambient dimension")
        H = rows if _is_hnf(rows) else hnf(rows)[0]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in H if any(row)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ambient: int | None = None) -> "Lattice":
        rows = tuple(map(tuple, rows))
        if ambient is None:
            if not rows:
                raise ValueError("ambient dimension needed for an empty generator list")
            ambient = len(rows[0])
        return cls(ambient, rows)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def forms(self) -> tuple[IntMatrix, int, IntMatrix]:
        """(W, P, Qt): v is in the lattice exactly when W v = 0 and P
        divides every entry of Qt v, and then Qt v / P are its coefficients.

        The rows of W are an integer basis of the span's orthogonal
        complement: the rows of the unimodular transform that the HNF of the
        transposed basis sends to zero.  P is the product of the pivots, and
        Qt is P times the inverse of the pivot submatrix, transposed, with
        zeros off the pivot columns: column j holds the forward substitution
        of P e_j, which is exact because the inverse's denominators divide P.
        """
        H, m = self.basis, self.ambient
        _, U = hnf([[row[j] for row in H] for j in range(m)])
        P = prod(H[i][j] for i, j in _pivots(H))
        Qt = zip(*(_reduce_against(H, [P * (i == j) for i in range(m)]) for j in range(m)))
        return U[self.rank:], P, tuple(Qt)

    def _vector(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.ambient:
            raise ValueError("vector length disagrees with ambient dimension")
        return [exact_int(e) for e in v]

    def member(self, v: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Coefficients c with c . basis = v, or None if v is not in the lattice."""
        v = self._vector(v)
        W, P, Qt = self.forms
        if any(sum(map(mul, w, v)) for w in W):
            return None
        coeffs = [sum(map(mul, q, v)) for q in Qt]
        if any(c % P for c in coeffs):
            return None
        return tuple(c // P for c in coeffs)

    def __contains__(self, v) -> bool:
        return self.member(v) is not None

    def least_multiplier(self, v: Sequence[int]) -> int:
        """Least positive s with s*v in the lattice: P / gcd(P, Qt v).

        Raises LatticeSpanError when v is outside the rational span (no such
        s exists).  The set of all valid s is exactly (result)*Z.
        """
        v = self._vector(v)
        W, P, Qt = self.forms
        if any(sum(map(mul, w, v)) for w in W):
            raise LatticeSpanError("vector is outside the rational span of the lattice")
        return P // gcd(P, *(sum(map(mul, q, v)) for q in Qt))

    def __repr__(self) -> str:
        return f"Lattice(ambient={self.ambient}, basis={[list(r) for r in self.basis]})"


def solve_int(rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]) -> IntMatrix:
    """Solve T * rows = targets over the integers, canonically.

    Returns the T whose free coefficients (relative to the HNF of ``rows``)
    are zero; this makes the solution deterministic and linear in the
    targets.  The coefficients over the HNF basis come from Lattice.member.
    Raises LatticeSolveError naming the first failing target row.
    """
    M = _as_matrix(rows)
    if not M:
        raise ValueError("need at least one generator row")
    H, U = hnf(M)
    L = Lattice(len(M[0]), H)  # H is its own HNF, so no second run
    T = []
    for idx, v in enumerate(targets):
        if len(v) != L.ambient:
            raise ValueError(f"target row {idx} has wrong length")
        c = L.member(v)
        if c is None:
            raise LatticeSolveError(idx)
        # c . basis = v, and the basis is the leading rows of H = U * rows
        T.append(tuple(sum(map(mul, c, u)) for u in zip(*U)))
    return tuple(T)


def scalar_modulus(base_rows: Sequence[Sequence[int]], lattice: Lattice) -> int:
    """Least positive e with every row of e*base in the lattice.

    The set of all working scalars is a subgroup of Z, so it equals e*Z.
    Raises LatticeSpanError when some row is outside the rational span.
    """
    e = 1
    for row in base_rows:
        s = lattice.least_multiplier(row)
        e = lcm(e, s)
    return e
