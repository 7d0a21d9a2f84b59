"""One-dimensional fans: weighted rational rays, balancing, evaluation maps.

A fan is a finite set of rays through the origin with distinct primitive
integer directions and positive integer weights (the origin cone is
implicit).  The weighted evaluation map sends a polynomial function f to the
vector (w * f(d)) indexed by rays; on the generators x1..xn it yields the
generator matrix whose rows are degree-zero vectors exactly when the fan is
balanced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .maxplus import TropVector, exact_int
from .tropoly import TropPoly, fn_eq_on_rays


def primitive(d: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; orientation kept."""
    d = tuple(d)
    if set(map(type, d)) - {int}:
        d = tuple(map(exact_int, d))
    g = gcd(*d)
    if g == 0:
        raise ValueError("the zero vector spans no ray")
    return d if g == 1 else tuple(e // g for e in d)


def json_int(value, what: str) -> int:
    """An integer read from JSON; bools, floats and numeric strings are
    refused rather than truncated, because exactness is the contract."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, init=False, repr=False)
class Ray:
    """A rational ray: primitive integer direction plus a positive weight."""

    direction: tuple[int, ...]
    weight: int

    def __init__(self, direction: Sequence[int], weight: int = 1):
        object.__setattr__(self, "direction", primitive(direction))
        weight = exact_int(weight)
        if weight < 1:
            raise ValueError(f"weight must be a positive integer, got {weight}")
        object.__setattr__(self, "weight", weight)

    def __repr__(self) -> str:
        return f"Ray({list(self.direction)}, weight={self.weight})"


@dataclass(frozen=True, init=False, repr=False)
class Fan1D:
    """An ordered list of rays with pairwise distinct directions.

    The empty ray list is allowed and models the degenerate fan whose
    support is the origin alone.
    """

    ambient_dim: int
    rays: tuple[Ray, ...]

    def __init__(self, ambient_dim: int, rays: Iterable[Ray]):
        ambient_dim = exact_int(ambient_dim)
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        rays = tuple(rays)
        seen = set()
        for ray in rays:
            if len(ray.direction) != ambient_dim:
                raise ValueError(f"ray {ray} does not live in R^{ambient_dim}")
            if ray.direction in seen:
                raise ValueError(f"duplicate ray direction {ray.direction}")
            seen.add(ray.direction)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rays", rays)

    @property
    def directions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.direction for r in self.rays)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def __repr__(self) -> str:
        return f"Fan1D({self.ambient_dim}, {list(self.rays)})"

    def sorted_rays(self) -> "Fan1D":
        """Rays re-sorted lexicographically by direction (canonical order)."""
        return Fan1D(self.ambient_dim, sorted(self.rays, key=lambda r: r.direction))

    def to_json_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim,
                "rays": [{"direction": list(r.direction), "weight": r.weight}
                         for r in self.rays]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Fan1D":
        try:
            dim = json_int(data["ambient_dim"], "ambient_dim")
            rays = [Ray([json_int(e, "direction entry") for e in r["direction"]],
                        json_int(r.get("weight", 1), "weight"))
                    for r in data["rays"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fan data: {exc}") from exc
        return cls(dim, rays)

    @classmethod
    def load(cls, path) -> "Fan1D":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def check_balancing(fan: Fan1D) -> bool:
    """True iff the weighted sum of primitive directions is the zero vector."""
    total = [0] * fan.ambient_dim
    for ray in fan.rays:
        for i, e in enumerate(ray.direction):
            total[i] += ray.weight * e
    return not any(total)


@dataclass(frozen=True, init=False, repr=False)
class GenMatrix:
    """Rows of max-plus vectors over a common label set; columns are the
    per-label evaluation vectors.  For a balanced fan every row has degree
    zero (the rows are units)."""

    rows: tuple[TropVector, ...]

    def __init__(self, rows: Iterable[TropVector]):
        rows = tuple(rows)
        if not rows:
            raise ValueError("a generator matrix needs at least one row")
        size = rows[0].size
        for r in rows:
            if r.is_bottom:
                raise ValueError("generator rows must be finite vectors")
            if r.size != size:
                raise ValueError("generator rows live over different label sets")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "GenMatrix":
        return cls(TropVector(row) for row in matrix)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def n_labels(self) -> int:
        return self.rows[0].size

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.entries for r in self.rows)

    def column(self, b: int) -> tuple[int, ...]:
        """Column b, for a label b in 0..n_labels-1 (no negative index)."""
        b = exact_int(b)
        if not 0 <= b < self.n_labels:
            raise ValueError(f"label {b} outside 0..{self.n_labels - 1}")
        return tuple(r[b] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.matrix()))

    @property
    def all_unit_rows(self) -> bool:
        return all(r.is_unit for r in self.rows)

    def __repr__(self) -> str:
        return f"GenMatrix({[list(r.entries) for r in self.rows]})"


def weighted_eval_map(fan: Fan1D) -> GenMatrix:
    """The generator matrix of the fan: row i is ray -> weight * direction[i].

    These are the images of the coordinate functions under the weighted
    evaluation map; they Laurent-generate its image.
    """
    if fan.n_rays == 0:
        raise ValueError("the degenerate fan has an empty label set")
    rows = []
    for i in range(fan.ambient_dim):
        rows.append(TropVector(r.weight * r.direction[i] for r in fan.rays))
    return GenMatrix(rows)


def apply_phi_to_poly(fan: Fan1D, f: TropPoly) -> TropVector:
    """Weighted evaluation of a polynomial: ray -> weight * f(direction)."""
    if f.dim != fan.ambient_dim:
        raise ValueError(f"polynomial in {f.dim} variables on a fan in R^{fan.ambient_dim}")
    if fan.n_rays == 0:
        raise ValueError("the degenerate fan has an empty label set")
    if f.is_zero:
        return TropVector.bottom(fan.n_rays)
    return TropVector(r.weight * f.eval(r.direction) for r in fan.rays)


def direction_classes(gm: GenMatrix) -> list[tuple[int, tuple[int, ...]]]:
    """(lowest label, primitive direction) per distinct nonzero column
    direction, in order of first appearance."""
    reps = []
    seen = set()
    for a, col in enumerate(gm.columns()):
        if not any(col):
            continue
        p = primitive(col)
        if p not in seen:
            seen.add(p)
            reps.append((a, p))
    return reps


def fan_from_generators(gm: GenMatrix) -> Fan1D:
    """The fan spanned by the matrix columns: one weight-1 ray per distinct
    nonzero primitive column direction; zero columns contribute nothing.

    An all-zero matrix yields the degenerate fan with no rays.
    """
    return Fan1D(gm.n, [Ray(d, 1) for _, d in direction_classes(gm)])


def kernel_eq(fan: Fan1D, f: TropPoly, g: TropPoly) -> bool:
    """Equality of f and g as functions on the fan's support: one exact
    evaluation per ray direction decides."""
    if f.dim != fan.ambient_dim or g.dim != fan.ambient_dim:
        raise ValueError("polynomial dimension disagrees with the fan")
    return fn_eq_on_rays(f, g, fan.directions)
