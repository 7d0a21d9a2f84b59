"""Extreme rays and bounded integer points of cones {t >= 0 : N t = 0}.

The cone is pointed (it sits inside the nonnegative orthant), so its extreme
rays are well defined and the classic incremental construction applies:
start from the orthant's rays, intersect with one hyperplane at a time, and
combine adjacent positive/negative ray pairs.  Adjacency uses the
combinatorial test, exact for pointed cones: two rays are adjacent when no
third ray's support lies inside the union of theirs.  Supports are int
bitmasks.  A combination's support is the union of its parents', so a
downward-closed bound on supports prunes every pair whose union breaks it:
a ray that blocks an admitted pair has its support inside that union, so it
is admitted too and never pruned, and the admitted rays come out exactly.
All arithmetic is on Python ints; rays are returned as primitive integer
vectors, sorted lexicographically.

The integer points of such a cone inside a box 0 <= t <= limits are found
from one fraction-free elimination of N: the free coordinates are
enumerated within their limits and the pivot coordinates solved for.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Callable, Iterator, Optional, Sequence

from .fan import primitive
from .maxplus import exact_int


def extreme_rays(N: Sequence[Sequence[int]], n_vars: int,
                 admissible: Optional[Callable[[int], bool]] = None) -> list[tuple[int, ...]]:
    """Extreme rays of {t in R^n_vars : t >= 0, N t = 0}.

    Returns primitive integer representatives, lex-sorted; the empty list
    means the cone is the origin alone.  With admissible, a downward-closed
    predicate on supports held as bitmasks (bit j set when t_j > 0), only
    the rays whose support it admits are returned.
    """
    n_vars = exact_int(n_vars)
    N = [[exact_int(e) for e in w] for w in N]
    if any(len(w) != n_vars for w in N):
        raise ValueError("constraint length disagrees with variable count")
    rays = {tuple(int(i == j) for j in range(n_vars)): 1 << i for i in range(n_vars)
            if admissible is None or admissible(1 << i)}  # ray -> support bitmask
    for w in N:
        vals = {r: sum(a * b for a, b in zip(w, r)) for r in rays}
        new = {r: s for r, s in rays.items() if vals[r] == 0}
        pos = [(r, s) for r, s in rays.items() if vals[r] > 0]
        neg = [(r, s) for r, s in rays.items() if vals[r] < 0]
        for rp, sp in pos:
            for rn, sn in neg:
                union = sp | sn  # the support of every combination of rp and rn
                if admissible is not None and not admissible(union):
                    continue
                # adjacent unless another ray's support lies inside the union
                if any(s | union == union and s != sp and s != sn for s in rays.values()):
                    continue
                comb = primitive(tuple(vals[rp] * b - vals[rn] * a for a, b in zip(rp, rn)))
                new[comb] = union
        rays = new
    return sorted(rays)


def _clear(w: list[int], piv: list[int], j: int) -> list[int]:
    """Row w with column j cleared by the pivot row, divided by its content."""
    r = [piv[j] * a - w[j] * b for a, b in zip(w, piv)]
    g = gcd(*r)
    return [e // g for e in r] if g > 1 else r


def bounded_points(N: Sequence[Sequence[int]],
                   limits: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Integer points of {t : N t = 0, 0 <= t_j <= limits[j]}.

    N is brought once to reduced echelon form by integer row operations.
    Pivots are taken on the columns with the largest limits, so the free
    columns, whose coordinates are enumerated, have the smallest.  Each
    pivot coordinate is then -(sum of c_f t_f) / d_j over the free columns
    f; a point is kept only if every such division is exact and lands in
    [0, limits[j]].
    """
    limits = [exact_int(e) for e in limits]
    p = len(limits)
    pending = [[exact_int(e) for e in w] for w in N]
    if any(len(w) != p for w in pending):
        raise ValueError("constraint length disagrees with variable count")
    pivots: list[tuple[int, list[int]]] = []
    for j in sorted(range(p), key=lambda c: -limits[c]):
        i = next((i for i, w in enumerate(pending) if w[j]), None)
        if i is None:
            continue
        piv = pending.pop(i)
        pending = [_clear(w, piv, j) if w[j] else w for w in pending]
        pivots = [(c, _clear(w, piv, j) if w[j] else w) for c, w in pivots]
        pivots.append((j, piv))
    pivot_cols = {c for c, _ in pivots}
    free = [f for f in range(p) if f not in pivot_cols]
    solve = [(j, w[j], [(f, w[f]) for f in free if w[f]]) for j, w in pivots]
    for ks in itertools.product(*(range(limits[f] + 1) for f in free)):
        t = [0] * p
        for f, k in zip(free, ks):
            t[f] = k
        for j, d, coeffs in solve:
            q, r = divmod(-sum(c * t[f] for f, c in coeffs), d)
            if r or not 0 <= q <= limits[j]:
                break
            t[j] = q
        else:
            yield tuple(t)
