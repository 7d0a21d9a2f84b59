"""Extreme rays of cones {t >= 0 : N t = 0} by exact double description.

The cone is pointed (it sits inside the nonnegative orthant), so its extreme
rays are well defined and the classic incremental construction applies:
start from the orthant's rays, intersect with one hyperplane at a time, and
combine adjacent positive/negative ray pairs.  Adjacency uses the
combinatorial zero-set test, which is exact for pointed cones.  All
arithmetic is on Python ints; rays are returned as primitive integer
vectors, sorted lexicographically.
"""

from __future__ import annotations

from typing import Sequence

from .fan import primitive


def extreme_rays(N: Sequence[Sequence[int]], n_vars: int) -> list[tuple[int, ...]]:
    """Extreme rays of {t in R^n_vars : t >= 0, N t = 0}.

    Returns primitive integer representatives, lex-sorted; the empty list
    means the cone is the origin alone.
    """
    rays = [tuple(int(i == j) for j in range(n_vars)) for i in range(n_vars)]
    for w in N:
        if len(w) != n_vars:
            raise ValueError("constraint length disagrees with variable count")
        vals = {r: sum(a * b for a, b in zip(w, r)) for r in rays}
        zero = [r for r in rays if vals[r] == 0]
        pos = [r for r in rays if vals[r] > 0]
        neg = [r for r in rays if vals[r] < 0]
        if not pos or not neg:
            rays = zero
            continue
        zsets = {r: frozenset(j for j, e in enumerate(r) if e == 0) for r in rays}
        new = list(zero)
        seen = set(zero)
        for rp in pos:
            for rn in neg:
                common = zsets[rp] & zsets[rn]
                if any(zsets[r] >= common for r in rays if r != rp and r != rn):
                    continue
                # nonzero: the combination is positive where rp or rn is
                comb = primitive(tuple(vals[rp] * b - vals[rn] * a
                                        for a, b in zip(rp, rn)))
                if comb not in seen:
                    seen.add(comb)
                    new.append(comb)
        rays = new
    return sorted(rays)
