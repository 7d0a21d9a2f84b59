"""Shared fixtures-in-plain-code for the test suite: the two reference fans,
their generator matrices, small random-object generators, and the
environment and command prefix of every CLI subprocess."""

import json
import os
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import tropfan
from tropfan import Fan1D, GenMatrix, Lattice, Ray, TropPoly
from tropfan.homsearch import ConeRecord

SRC = Path(__file__).resolve().parent.parent / "src"

# A subprocess imports the tropfan this process imported: src/ goes first on
# PYTHONPATH only when that tropfan is this checkout's (pytest's pythonpath
# setting or the caller's PYTHONPATH put it there), and the CLI runs as
# python -m tropfan.cli.  An installed package is left to be found as this
# process found it, and the CLI is its console script, which must be on PATH.
ENV = dict(os.environ)
if SRC in Path(tropfan.__file__).resolve().parents:
    ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    CLI = [sys.executable, "-m", "tropfan.cli"]
else:
    script = shutil.which("tropfan")
    if script is None:
        raise RuntimeError(f"tropfan is imported from {tropfan.__file__}, outside src/, "
                           "so the CLI tests run its console script, but no tropfan "
                           "script is on PATH")
    CLI = [script]

# A balanced 5-ray fan in R^3 (the last ray carries weight 4) and a balanced
# 3-ray fan in R^2; their evaluation matrices drive most worked examples.
FAN_X = Fan1D(3, [Ray([1, 0, 1]), Ray([-1, 0, 1]), Ray([0, 1, 1]),
                  Ray([0, -1, 1]), Ray([0, 0, -1], 4)])
FAN_Y = Fan1D(2, [Ray([1, 1], 1), Ray([-1, 1], 2), Ray([1, -3], 1)])

MF_ROWS = ((1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (1, 1, 1, 1, -4))
MG_ROWS = ((1, -2, 1), (1, 2, -3))

B1 = ((1, -1, 0), (0, 0, 0), (1, 1, -2))
B2 = ((0, 0, 0), (1, -1, 0), (1, 1, -2))


def spy(monkeypatch, name, *owners):
    """Wrap owner.<name> on each owner, for the work gates that count or
    forbid calls into a layer.  Each wrapper calls its owner's original, so
    owners that share one function count each call once, and the returned
    list records every call's positional arguments in call order."""
    calls = []

    def recording(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for owner in owners:
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    return calls


def genmatrix_x() -> GenMatrix:
    return GenMatrix.from_matrix(MF_ROWS)


def genmatrix_y() -> GenMatrix:
    return GenMatrix.from_matrix(MG_ROWS)


def lattice_y() -> Lattice:
    return Lattice.from_rows(MG_ROWS)


def permute_columns(matrix, perm):
    return tuple(tuple(row[j] for j in perm) for row in matrix)


def column_permutations(matrix):
    import itertools
    k = len(matrix[0])
    return {permute_columns(matrix, p) for p in itertools.permutations(range(k))}


def scale_matrix(matrix, s):
    return tuple(tuple(s * e for e in row) for row in matrix)


def random_int_vector(rng, n, lo=-4, hi=4):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def random_degree_zero_row(rng, n, bound=3):
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        last = -sum(head)
        if abs(last) <= bound:
            return tuple(head + [last])


def random_poly(rng, dim, max_monos=5, bound=3) -> TropPoly:
    k = rng.randint(1, max_monos)
    return TropPoly(dim, [random_int_vector(rng, dim, -bound, bound) for _ in range(k)])


def random_rational(rng, den_bound=10) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, den_bound))


def random_rational_point(rng, n, den_bound=10):
    return tuple(random_rational(rng, den_bound) for _ in range(n))


def random_primitive_direction(rng, n, bound=4):
    from tropfan import primitive
    while True:
        v = random_int_vector(rng, n, -bound, bound)
        if any(v):
            return primitive(v)


def matrix_from_ray(sigma, ray, class_dirs, n):
    """The matrix whose slot b is zero when sigma[b] is None, and otherwise
    the next entry of ray times the direction of class sigma[b].  The
    builder that expand used before it laid members with _place; kept for
    the reference code."""
    scales = iter(ray)  # one per assigned slot, in slot order
    zero = (0,) * n
    return tuple(zip(*[zero if a is None else tuple(map(next(scales).__mul__, class_dirs[a]))
                       for a in sigma]))


_REF_VAR = re.compile(r"x([1-9][0-9]*)")
_REF_INT = re.compile(r"[+-]?[0-9]+")


def reference_parse_poly(text: str, dim: int) -> TropPoly:
    """parse_poly by the recursive-descent scanner that the pattern loop
    replaced: closures over a shared position skip whitespace (str.isspace)
    and read a monomial, then its factors.  Kept as the parser oracle."""
    from tropfan import PolySyntaxError

    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek() -> str:
        return text[pos] if pos < n else ""

    def parse_factor(expo: list[int]):
        nonlocal pos
        m = _REF_VAR.match(text, pos)
        if not m:
            raise PolySyntaxError("expected a variable factor", pos)
        i = int(m.group(1))
        if not 1 <= i <= dim:
            raise ValueError(f"variable x{i} outside 1..{dim} (at position {pos})")
        pos = m.end()
        skip_ws()
        e = 1
        if peek() == "^":
            pos += 1
            skip_ws()
            m = _REF_INT.match(text, pos)
            if not m:
                raise PolySyntaxError("expected an integer exponent after '^'", pos)
            e = int(m.group(0))
            pos = m.end()
        expo[i - 1] += e

    def parse_monomial():
        nonlocal pos
        skip_ws()
        if peek() == "0":
            pos += 1
            return (0,) * dim
        expo = [0] * dim
        parse_factor(expo)
        while True:
            skip_ws()
            if peek() == "*":
                pos += 1
                skip_ws()
                parse_factor(expo)
            else:
                return tuple(expo)

    monomials = [parse_monomial()]
    while True:
        skip_ws()
        if pos >= n:
            break
        if peek() != "+":
            raise PolySyntaxError("expected '+' between monomials", pos)
        pos += 1
        monomials.append(parse_monomial())
    return TropPoly(dim, monomials)


def _reference_reduce(H, v):
    """Forward-substitute the integer vector v against the echelon rows H:
    (coefficients, residue), one coefficient per row and 0 for a zero row,
    or (None, v so far) when a pivot fails to divide the entry it meets."""
    vv = list(v)
    coeffs = []
    for row in H:
        j = next((j for j, e in enumerate(row) if e), None)
        if j is None:
            coeffs.append(0)
            continue
        if vv[j] % row[j]:
            return None, vv
        q = vv[j] // row[j]
        vv = [e - q * f for e, f in zip(vv, row)]
        coeffs.append(q)
    return coeffs, vv


def reference_solve_int(rows, targets):
    """solve_int by forward substitution of each target against the HNF of
    the rows, its coefficients carried back by the HNF transform.  The
    solve that reading Lattice.member replaced; kept as the solve oracle."""
    from tropfan import LatticeSolveError, hnf
    from tropfan.maxplus import exact_int

    M = [[exact_int(e) for e in row] for row in rows]
    if not M:
        raise ValueError("need at least one generator row")
    H, U = hnf(M)
    T = []
    for idx, v in enumerate(targets):
        if len(v) != len(M[0]):
            raise ValueError(f"target row {idx} has wrong length")
        y, residue = _reference_reduce(H, [exact_int(e) for e in v])
        if y is None or any(residue):
            raise LatticeSolveError(idx)
        # c . rows = (y . U) . rows = y . H = v
        c = [sum(y[i] * U[i][j] for i in range(len(M))) for j in range(len(M))]
        T.append(tuple(c))
    return tuple(T)


def _reference_vector(lattice, v):
    from tropfan.maxplus import exact_int

    if len(v) != lattice.ambient:
        raise ValueError("vector length disagrees with ambient dimension")
    return [exact_int(e) for e in v]


def reference_member(lattice, v):
    """Lattice.member by forward substitution against the HNF basis: the
    coefficients c with c . basis = v, or None.  The reduction that the
    lattice's linear forms replaced; kept as the membership oracle."""
    coeffs, residue = _reference_reduce(lattice.basis, _reference_vector(lattice, v))
    if coeffs is None or any(residue):
        return None
    return tuple(coeffs)


def reference_least_multiplier(lattice, v):
    """Lattice.least_multiplier by reduction: the rational coefficients of
    v have denominators dividing the product P of the pivots, so P * v
    reduces exactly to P times them, and the least multiplier is
    P / gcd(P, those).  LatticeSpanError when a residue is left."""
    from math import gcd, prod
    from tropfan import LatticeSpanError

    P = prod(next(e for e in row if e) for row in lattice.basis)
    coeffs, residue = _reference_reduce(lattice.basis,
                                        [P * e for e in _reference_vector(lattice, v)])
    if any(residue):
        raise LatticeSpanError("vector is outside the rational span of the lattice")
    return P // gcd(P, *coeffs)


def box_hom_oracle(source: GenMatrix, target_size: int, lattice, bound: int):
    """Independent enumeration of every integer matrix with entries in
    [-bound, bound] whose rows sum to zero, whose columns are nonnegative
    multiples of source columns, and whose rows lie in the lattice.

    Works straight from the definition: the integer nonnegative multiples of
    a column are exactly the nonnegative integer multiples of its primitive
    direction, so candidate columns are enumerated per direction and the
    remaining two conditions are checked on every combination.
    """
    import itertools
    from tropfan import primitive

    candidates = {(0,) * source.n}
    for a in range(source.n_labels):
        col = source.column(a)
        if not any(col):
            continue
        p = primitive(col)
        k = 1
        while k * max(abs(e) for e in p) <= bound:
            candidates.add(tuple(k * e for e in p))
            k += 1
    out = set()
    for cols in itertools.product(sorted(candidates), repeat=target_size):
        M = tuple(tuple(c[i] for c in cols) for i in range(source.n))
        if any(sum(row) for row in M):
            continue
        if lattice is not None and not all(reference_member(lattice, row) is not None
                                               for row in M):
            continue
        out.add(M)
    return out


def definitional_hom_oracle(source: GenMatrix, target_size: int, bound: int,
                            lattice=None):
    """(homomorphisms, refused) over every degree-zero integer image matrix
    with entries in [-bound, bound], decided from the definition of a
    homomorphism instead of the paper's theorem that all are geometric.
    With a target lattice, only image rows that are lattice members (by
    reference_member) are tried: the homomorphisms into the subsemiring it
    cuts out.

    Every matrix is tried, with no geometric filter.  hom_from_images
    accepts exactly the matrices whose columns all lie on the source ray
    union, and those respect every relation, since the polynomials are
    positively homogeneous.  A matrix it refuses carries the first label
    whose column is off the ray union, and there the error's witness pair
    (the reference pair, built by reference_separating_pair) has f and g
    with substitute_units(f, source rows) == substitute_units(g, source
    rows) that differ at the column (checked by reference_eval too), so no
    homomorphism has those images; the refused matrices are counted.
    """
    import itertools
    from tropfan import (NotGeometricError, PointInSupportError, TropVector,
                         hom_from_images, substitute_units)

    dirs = [col for col in source.columns() if any(col)]
    rows = [r for r in itertools.product(range(-bound, bound + 1), repeat=target_size)
            if not sum(r) and (lattice is None or reference_member(lattice, r) is not None)]
    homs, refused = set(), 0
    for M in itertools.product(rows, repeat=source.n):
        images = [TropVector(r) for r in M]
        try:
            hom_from_images(images, source)
        except NotGeometricError as err:
            b, w = err.label, err.witness
        else:
            homs.add(M)
            continue
        cols = list(zip(*M))
        for col in cols[:b]:
            try:
                reference_separating_pair(dirs, col)
            except PointInSupportError:
                continue
            raise AssertionError(f"{M} refused at label {b}, after an off-union column")
        assert w == reference_separating_pair(dirs, cols[b])
        assert substitute_units(w.f, source.rows) == substitute_units(w.g, source.rows)
        assert substitute_units(w.f, images)[b] != substitute_units(w.g, images)[b]
        assert reference_eval(w.f, cols[b]) != reference_eval(w.g, cols[b])
        refused += 1
    return homs, refused


def definitional_morphism_oracle(source: Fan1D, target: Fan1D, bound: int):
    """Every integer matrix T, target.ambient_dim x source.ambient_dim with
    entries in [-bound, bound], that is a fan morphism source -> target by
    the definition: for each ray direction d of the source, T d is zero or
    a positive multiple of a ray direction of the target.  It uses neither
    the paper's theorem nor the reduction to homomorphisms of evaluation
    semirings, and weights play no part.

    T is tried row by row, and row i fixes coordinate i of every T d.  The
    images allowed for d are zero and k e, for k >= 1 and e a target ray
    direction, with no entry above bound * |d|_1, which every T in the box
    respects.  A choice of rows whose coordinates so far begin no allowed
    image of some d is abandoned, since no choice of the later rows can
    repair it; so every T in the box is decided.
    """
    import itertools
    from math import gcd

    p = target.ambient_dim
    dirs = source.directions
    starts = []  # per source direction: the beginnings of its allowed images
    for d in dirs:
        cap = bound * sum(map(abs, d))
        allowed = {(0,) * p} | {tuple(k * e for e in t) for t in target.directions
                                for k in range(1, cap // max(map(abs, t)) + 1)}
        assert all(not any(v) or tuple(e // gcd(*v) for e in v) in target.directions
                   for v in allowed)
        starts.append({v[:i] for v in allowed for i in range(p + 1)})
    rows = {r: tuple(sum(a * b for a, b in zip(r, d)) for d in dirs)
            for r in itertools.product(range(-bound, bound + 1), repeat=source.ambient_dim)}
    found = set()

    def grow(chosen, images):  # images[j]: the coordinates of T dirs[j] so far
        if len(chosen) == p:
            found.add(tuple(chosen))
            return
        for r, values in rows.items():
            longer = [v + (e,) for v, e in zip(images, values)]
            if all(v in s for v, s in zip(longer, starts)):
                grow(chosen + [r], longer)

    grow([], [()] * len(dirs))
    return found


def _reference_rref(rows, width):
    """The reduced row echelon form of rows over Fractions: its nonzero rows
    and their pivot columns."""
    R = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for col in range(width):
        i = len(pivots)
        r = next((k for k in range(i, len(R)) if R[k][col]), None)
        if r is None:
            continue
        R[i], R[r] = R[r], R[i]
        R[i] = [e / R[i][col] for e in R[i]]
        for k in range(len(R)):
            if k != i and R[k][col]:
                f = R[k][col]
                R[k] = [a - f * b for a, b in zip(R[k], R[i])]
        pivots.append(col)
    return R[:len(pivots)], pivots


def reference_morphism_assignments(source: Fan1D, target: Fan1D) -> dict:
    """{sigma: dimension} for every assignment sigma with a nonempty
    support that some fan morphism source -> target has.

    sigma[j] is the 0-based target ray that source ray direction a_j maps
    onto, or None.  A real T has assignment sigma when T a_j = t_j b_sigma[j]
    with t_j > 0 on sigma's support and t_j = 0 off it.  Such a T exists
    exactly when sum_j c_j t_j b_sigma[j] = 0 for every c in a basis of the
    linear relations among the a_j: a system N t = 0 on the support.  Its
    solutions with every t_j > 0 form a relatively open cone.  That cone is
    nonempty when t = 1 + s with s >= 0 solves the system, one
    reference_solve_eq_nonneg LP, and then its dimension is |support| -
    rank N.  A one-dimensional sigma is one family {k base_T}, since a
    rational ray holds integral points.  Every (q + 1)^p assignment is
    tried, by the definition and exact elimination alone: not the paper's
    theorem, the evaluation maps or tropfan.cones, and weights play no
    part.  An assignment is passed over before any elimination when a row
    of N is nonzero with no entries of both signs, since then no t > 0
    solves it.
    """
    import itertools
    from math import lcm

    a, b = source.directions, target.directions
    p = len(a)
    R, pivots = _reference_rref(zip(*a), p)
    relations = []  # per free column f: c_f = 1, c_j = -R[i][f] at pivot j = pivots[i]
    for f in sorted(set(range(p)) - set(pivots)):
        c = [Fraction(j == f) for j in range(p)]
        for row, j in zip(R, pivots):
            c[j] = -row[f]
        scale = lcm(*(e.denominator for e in c))
        relations.append([int(e * scale) for e in c])
    found = {}
    for sigma in itertools.product([None, *range(len(b))], repeat=p):
        support = [j for j in range(p) if sigma[j] is not None]
        N = [[c[j] * b[sigma[j]][k] for j in support]
             for c in relations for k in range(target.ambient_dim)]
        if not support or any(any(row) and (min(row) >= 0 or max(row) <= 0) for row in N):
            continue
        rows = _reference_rref(N, len(support))[0]  # N t = 0 exactly when rows t = 0
        dim = len(support) - len(rows)
        if dim and reference_solve_eq_nonneg(rows, [-sum(row) for row in rows]) is not None:
            found[sigma] = dim
    return found


def random_source_with_classes(rng, max_rows=3, max_labels=6):
    """A random generator matrix whose columns are drawn as zero, as a
    positive or negative multiple of an earlier nonzero column, or fresh;
    returns the matrix and the kind of each column."""
    n = rng.randint(1, max_rows)
    cols, kinds = [], []
    for _ in range(rng.randint(1, max_labels)):
        earlier = [c for c in cols if any(c)]
        kind = rng.choice(["zero", "parallel", "antiparallel", "fresh", "fresh"])
        if kind in ("parallel", "antiparallel") and not earlier:
            kind = "fresh"
        if kind == "zero":
            col = (0,) * n
        elif kind == "fresh":
            col = (0,) * n
            while not any(col):
                col = random_int_vector(rng, n, -2, 2)
        else:
            s = rng.randint(1, 3) * (1 if kind == "parallel" else -1)
            col = tuple(s * e for e in rng.choice(earlier))
        cols.append(col)
        kinds.append(kind)
    return GenMatrix.from_matrix([[c[i] for c in cols] for i in range(n)]), kinds


def reference_geometric_check(images, source: GenMatrix):
    """Per-target-label witnesses (source label, scale) for the image columns.

    Column b of the stacked images must equal t * (column a of the source)
    for some label a and rational t >= 0.  Zero columns are reported as
    (None, 0); otherwise the lowest matching label is chosen.  Returns None
    when some column matches nothing.

    The scan over every source column that homsearch.geometric_check
    replaced with one lookup by primitive direction in direction_classes;
    kept as the differential oracle for the witnesses."""
    rows = list(images)
    if len(rows) != source.n:
        raise ValueError(f"expected {source.n} image rows, got {len(rows)}")
    size = rows[0].size
    for img in rows:
        if img.is_bottom:
            raise ValueError("image rows must be finite vectors")
        if img.size != size:
            raise ValueError("image rows live over different label sets")
    src_cols = source.columns()
    witnesses = []
    for b in range(size):
        col = tuple(img[b] for img in rows)
        if not any(col):
            witnesses.append((None, Fraction(0)))
            continue
        found = None
        for a, sc in enumerate(src_cols):
            i = next((i for i, e in enumerate(sc) if e), None)
            if i is None:
                continue
            t = Fraction(col[i], sc[i])
            if t > 0 and all(col[j] == t * sc[j] for j in range(len(col))):
                found = (a, t)
                break
        if found is None:
            return None
        witnesses.append(found)
    return witnesses


def reference_assignment_rays(sigma, source: GenMatrix):
    """Extreme rays of one assignment's scaling cone {t >= 0 : N t = 0},
    one coordinate per assigned position, by double description on the
    assignment's own column matrix (column: the primitive direction of the
    source column the position scales).  The enumerator derives the same
    rays from positive circuits computed once; this is the direct
    computation it is checked against."""
    from tropfan import extreme_rays, primitive

    cols = [primitive(source.column(a)) for a in sigma if a is not None]
    if not cols:
        return []
    return extreme_rays([[c[i] for c in cols] for i in range(source.n)], len(cols))


def reference_circuit_table(reps, n: int, target_size: int):
    """Every placeable positive circuit of the class directions: the
    full-support extreme rays on subsets of at most min(n + 1, target_size)
    classes (a circuit has <= n + 1 columns; placements are injective).

    The class-subset loop, one double description per subset, that
    homsearch._circuit_table replaced with a single run over all classes;
    kept as the differential oracle for the circuit set."""
    import itertools
    from tropfan import extreme_rays

    table = []
    for size in range(1, min(len(reps), n + 1, target_size) + 1):
        for subset in itertools.combinations(reps, size):
            N = [[d[i] for _, d in subset] for i in range(n)]
            labels = tuple(a for a, _ in subset)
            table.extend((labels, ray) for ray in extreme_rays(N, size) if all(ray))
    return table


def reference_extreme_rays(N, n_vars: int, admissible=None):
    """extreme_rays with a support predicate, as the unpruned double
    description with zero sets held as frozensets, followed by a filter
    keeping the rays whose support bitmask (bit j set when t_j > 0) the
    predicate admits.

    The algorithm that cones.extreme_rays replaced with bitmask supports
    and pruning by the predicate during the run; kept as the differential
    oracle for the pruned rays."""
    from tropfan import primitive
    from tropfan.maxplus import exact_int

    n_vars = exact_int(n_vars)
    N = [[exact_int(e) for e in w] for w in N]
    if any(len(w) != n_vars for w in N):
        raise ValueError("constraint length disagrees with variable count")
    rays = [tuple(int(i == j) for j in range(n_vars)) for i in range(n_vars)]
    for w in N:
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
    if admissible is not None:
        rays = [r for r in rays if admissible(sum(1 << j for j, e in enumerate(r) if e))]
    return sorted(rays)


def _spread(labels_at, m: int):
    """The assignment of m slots with the given (slot, label) pairs; the
    other slots are unassigned."""
    at = dict(labels_at)
    return tuple(at.get(b) for b in range(m))


def _arrangements(counts, free):
    """Every way to give each label its count of the free slots, disjointly,
    as label -> slots."""
    import itertools

    if not counts:
        yield {}
        return
    (a, k), rest = counts[0], counts[1:]
    for chosen in itertools.combinations(free, k):
        left = [b for b in free if b not in chosen]
        for slots in _arrangements(rest, left):
            slots[a] = chosen
            yield slots


def reference_cone_records(source: GenMatrix, target_size: int):
    """enumerate_homs's cone records by the walk that the per-shape layout
    tables replaced: for each class multiset admitting two or more circuit
    placements, a recursive arrangement of its classes over the slots, with
    the circuits live in the multiset placed at every choice of their
    classes' slots.  Records do not depend on the target lattice; kept as
    the differential oracle for the records."""
    import itertools
    from collections import Counter
    from math import prod
    from tropfan import homsearch
    from tropfan.fan import direction_classes

    n = source.n
    reps = direction_classes(source)
    class_dirs = dict(reps)
    circuits = homsearch._circuit_table(reps, n, target_size)
    placed = []
    for labels, coeffs in circuits:
        placed.append({})
        for positions in itertools.permutations(range(target_size), len(labels)):
            sigma = _spread(zip(positions, labels), target_size)
            ray = [t for _, t in sorted(zip(positions, coeffs))]
            placed[-1][positions] = matrix_from_ray(sigma, ray, class_dirs, n)

    records = []
    options = [a for a, _ in reps]
    # without a circuit nothing is placed, so no multiset needs a visit
    multisets = (itertools.combinations_with_replacement([None] + options, target_size)
                 if circuits else ())
    for multiset in multisets:
        count = Counter(multiset)
        live = [(placed[c], labels) for c, (labels, _) in enumerate(circuits)
                if all(count[a] for a in labels)]
        if sum(prod(count[a] for a in labels) for _, labels in live) < 2:
            continue
        for slots in _arrangements([(a, count[a]) for a in options if count[a]],
                                   range(target_size)):
            sigma = _spread(((b, a) for a, bs in slots.items() for b in bs), target_size)
            bases = sorted(mats[choice] for mats, labels in live
                           for choice in itertools.product(*(slots[a] for a in labels)))
            records.append(homsearch.ConeRecord(sigma, tuple(bases)))
    return tuple(sorted(records, key=homsearch.ConeRecord.sort_key))


def reference_json_lines(families: Iterable[dict], records: Iterable[ConeRecord]) -> list[str]:
    """The zero line, one line per family object, then one per cone record,
    each line by its own json.dumps.  The library dumps each distinct
    placement matrix once and joins the cone lines from those texts; this is
    the emitter it is checked against."""
    return [json.dumps({"kind": "zero"}),
            *map(json.dumps, families),
            *(json.dumps({"kind": "cone",
                          "rays": rec.ray_bases,
                          "flag": "inexhaustive"}) for rec in records)]


def reference_enumerate_homs(source: GenMatrix, target_size: int, lattice=None):
    """enumerate_homs by scanning every one of the (classes + 1)^m column
    assignments: each assignment's rays come from reference_assignment_rays;
    a single ray gives a family (bases merged across assignments, columns
    outside the ray's support unassigned), several rays a cone record; its
    circuits come from reference_circuit_table.  The enumerator builds the
    same output from circuit placements alone; this is the direct scan it is
    checked against."""
    import itertools
    from tropfan import HomEnumeration, homsearch
    from tropfan.fan import direction_classes
    from math import lcm
    from tropfan.lattice import LatticeSpanError

    n = source.n
    reps = direction_classes(source)
    class_dirs = dict(reps)
    families, records = {}, []
    for sigma in itertools.product([None] + [a for a, _ in reps], repeat=target_size):
        rays = sorted(reference_assignment_rays(sigma, source))
        if len(rays) > 1:
            bases = sorted(matrix_from_ray(sigma, r, class_dirs, n) for r in rays)
            records.append(homsearch.ConeRecord(sigma, tuple(bases)))
        elif rays:
            M0 = matrix_from_ray(sigma, rays[0], class_dirs, n)
            if M0 in families:
                continue
            modulus = 1
            if lattice is not None:
                try:
                    modulus = lcm(*(reference_least_multiplier(lattice, row) for row in M0))
                except LatticeSpanError:
                    continue
            cols = list(zip(*M0))
            tight = tuple(a if any(cols[b]) else None for b, a in enumerate(sigma))
            families[M0] = homsearch.HomFamily(tight, M0, modulus)
    fams = tuple(sorted(families.values(), key=homsearch.HomFamily.sort_key))
    recs = tuple(sorted(records, key=homsearch.ConeRecord.sort_key))
    return HomEnumeration(n, target_size, source, lattice, fams, recs,
                          tuple(reference_circuit_table(reps, n, target_size)))


def reference_expand_cones(enum, bound):
    """Integer members of an enumeration's cone records within the entry
    bound, by scanning the whole box prod_b [0, bound // max|d_b|] of slot
    scales and keeping the matrices whose rows sum to zero and lie in the
    target lattice.  The enumerator solves the kernel of the slot directions
    instead; this is the direct search it is checked against."""
    import itertools
    from tropfan.fan import direction_classes

    out = set()
    class_dirs = dict(direction_classes(enum.source))
    for rec in enum.cone_records:
        prims = [class_dirs[a] for a in rec.assignment if a is not None]
        limits = [bound // max(abs(e) for e in p) for p in prims]
        for ks in itertools.product(*(range(lim + 1) for lim in limits)):
            M = matrix_from_ray(rec.assignment, ks, class_dirs, enum.n)
            if any(sum(row) for row in M):
                continue
            if enum.target_lattice is not None and not all(
                    reference_member(enum.target_lattice, row) is not None for row in M):
                continue
            out.add(M)
    out.discard(enum.zero_matrix)
    return out


def reference_expand(enum, bound):
    """The members of an enumeration within the entry bound, from its
    families and cone records: the zero matrix, each family's multiples of
    its modulus whose entries stay in [-bound, bound], and
    reference_expand_cones.  The library builds each member once from the
    class multisets instead; this is the record-based expansion it is
    checked against."""
    out = {enum.zero_matrix}
    for fam in enum.families:
        big = max(abs(e) for row in fam.base for e in row)
        s = fam.modulus
        while s * big <= bound:
            out.add(scale_matrix(fam.base, s))
            s += fam.modulus
    return out | reference_expand_cones(enum, bound)


def reference_in_convex_hull(point, vertices) -> bool:
    """Whether point is a convex combination of the vertices: the hull LP,
    lambda >= 0 with sum_v lambda_v (v, 1) = (point, 1), solved by the
    Fraction tableau.  The membership test that exactlp.hull_separator
    replaced; kept as the hull oracle."""
    pts = list(vertices)
    if not pts:
        return False
    A = [[p[i] for p in pts] for i in range(len(point))]
    A.append([1] * len(pts))
    return reference_solve_eq_nonneg(A, [*point, 1]) is not None


def reference_strict_separator(point, others):
    """A rational w with point . w >= 1 + v . w for every v in others, or
    None when point lies in their hull: the strict-separation LP
    (point - v) . (w+ - w-) - s_v = 1, all variables >= 0, solved by the
    Fraction tableau.  The second LP that hull_separator's Farkas
    certificate replaced; kept as the separator oracle."""
    dim, k = len(point), len(others)
    A = []
    for idx, v in enumerate(others):
        diff = [Fraction(a) - Fraction(c) for a, c in zip(point, v)]
        A.append(diff + [-e for e in diff] + [-int(j == idx) for j in range(k)])
    x = reference_solve_eq_nonneg(A, [1] * k)
    if x is None:
        return None
    return [x[i] - x[dim + i] for i in range(dim)]


def reference_separating_point(f: TropPoly, g: TropPoly):
    """separating_point by comparing the two canonical forms: None when the
    vertex sets coincide, else the first canonical exponent of f, then of g,
    that a strict-separation LP splits off from the other polynomial's
    exponents.  The library tests only the exponents the two do not share;
    this is the canonical-form comparison it is checked against."""
    f._check_dim(g)
    cf = f.canonical()
    cg = g.canonical()
    if cf.monomials == cg.monomials:
        return None
    for u_side, other in ((cf, g), (cg, f)):
        verts = other.sorted_monomials()
        for u in u_side.sorted_monomials():
            if u in other.monomials:
                continue
            w = reference_strict_separator(u, verts)
            if w is not None:
                return tuple(w)
    raise AssertionError("distinct hulls must admit a separating vertex")


def reference_eval(p: TropPoly, point):
    """TropPoly.eval by multiplying entry by entry: the max over monomials
    of sum(e * x).  The formula that the common-denominator evaluation
    replaced; kept as its oracle."""
    if p.is_zero:
        return None
    return max(sum(e * x for e, x in zip(u, point)) for u in p.monomials)


def reference_is_vertex(u, mono):
    """_is_vertex by one hull LP for every exponent, extremes included."""
    return not reference_in_convex_hull(u, [v for v in mono if v != u])


def _reference_integerize(p):
    from math import lcm
    from tropfan import primitive
    from tropfan.maxplus import exact_rational

    fr = [exact_rational(e) for e in p]
    if not any(fr):
        raise ValueError("the zero vector has no direction")
    scale = lcm(*(e.denominator for e in fr))
    return primitive([int(e * scale) for e in fr])


def reference_kernel_basis(d):
    """orth_basis of a nonzero integer direction by two generic HNF runs:
    rows 2..n of the unimodular transform that puts the column vector of d
    into Hermite form span the integer kernel, and a second HNF makes that
    basis canonical.  Kept as the kernel oracle."""
    from tropfan.lattice import hnf

    if len(d) == 1:
        return []
    _, U = hnf([(e,) for e in d])
    kernel, _ = hnf(U[1:])
    return [row for row in kernel if any(row)]


def reference_separating_pair(z_dirs, p):
    """separating_pair with Fraction products: the point is integerized by
    multiplying each entry by the scale, once for its direction and once
    more for the orthogonal basis.  Kept as the witness oracle."""
    from tropfan import PointInSupportError, WitnessPair, primitive
    from tropfan.maxplus import exact_rational

    point = tuple(map(exact_rational, p))
    if any(len(d) != len(point) for d in z_dirs):
        raise ValueError(f"every direction must have the point's {len(point)} coordinates")
    dirs = [primitive(d) for d in z_dirs]
    if not any(point):
        raise PointInSupportError("the origin lies in every cone-closed set")
    d1 = _reference_integerize(point)
    if d1 in dirs:
        raise PointInSupportError(f"point direction {d1} lies in the ray union")
    n = len(d1)
    basis = reference_kernel_basis(_reference_integerize(point))
    K = 1
    for d in dirs:
        up = sum(a * b for a, b in zip(d1, d))
        if up > 0:
            denom = max(abs(sum(a * b for a, b in zip(e, d))) for e in basis)
            K = max(K, 1 - (-up // denom))
    monos = [(0,) * n]
    for e in basis:
        monos.append(tuple(K * c for c in e))
        monos.append(tuple(-K * c for c in e))
    return WitnessPair(TropPoly(n, monos), TropPoly(n, monos + [d1]),
                       point, d1, tuple(basis), K)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def reference_checked_eval(p: TropPoly, point):
    """TropPoly.eval's checks, then reference_eval: the length first, then
    every entry through exact_rational, for the zero polynomial too."""
    from tropfan.maxplus import exact_rational

    if len(point) != p.dim:
        raise ValueError(f"point has length {len(point)}, expected {p.dim}")
    point = [exact_rational(x) for x in point]
    if p.is_zero:
        return None
    return reference_eval(p, point)


def reference_verify_witness(w, z_dirs):
    """verify_witness by evaluating f and g one at a time at each point,
    through reference_checked_eval.  The library evaluates the pair once per
    point; this is the per-polynomial check it is compared against, errors
    included."""
    if any(reference_checked_eval(w.f, d) != reference_checked_eval(w.g, d) for d in z_dirs):
        return False
    return reference_checked_eval(w.f, w.point) != reference_checked_eval(w.g, w.point)


def reference_differing_direction(f: TropPoly, g: TropPoly, directions):
    """differing_direction by evaluating f and g one at a time at each
    direction, through reference_checked_eval, with the library's checks in
    the library's order."""
    from tropfan.maxplus import exact_int

    f._check_dim(g)
    if f.is_zero or g.is_zero:
        raise ValueError("function equality is defined for nonzero polynomials")
    for d in directions:
        d = tuple(map(exact_int, d))
        if not any(d):
            raise ValueError("invalid ray: zero direction vector")
        if reference_checked_eval(f, d) != reference_checked_eval(g, d):
            return d
    return None


def reference_fn_eq_on_space(f: TropPoly, g: TropPoly) -> bool:
    """fn_eq_on_space by one hull LP for every exponent of each polynomial
    against all of the other's, shared exponents and extremes included."""
    return all(reference_in_convex_hull(u, q.sorted_monomials())
               for p, q in ((f, g), (g, f)) for u in p.sorted_monomials())


def reference_solve_eq_nonneg(A, b):
    """Return x >= 0 with A x = b, or None when the system is infeasible.

    The Bland's-rule phase-I simplex on a Fraction tableau that
    exactlp.solve_eq_nonneg replaced with its integer tableau; kept as the
    differential oracle for the pivots and the returned x."""
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])
    rows = []
    rhs = []
    for i in range(m):
        r = [Fraction(e) for e in A[i]]
        v = Fraction(b[i])
        if v < 0:
            r = [-e for e in r]
            v = -v
        rows.append(r)
        rhs.append(v)

    # Tableau columns: n real variables, m artificials, then the rhs.
    width = n + m
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]

    # Phase-I objective: minimize the artificial sum. Reduced-cost row for
    # the initial artificial basis is the negated column sums over [A | I | b].
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    red = [-sum(T[i][j] for i in range(m)) for j in range(width + 1)]
    for j in range(width):
        red[j] += cost[j]

    while True:
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Unbounded phase-I cannot happen (objective bounded below by 0);
            # guard anyway.
            return None
        piv = T[leave][enter]
        T[leave] = [e / piv for e in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [e - f * g for e, g in zip(T[i], T[leave])]
        if red[enter]:
            f = red[enter]
            red = [e - f * g for e, g in zip(red, T[leave])]
        basis[leave] = enter

    if -red[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][width]
    return x
