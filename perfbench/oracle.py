"""Correctness checks for every answer, run outside the timed region.

The checks test the mathematics, not the record layout: enumerations are
compared with box oracles written here from the definitions (every integer
matrix in a small box whose rows sum to zero, whose columns are nonnegative
multiples of source columns, and whose rows lie in the target lattice);
polynomial answers are re-evaluated exactly; witnesses are re-verified.
Lattice membership and evaluation maps come from tropfan, as in the test
suite's own box oracle, and family bases also pass tropfan's
``geometric_check``.

``check(tf, query, answer)`` returns None when the answer is right and a
short reason otherwise.  ``self_test`` corrupts a few right answers and
confirms that ``check`` rejects each one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from fractions import Fraction
from math import gcd

from pools import primitive, rank

CLI_ENUM_EXITS = (0, 3)  # documented: success, inexhaustive enumeration
BOX_COMBOS = 20000       # largest candidate product a completeness box may have


def _split(M):
    """(g, P) with M = g * P, g the gcd of M's entries (P = M when g = 0)."""
    g = 0
    for row in M:
        for e in row:
            g = gcd(g, e)
    return g, (tuple(tuple(e // g for e in row) for row in M) if g else M)


def _scale(M, s):
    return tuple(tuple(s * e for e in row) for row in M)


def _top(M) -> int:
    return max((abs(e) for row in M for e in row), default=0)


def _peval(monomials, x):
    return max(sum(Fraction(a) * b for a, b in zip(u, x)) for u in monomials)


# ------------------------------------------------------------ box oracles

def _column_candidates(source_matrix, bound):
    n = len(source_matrix)
    cands = {(0,) * n}
    for col in zip(*source_matrix):
        if any(col):
            p = primitive(col)
            for k in range(1, bound // max(map(abs, p)) + 1):
                cands.add(tuple(k * e for e in p))
    return sorted(cands)


def box_homs(source_matrix, m, lattice, bound):
    """Every homomorphism matrix (n x m) with entries in [-bound, bound]."""
    n = len(source_matrix)
    cands = _column_candidates(source_matrix, bound)
    lo = [min(c[i] for c in cands) for i in range(n)]
    hi = [max(c[i] for c in cands) for i in range(n)]
    out = set()
    chosen = []

    def extend(sums):
        left = m - len(chosen)
        if not left:
            if not any(sums):
                M = tuple(tuple(c[i] for c in chosen) for i in range(n))
                if lattice is None or all(row in lattice for row in M):
                    out.add(M)
            return
        for c in cands:
            s = [a + b for a, b in zip(sums, c)]
            if all(s[i] + (left - 1) * lo[i] <= 0 <= s[i] + (left - 1) * hi[i]
                   for i in range(n)):
                chosen.append(c)
                extend(s)
                chosen.pop()

    extend([0] * n)
    return out


def check_bound(source_matrix, m) -> int:
    """The largest box bound (2 or 1) whose candidate product stays small."""
    if len(_column_candidates(source_matrix, 2)) ** m <= BOX_COMBOS:
        return 2
    return 1


class RightSolver:
    """Solves T * G = M for integer T, G of full row rank: T = M G^T (G G^T)^-1,
    with the inverse kept as an integer matrix over one denominator."""

    def __init__(self, G):
        q = len(G)
        gram = [[Fraction(sum(a * b for a, b in zip(G[i], G[j]))) for j in range(q)]
                for i in range(q)]
        inv = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)]
        for c in range(q):
            p = next(r for r in range(c, q) if gram[r][c])
            gram[c], gram[p] = gram[p], gram[c]
            inv[c], inv[p] = inv[p], inv[c]
            f = gram[c][c]
            gram[c] = [e / f for e in gram[c]]
            inv[c] = [e / f for e in inv[c]]
            for r in range(q):
                if r != c and gram[r][c]:
                    f = gram[r][c]
                    gram[r] = [a - f * b for a, b in zip(gram[r], gram[c])]
                    inv[r] = [a - f * b for a, b in zip(inv[r], inv[c])]
        den = 1
        for row in inv:
            for e in row:
                den = den * e.denominator // gcd(den, e.denominator)
        self.den = den
        # G^T * (den * inv): one column per coordinate of T's rows
        self.mat = [[int(sum(G[k][b] * inv[k][j] * den for k in range(q))) for j in range(q)]
                    for b in range(len(G[0]))]

    def __call__(self, M):
        """The integer T, or None when the solution is not integral."""
        T = []
        for row in M:
            out = []
            for col in zip(*self.mat):
                num = sum(a * b for a, b in zip(row, col))
                if num % self.den:
                    return None
                out.append(num // self.den)
            T.append(tuple(out))
        return tuple(T)


def _maps_into(T, src_fan, dst_dirs) -> bool:
    """T sends every ray of src_fan to the origin or onto a ray of dst."""
    for d in src_fan.directions:
        img = [sum(a * b for a, b in zip(row, d)) for row in T]
        if any(img) and primitive(img) not in dst_dirs:
            return False
    return True


def box_morphisms(src_fan, dst_fan, bound):
    """Every integer T (dst dim x src dim) with entries in [-bound, bound]
    that sends each source ray to the origin or onto a destination ray.

    T is fixed by the images of src-dim independent source rays; each image
    is 0 or a positive multiple of a destination direction."""
    q = src_fan.ambient_dim
    basis = []
    for d in src_fan.directions:
        if rank(basis + [d]) > len(basis):
            basis.append(d)
        if len(basis) == q:
            break
    dst_dirs = set(dst_fan.directions)
    options = []
    for d in basis:
        reach = bound * sum(map(abs, d))
        imgs = [(0,) * dst_fan.ambient_dim]
        for e in dst_dirs:
            for k in range(1, reach // max(map(abs, e)) + 1):
                imgs.append(tuple(k * x for x in e))
        options.append(imgs)
    solve = RightSolver(tuple(zip(*basis)))  # T * D = Y, D has the basis rays as columns
    out = set()
    for images in itertools.product(*options):
        T = solve(tuple(zip(*images)))
        if T is None or _top(T) > bound:
            continue
        if _maps_into(T, src_fan, dst_dirs):
            out.add(T)
    return out


# ------------------------------------------------------------ enumerations

def _family_fault(tf, base, modulus, source, lattice):
    if not any(any(r) for r in base):
        return "zero family base"
    if any(sum(r) for r in base):
        return "family base rows do not sum to zero"
    prims = {primitive(c) for c in source.columns() if any(c)}
    if any(any(c) and primitive(c) not in prims for c in zip(*base)):
        return "family base column is not a positive multiple of a source column"
    images = [tf.TropVector(r) for r in base]
    if tf.homsearch.geometric_check(images, source) is None:
        return "geometric_check rejects a family base"
    if lattice is None:
        return None if modulus == 1 else "full target needs modulus 1"
    if not all(row in lattice for row in _scale(base, modulus)):
        return "modulus * base leaves the target lattice"
    for p in range(2, modulus + 1):
        if modulus % p == 0 and all(p % d for d in range(2, p)):
            if all(row in lattice for row in _scale(base, modulus // p)):
                return "modulus is not minimal"
    return None


def _cone_keys(cones, prims):
    """(fault, keys): the first unsound cone ray, and every set of
    (position, primitive column direction) pairs that fits inside some
    recorded cone's support.  A cone's rays span all of {t >= 0 on its
    support : rows sum to zero}, so a homomorphism lies in the cone exactly
    when its own pairs are one of these sets."""
    keys = set()
    for rays in cones:
        support = {}
        for M in rays:
            if any(sum(r) for r in M):
                return "cone ray rows do not sum to zero", keys
            for b, col in enumerate(zip(*M)):
                if any(col):
                    support[b] = primitive(col)
                    if support[b] not in prims:
                        return "cone ray column is not a positive multiple of a source column", keys
        items = sorted(support.items())
        for r in range(len(items) + 1):
            keys.update(frozenset(c) for c in itertools.combinations(items, r))
    return None, keys


def _covered(M, families, cone_keys) -> bool:
    """M is zero, a member of a family {s * base : modulus | s}, or lies in
    a recorded cone."""
    g, prim = _split(M)
    if not g:
        return True
    mod = families.get(prim)
    if mod is not None and g % mod == 0:
        return True
    return frozenset((b, primitive(c)) for b, c in enumerate(zip(*M)) if any(c)) in cone_keys


def _families_fault(tf, families, source, lattice):
    for base, modulus in families.items():
        fault = _family_fault(tf, base, modulus, source, lattice)
        if fault:
            return fault
    return None


def _enum_fault(tf, families, cones, source, m, lattice, bound):
    """Soundness of every family and cone, and coverage of the box."""
    fault = _families_fault(tf, families, source, lattice)
    if fault:
        return fault
    fault, keys = _cone_keys(cones, {primitive(c) for c in source.columns() if any(c)})
    if fault:
        return fault
    box = box_homs(source.matrix(), m, lattice, bound)
    for base, modulus in families.items():
        s = modulus
        while s * _top(base) <= bound:
            if _scale(base, s) not in box:
                return "family member in the box is not a homomorphism"
            s += modulus
    if not all(_covered(M, families, keys) for M in box):
        return f"a homomorphism in the [-{bound}, {bound}] box is missing"
    return None


def _parse_enum_lines(text, base_key):
    """(families {base: modulus}, cones [rays]) from CLI JSON lines."""
    families, cones = {}, []
    for line in text.splitlines():
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind == "family":
            base = tuple(tuple(r) for r in rec[base_key])
            families[base] = rec.get("modulus", 1)
        elif kind == "cone":
            cones.append([tuple(tuple(r) for r in M) for M in rec["rays"]])
        elif kind != "zero":
            raise ValueError(f"unknown record kind {kind!r}")
    return families, cones


def check_homs(tf, q, enum):
    families = {f.base: f.modulus for f in enum.families}
    cones = [rec.ray_bases for rec in enum.cone_records]
    source, m = q.data["source"], q.data["m"]
    return _enum_fault(tf, families, cones, source, m, q.data["lattice"],
                       check_bound(source.matrix(), m))


def check_homs_cli(tf, q, answer):
    code, text = answer
    if code not in CLI_ENUM_EXITS:
        return f"exit code {code}"
    families, cones = _parse_enum_lines(text, "base")
    source, m = q.data["source"], q.data["m"]
    return _enum_fault(tf, families, cones, source, m, q.data["lattice"],
                       check_bound(source.matrix(), m))


def _morph_fault(tf, q, families, cones):
    src, dst = q.data["src"], q.data["dst"]
    dst_dirs = set(dst.directions)
    for T in families:
        if not any(any(r) for r in T) or not _maps_into(T, src, dst_dirs):
            return "family matrix is not a fan morphism"
    steps = {prim: g for g, prim in map(_split, families)}
    fault, keys = _cone_keys(cones, dst_dirs)
    if fault:
        return fault
    G = tf.weighted_eval_map(src).matrix()
    for T in box_morphisms(src, dst, 1):
        g, prim = _split(T)
        if not g:
            continue
        step = steps.get(prim)
        if step is not None and g % step == 0:
            continue
        M = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*G)) for row in T)
        if not _covered(M, {}, keys):
            return "a fan morphism in the [-1, 1] box is missing"
    return None


def check_morph(tf, q, enum):
    families = {f.base_T for f in enum.families}
    cones = [rec.ray_bases for rec in enum.cone_records]
    return _morph_fault(tf, q, families, cones)


def check_morph_cli(tf, q, answer):
    code, text = answer
    if code not in CLI_ENUM_EXITS:
        return f"exit code {code}"
    families, cones = _parse_enum_lines(text, "base_T")
    return _morph_fault(tf, q, set(families), cones)


def check_expand(tf, q, matrices):
    d = q.data
    if set(matrices) != box_homs(d["source"].matrix(), d["m"], d["lattice"], d["bound"]):
        return f"expand({d['bound']}) differs from the box oracle"
    return None


def check_expand_T(tf, q, matrices):
    """Every returned T is a fan morphism, and every homomorphism image in
    the box whose T is also in the box is returned."""
    src, dst, bound = q.data["src"], q.data["dst"], q.data["bound"]
    dst_dirs = set(dst.directions)
    if any(any(any(r) for r in T) and not _maps_into(T, src, dst_dirs) for T in matrices):
        return "expanded matrix is not a fan morphism"
    G = tf.weighted_eval_map(src).matrix()
    lattice = tf.Lattice.from_rows(G)
    box = box_homs(tf.weighted_eval_map(dst).matrix(), src.n_rays, lattice, bound)
    solve = RightSolver(G)
    for M in box:
        T = solve(M)
        if T is None:
            return "a box homomorphism has no integer morphism matrix"
        if _top(T) <= bound and T not in matrices:
            return f"a morphism with image in the [-{bound}, {bound}] box is missing"
    return None


# ------------------------------------------------------------ decisions

def _sample_points(qid, dim):
    rng = random.Random(qid)
    pts = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    pts += [tuple(-e for e in p) for p in pts]
    pts += [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(dim))
            for _ in range(24)]
    return pts


def _space_fault(q, equal, point):
    f, g = q.data["f"], q.data["g"]
    if equal:
        if any(_peval(f, x) != _peval(g, x) for x in _sample_points(q.qid, q.data["dim"])):
            return "claimed equal, but the functions differ at a sampled point"
        return None
    if q.data["built_equal"]:
        return "pair built equal was declared unequal"
    if point is None or len(point) != q.data["dim"] or _peval(f, point) == _peval(g, point):
        return "separating point does not separate"
    return None


def check_space(tf, q, answer):
    equal, point = answer
    return _space_fault(q, equal, point)


def check_space_cli(tf, q, answer):
    code, text = answer
    lines = text.splitlines()
    if code == 0 and lines == ["equal"]:
        return _space_fault(q, True, None)
    if code == 1 and len(lines) == 2 and lines[0] == "unequal":
        return _space_fault(q, False, [Fraction(c) for c in json.loads(lines[1])])
    return f"exit code {code} with output {text[:60]!r}"


def _rays_truth(q) -> bool:
    return all(_peval(q.data["f"], d) == _peval(q.data["g"], d) for d in q.data["dirs"])


def check_rays(tf, q, equal):
    return None if equal == _rays_truth(q) else "wrong equality verdict on the rays"


def check_rays_cli(tf, q, answer):
    code, text = answer
    lines = text.splitlines()
    truth = _rays_truth(q)
    if code == 0 and lines == ["equal"]:
        return None if truth else "declared equal on the rays, but they differ"
    if code == 1 and len(lines) == 2 and lines[0] == "unequal":
        d = tuple(int(c) for c in json.loads(lines[1]))
        f, g = q.data["f"], q.data["g"]
        if d in q.data["dirs"] and _peval(f, d) != _peval(g, d):
            return None
        return "reported ray does not separate"
    return f"exit code {code} with output {text[:60]!r}"


def _witness_fault(q, f, g, point):
    if tuple(point) != tuple(q.data["point"]):
        return "witness is for another point"
    if any(_peval(f, d) != _peval(g, d) for d in q.data["dirs"]):
        return "witness pair differs on the support"
    if _peval(f, point) == _peval(g, point):
        return "witness pair agrees at the point"
    return None


def check_witness(tf, q, answer):
    w, verified = answer
    if not verified:
        return "verify_witness rejected the pair"
    return _witness_fault(q, w.f.monomials, w.g.monomials, w.point)


def check_witness_cli(tf, q, answer):
    code, text = answer
    if code != 0:
        return f"exit code {code}"
    w = json.loads(text)
    return _witness_fault(q, [tuple(u) for u in w["f"]], [tuple(u) for u in w["g"]],
                          [Fraction(c) for c in w["point"]])


CHECKS = {
    "homs": check_homs, "homs_cli": check_homs_cli,
    "morph": check_morph, "morph_cli": check_morph_cli,
    "expand": check_expand, "expand_T": check_expand_T,
    "space": check_space, "space_cli": check_space_cli,
    "rays": check_rays, "rays_cli": check_rays_cli,
    "witness": check_witness, "witness_cli": check_witness_cli,
}


def check(tf, q, answer):
    """None when the answer is right, else the reason it is not."""
    try:
        return CHECKS[q.kind](tf, q, answer)
    except Exception as exc:  # a malformed answer is a wrong answer
        return f"checker raised {type(exc).__name__}: {exc}"


# ------------------------------------------------------------ self-test

def _drop_family(tf, q, enum):
    if enum.cone_records:  # a recorded cone may still hold the family's members
        return None
    bound = check_bound(q.data["source"].matrix(), q.data["m"])
    for fam in enum.families:
        if fam.modulus * _top(fam.base) <= bound:
            rest = tuple(f for f in enum.families if f is not fam)
            return dataclasses.replace(enum, families=rest)
    return None


def cone_dim(M) -> int:
    """The dimension of the scaling cone of M's columns: the nonnegative
    column scalings t, positive where M's column is nonzero, whose rows sum
    to zero.  0 for the zero matrix, 1 for a member of a one-parameter
    family, 2 or more for a member that only a cone of two or more
    dimensions holds."""
    dirs = [primitive(c) for c in zip(*M) if any(c)]
    return len(dirs) - rank(dirs) if dirs else 0


def _hom_matrix(tf, q, M):
    """The homomorphism matrix of an expanded member: M itself, or for a
    morphism T its image T * G under the source's evaluation map G."""
    if q.kind != "expand_T":
        return M
    G = tf.weighted_eval_map(q.data["src"]).matrix()
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*G)) for row in M)


def cone_members(tf, q, matrices) -> int:
    """How many expanded members lie in a cone of two or more dimensions."""
    return sum(cone_dim(_hom_matrix(tf, q, M)) >= 2 for M in matrices)


def _dropped(in_cone: bool):
    """A corruption that drops the least nonzero member in the box whose
    scaling cone has two or more dimensions (in_cone) or is a ray."""
    def corrupt(tf, q, matrices):
        bound = q.data["bound"]
        hits = []
        for M in matrices:
            H = _hom_matrix(tf, q, M)
            if any(any(r) for r in M) and _top(M) <= bound and _top(H) <= bound \
                    and (cone_dim(H) >= 2) == in_cone:
                hits.append(M)
        return set(matrices) - {min(hits)} if hits else None
    return corrupt


def _wrong_point(tf, q, answer):
    equal, point = answer
    # every polynomial takes 0 at the origin, so the origin separates nothing
    return None if equal else (False, tuple(Fraction(0) for _ in point))


def _unsplit_witness(tf, q, answer):
    w, verified = answer
    return dataclasses.replace(w, g=w.f), verified


CORRUPTIONS = {
    "scan": [("dropped family", "homs", _drop_family)],
    "expand": [("dropped family member", "expand", _dropped(False)),
               ("dropped cone member", "expand", _dropped(True)),
               ("dropped cone morphism", "expand_T", _dropped(True))],
    "certify": [("wrong separating point", "space", _wrong_point),
                ("witness that does not split", "witness", _unsplit_witness)],
}


def self_test(tf, workload, checked):
    """Corrupt one right answer per corruption kind; each must be rejected.

    ``checked`` is a list of (query, answer) pairs that passed ``check``.
    Returns a list of (description, caught) pairs; caught is None when no
    answer could be corrupted that way, which also fails the self-test."""
    results = []
    for name, kind, corrupt in CORRUPTIONS[workload]:
        caught = None
        for q, answer in checked:
            if q.kind != kind:
                continue
            bad = corrupt(tf, q, answer)
            if bad is not None:
                caught = check(tf, q, bad) is not None
                break
        results.append((name, caught))
    return results
