"""Enumerate all semiring homomorphisms between Laurent-generated
subsemirings of max-plus vector semirings, as finite families of integer
matrices, and convert them to fan-morphism matrices.

A homomorphism out of the subsemiring generated by the rows of a generator
matrix is determined by the images of those rows; stacking the images gives
an integer matrix whose rows sum to zero and whose every column is a
nonnegative rational multiple of a source column ("geometric").  Restricting
the codomain to a subsemiring adds a lattice-membership condition on the
rows.  Each column-assignment pattern's scaling cone {t >= 0 : N t = 0} has
its positive circuits as extreme rays; a positive circuit never uses two
parallel columns, so every pattern's rays are placements of the circuits of
the direction classes.  Those are the extreme rays of one cone, over all
classes at once, so one double description per enumeration finds them,
and its expansions reuse them; it never combines two rays whose joint
support has more classes than the target has labels.  A placement alone
spans a one-dimensional cone, packaged as a one-parameter family: a
primitive base matrix, laid from its circuit's scaled class directions,
with the modulus that the target lattice's forms (Lattice.forms) give on
the placed columns.  Patterns admitting two or more placements span cones
of dimension two or more, reported as cone records that flag the result
inexhaustive.  Records and expansions walk the class sets that hold a circuit
(for expansions, that the circuits inside cover), then the set's count
vectors, and lay each multiset from its count shape's table of layouts,
built once per process and shared by every enumeration and expansion.
Records share each circuit's sorted placements, and the JSON lines dump
each distinct placement matrix once.  An expansion solves one bounded
kernel per class set, over the class totals, spreads the totals over the
slots, keeps the points whose rows meet a target lattice's forms, and lays
each with _place, as the families are laid.

An enumeration holds thousands of per-member results (HomFamily, ConeRecord,
MorphismFamily), and the cyclic collector walks every one of them on each
full collection.  So they are frozen dataclasses over __slots__ (_Slotted):
no instance carries a __dict__, so the collector finds each record's fields
inside the record, with no separate attribute store to reach (a dict before
Python 3.11, a values array in 3.11 and 3.12), while equality, hashing, copy
and pickle stay by value.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import gcd, prod
from operator import itemgetter, mul, or_, sub
from typing import Iterable, Optional, Sequence

from .cones import bounded_points, extreme_rays
from .fan import (Fan1D, GenMatrix, check_balancing, direction_classes, primitive,
                  weighted_eval_map)
from .lattice import Lattice, hnf, solve_int
from .maxplus import TropVector, exact_int
from .tropoly import TropPoly, substitute_units
from .witness import WitnessPair, _verified_pair

IntMatrix = tuple[tuple[int, ...], ...]
Assignment = tuple[Optional[int], ...]
Circuit = tuple[tuple[int, ...], tuple[int, ...]]  # (class labels, coefficients)


class NotGeometricError(ValueError):
    """Images admit no homomorphism: some column matches no source column.

    label is the first target label whose image column lies off the source
    ray union, and witness a verified separating pair at that column: its f
    and g agree on every source column, so any homomorphism sends them to
    the same vector, yet the images give them different values at label.
    """

    def __init__(self, message: str, label: Optional[int] = None,
                 witness: Optional[WitnessPair] = None):
        super().__init__(message)
        self.label = label
        self.witness = witness


def _scale_matrix(M: IntMatrix, s: int) -> IntMatrix:
    return tuple(tuple(s * e for e in row) for row in M)


def geometric_check(images: Sequence[TropVector],
                    source: GenMatrix) -> Optional[list[tuple[Optional[int], Fraction]]]:
    """Per-target-label witnesses (source label, scale) for the image columns.

    Column b of the stacked images must equal t * (column a of the source)
    for some label a and rational t > 0, that is, share the primitive
    direction of a's class in direction_classes.  Zero columns are reported
    as (None, 0); otherwise the class's lowest label is chosen.  Returns None
    when some column matches nothing.
    """
    matched = _match_columns(images, source)
    return None if isinstance(matched, int) else matched


def _match_columns(images: Sequence[TropVector], source: GenMatrix
                   ) -> list[tuple[Optional[int], Fraction]] | int:
    """geometric_check's witnesses, or the first label whose column matches
    nothing."""
    rows = list(images)
    if len(rows) != source.n:
        raise ValueError(f"expected {source.n} image rows, got {len(rows)}")
    lowest = {d: a for a, d in direction_classes(source)}
    witnesses = []
    for b, col in enumerate(GenMatrix(rows).columns()):
        if not any(col):
            witnesses.append((None, Fraction(0)))
            continue
        a = lowest.get(primitive(col))
        if a is None:
            return b
        i = next(i for i, e in enumerate(col) if e)
        witnesses.append((a, Fraction(col[i], source.rows[i][a])))
    return witnesses


class _Slotted:
    """Base of the frozen per-member records, which declare their fields in
    __slots__ (see the module docstring).  copy and pickle restore the slots
    through object.__setattr__, since the frozen dataclass refuses setattr;
    not dataclass(slots=True), whose frozen form raises TypeError instead of
    AttributeError on an unknown attribute."""

    __slots__ = ()

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class HomFamily(_Slotted):
    """The one-parameter matrix set {s * base : s a positive multiple of
    modulus}; base is primitive (entry gcd 1) and columns follow assignment."""

    __slots__ = ("assignment", "base", "modulus")
    assignment: Assignment
    base: IntMatrix
    modulus: int

    @property
    def minimal_member(self) -> IntMatrix:
        return _scale_matrix(self.base, self.modulus)

    def matrix_for(self, s: int) -> IntMatrix:
        s = exact_int(s)
        if s <= 0 or s % self.modulus:
            raise ValueError(f"parameter must be a positive multiple of {self.modulus}")
        return _scale_matrix(self.base, s)

    def sort_key(self):
        return (_assignment_key(self.assignment), self.base)


@dataclass(frozen=True)
class ConeRecord(_Slotted):
    """Escape hatch for assignments whose scaling cone is not a single ray:
    the extreme-ray base matrices are listed, moduli deferred."""

    __slots__ = ("assignment", "ray_bases")
    assignment: Assignment
    ray_bases: tuple[IntMatrix, ...]

    def sort_key(self):
        return _assignment_key(self.assignment)


def _assignment_key(assignment: Assignment) -> tuple[int, ...]:
    return tuple(-1 if a is None else a for a in assignment)


def _circuit_table(reps: list[tuple[int, tuple[int, ...]]], n: int,
                   target_size: int) -> tuple[Circuit, ...]:
    """Every placeable positive circuit of the class directions: the extreme
    rays of {t >= 0 : sum_a t_a d_a = 0}, which are its minimal-support
    points, from one double description over all classes that admits only
    supports of at most target_size classes (placements are injective)."""
    N = [[d[i] for _, d in reps] for i in range(n)]
    rays = extreme_rays(N, len(reps), admissible=lambda s: s.bit_count() <= target_size)
    return tuple(tuple(zip(*((a, t) for (a, _), t in zip(reps, ray) if t))) for ray in rays)


def _place(template: Sequence[tuple[int, ...]], positions: Sequence[int], m: int) -> IntMatrix:
    """The matrix whose column positions[j] is template[j], zero elsewhere."""
    cols = [(0,) * len(template[0])] * m
    for b, col in zip(positions, template):
        cols[b] = col
    return tuple(zip(*cols))


def _lattice_columns(L: Lattice, class_dirs: dict[int, tuple[int, ...]],
                     classes: Sequence[int]):
    """The lattice's forms on a slot column: psi[a][b] holds what slot b,
    scaled by 1 along class a's direction d, adds to the forms of the matrix
    rows, as (span, congruence): W[.][b] * d[i] and Q[b][.] * d[i] mod P over
    the rows i (no congruence entries when P = 1).  Returns (psi, P)."""
    W, P, Qt = L.forms
    Qt = Qt if P > 1 else ()
    return {a: [(tuple(w[b] * e for e in class_dirs[a] for w in W),
                 tuple(q[b] * e % P for e in class_dirs[a] for q in Qt))
                for b in range(L.ambient)] for a in classes}, P


def _lattice_points(points: list, cols: Sequence, P: int) -> list:
    """The points k whose matrix rows are lattice members, for one layout
    whose point entry p scales the slot column cols[p]: each form's
    k-weighted sum over the columns is zero (span) or divisible by P
    (congruence)."""
    for row in zip(*(span for span, _ in cols)):
        if any(row):
            points = [k for k in points if not sum(map(mul, row, k))]
            if not points:
                return points
    for row in zip(*(cong for _, cong in cols)):
        if any(row):
            points = [k for k in points if not sum(map(mul, row, k)) % P]
            if not points:
                return points
    return points


@cache
def _layouts(shape: tuple[int, ...]
             ) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Every way to lay values with the given counts over m = sum(shape)
    slots, as (value index of each slot, ascending slots of each value); one
    immutable table per shape and process, which every caller shares."""
    m = sum(shape)
    ways: list = [((), range(m))]  # (slots of the values laid so far, free slots)
    for k in shape:
        ways = [(w + (c,), [b for b in free if b not in c])
                for w, free in ways for c in itertools.combinations(free, k)]
    return tuple((tuple(next(i for i, bs in enumerate(w) if b in bs) for b in range(m)), w)
                 for w, _ in ways)


@cache
def _compositions(total: int, count: int, limit: int) -> tuple[tuple[int, ...], ...]:
    """The ordered ways to write total as count parts, each in [1, limit]."""
    if count == 1:
        return ((total,),) if 1 <= total <= limit else ()
    return tuple((k,) + rest for k in range(max(1, total - (count - 1) * limit),
                                            min(limit, total - count + 1) + 1)
                 for rest in _compositions(total - k, count - 1, limit))


def _class_multisets(classes: Sequence[int], circuits: Sequence[Circuit], m: int,
                     covered: bool = False):
    """The class multisets over m slots that hold a circuit, walked as class
    sets, then counts: each set S of 2 to m classes with a circuit inside
    (covered: the union of the circuits inside S is S), then each count
    vector giving every class of S one slot or more, the rest of the slots
    None.  Yields (values, counts, live): values are S, led by None when a
    slot is None, and live pairs each circuit inside S with the value index
    of each of its classes."""
    if not circuits:  # then no set holds one, and none needs a visit
        return
    bit = {a: 1 << i for i, a in enumerate(classes)}
    masks = [sum(map(bit.__getitem__, labels)) for labels, _ in circuits]
    for k in range(2, min(m, len(classes)) + 1):
        for S in itertools.combinations(classes, k):
            s = sum(map(bit.__getitem__, S))
            inside = [c for c, mask in enumerate(masks) if mask & s == mask]
            if not inside or covered and s != reduce(or_, map(masks.__getitem__, inside)):
                continue
            at = {a: i for i, a in enumerate(S)}
            live = [(c, tuple(map(at.__getitem__, circuits[c][0]))) for c in inside]
            past_none = [(c, tuple(i + 1 for i in idx)) for c, idx in live]
            for used in range(k, m + 1):
                for cuts in itertools.combinations(range(1, used), k - 1):
                    counts = tuple(map(sub, cuts + (used,), (0,) + cuts))
                    if used == m:
                        yield S, counts, live
                    else:
                        yield (None,) + S, (m - used,) + counts, past_none


@dataclass(frozen=True)
class HomEnumeration:
    """Complete answer set: the zero matrix, the single-parameter families,
    and cone records for multi-parameter assignments (if any, the result is
    inexhaustive); expand lists the exact members within an entry bound.
    circuits holds the source's placeable positive circuits as (class
    labels, coefficients), computed once by enumerate_homs and read by
    expand."""

    n: int
    target_size: int
    source: GenMatrix
    target_lattice: Optional[Lattice]
    families: tuple[HomFamily, ...]
    cone_records: tuple[ConeRecord, ...]
    circuits: tuple[Circuit, ...]

    @property
    def inexhaustive(self) -> bool:
        return bool(self.cone_records)

    @property
    def zero_matrix(self) -> IntMatrix:
        return tuple((0,) * self.target_size for _ in range(self.n))

    def expand(self, entry_bound: int) -> set[IntMatrix]:
        """The exact set of homomorphism matrices, the zero matrix included,
        with every entry in [-entry_bound, entry_bound].

        A nonzero member scales each slot b of its support by some k_b >= 1
        along its class direction d_b, with sum_b k_b d_b = 0, and class
        directions are primitive and distinct, so each member is built once:
        per class set S covered by the circuits inside it (a class in no such
        circuit is zero in every nonnegative kernel vector), one bounded_points
        call finds the class totals T_a (the sum of k_b over class a's slots)
        with sum_a T_a d_a = 0 and T_a in [1, (m - |S| + 1) * limit_a],
        limit_a = entry_bound // max|d_a|; per count vector c over at most m
        slots, each T_a is spread into c_a ordered parts in [1, limit_a],
        placed at every layout, kept if its rows meet the lattice's forms,
        and laid with _place from the columns t * d_a of a per-call table."""
        entry_bound = exact_int(entry_bound)
        if entry_bound < 0:
            raise ValueError("entry bound must be nonnegative")
        n, m, L = self.n, self.target_size, self.target_lattice
        class_dirs = dict(direction_classes(self.source))
        live = sorted({a for labels, _ in self.circuits for a in labels})
        psi, P = (None, 1) if L is None else _lattice_columns(L, class_dirs, live)
        limit = {a: entry_bound // max(map(abs, class_dirs[a])) for a in live}
        # column[a][t] is t * d_a, for every part t a slot of class a can take
        column = {a: [tuple(t * e for e in class_dirs[a]) for t in range(limit[a] + 1)]
                  for a in live}
        totals: dict[tuple[int, ...], list] = {}  # class set -> positive class totals
        out = {self.zero_matrix}
        for vals, shape, _ in _class_multisets(live, self.circuits, m, covered=True):
            S, counts = (vals[1:], shape[1:]) if vals[0] is None else (vals, shape)
            if S not in totals:
                N = [[class_dirs[a][i] for a in S] for i in range(n)]
                box = [(m - len(S) + 1) * limit[a] for a in S]
                totals[S] = [T for T in bounded_points(N, box) if all(T)]
            points = [sum(parts, ()) for T in totals[S] for parts in
                      itertools.product(*map(_compositions, T, counts, map(limit.get, S)))]
            if not points:
                continue
            classes = [a for a, k in zip(S, counts) for _ in range(k)]
            cols = [column[a] for a in classes]
            for _, slots in _layouts(shape):
                at = [b for a, bs in zip(vals, slots) if a is not None for b in bs]
                kept = points if psi is None else _lattice_points(
                    points, [psi[a][b] for a, b in zip(classes, at)], P)
                for k in kept:
                    out.add(_place([col[t] for col, t in zip(cols, k)], at, m))
        return out

    def to_json_lines(self) -> list[str]:
        return _json_lines(({"kind": "family",
                             "assignment": _assignment_json(fam.assignment),
                             "base": fam.base,
                             "modulus": fam.modulus} for fam in self.families),
                           self.cone_records)


def _assignment_json(assignment: Assignment) -> list:
    return [None if a is None else a + 1 for a in assignment]


# a cone line is these two texts around the JSON list of its ray bases
_CONE_HEAD, _CONE_TAIL = json.dumps({"kind": "cone", "rays": [], "flag": "inexhaustive"}).split("[]")


def _json_lines(families: Iterable[dict], records: Sequence[ConeRecord]) -> list[str]:
    """The zero line, one line per family object, then one per cone record.
    Records share their placement matrices, so each distinct matrix is
    dumped once and each cone line is joined from those texts, with the
    bytes json.dumps gives the record's {"kind", "rays", "flag"} object."""
    texts = dict.fromkeys(M for rec in records for M in rec.ray_bases)
    text = dict(zip(texts, map(json.dumps, texts))).__getitem__
    return [json.dumps({"kind": "zero"}),
            *map(json.dumps, families),
            *(f"{_CONE_HEAD}[{', '.join(map(text, rec.ray_bases))}]{_CONE_TAIL}"
              for rec in records)]


def enumerate_homs(source: GenMatrix, target_size: int,
                   target_lattice: Optional[Lattice] = None) -> HomEnumeration:
    """All homomorphism matrices out of the subsemiring generated by the
    source rows, into the full target of the given label count or into the
    subsemiring cut out by the target lattice.

    The positive circuits of the direction classes are computed once and
    kept on the result as circuits, which expand reads.  Each injective
    placement of a circuit into the target labels is one family (its modulus,
    or its drop off the lattice's span, read from the lattice's forms).  An
    assignment's scaling cone is spanned by the placements it admits, and
    their number depends only on how many labels the assignment gives each
    class.  So cone records walk the class sets holding a circuit, then each
    set's count vectors, and are built only for the multisets that admit two
    or more placements, from the placement matrices already computed, at
    every layout of the multiset over the target labels.  The output is
    deterministically sorted.
    """
    target_size = exact_int(target_size)
    if target_size < 1:
        raise ValueError("target label count must be positive")
    if target_lattice is not None and target_lattice.ambient != target_size:
        raise ValueError("target lattice ambient disagrees with target size")
    n = source.n
    reps = direction_classes(source)
    class_dirs = dict(reps)
    circuits = _circuit_table(reps, n, target_size)

    psi, P = (None, 1) if target_lattice is None else _lattice_columns(
        target_lattice, class_dirs, sorted({a for labels, _ in circuits for a in labels}))
    placed: list[dict[tuple[int, ...], IntMatrix]] = []
    families: list[HomFamily] = []
    for labels, coeffs in circuits:
        template = [tuple(t * e for e in class_dirs[a]) for a, t in zip(labels, coeffs)]
        assert gcd(*itertools.chain(*template)) == 1  # primitive ray => primitive matrices
        placed.append({})
        for positions in itertools.permutations(range(target_size), len(labels)):
            M0 = placed[-1][positions] = _place(template, positions, target_size)
            modulus = 1
            if psi is not None:
                cols = [psi[a][b] for a, b in zip(labels, positions)]
                if any(sum(map(mul, coeffs, row)) for row in zip(*(span for span, _ in cols))):
                    continue  # a row leaves the lattice's span at every scale
                modulus = P // gcd(P, *(sum(map(mul, coeffs, row))
                                        for row in zip(*(cong for _, cong in cols))))
            at = dict(zip(positions, labels))
            families.append(HomFamily(tuple(map(at.get, range(target_size))), M0, modulus))

    records: list[ConeRecord] = []
    keys: list[tuple[int, ...]] = []  # records[i]'s sort key, None as -1
    laid: dict[tuple, list] = {}  # (circuit, shape, value indices) -> sorted bases per layout
    for vals, shape, live in _class_multisets([a for a, _ in reps], circuits, target_size):
        if sum(prod(map(shape.__getitem__, idx)) for _, idx in live) < 2:
            continue
        table = _layouts(shape)
        for c, idx in live:
            if (c, shape, idx) not in laid:
                # a circuit has two or more classes, so the getter returns a tuple
                of, mat_at = itemgetter(*idx), placed[c].__getitem__
                laid[c, shape, idx] = [tuple(sorted(map(mat_at, itertools.product(*of(slots)))))
                                       for _, slots in table]
        per_circuit = [laid[c, shape, idx] for c, idx in live]
        bases_at = (per_circuit[0] if len(live) == 1 else
                    [tuple(sorted(itertools.chain(*bs))) for bs in zip(*per_circuit)])
        sort_vals = [-1 if a is None else a for a in vals]
        for (key, _), bases in zip(table, bases_at):
            assign = itemgetter(*key)  # two or more slots, so it returns a tuple
            records.append(ConeRecord(assign(vals), bases))
            keys.append(assign(sort_vals))

    fams = tuple(sorted(families, key=HomFamily.sort_key))
    # ConeRecord.sort_key order (assignments are unique), with the keys the
    # layout keys' getters built instead of one Python-level key call per record
    recs = tuple(map(records.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))
    return HomEnumeration(n, target_size, source, target_lattice, fams, recs, circuits)


@dataclass(frozen=True, init=False, repr=False)
class Hom:
    """A concrete homomorphism, held as the images of the generator rows.

    Elements of the source subsemiring are presented as polynomial
    expressions in the generators; applying the homomorphism substitutes
    the image rows into the expression.
    """

    source: GenMatrix
    images: tuple[TropVector, ...]
    witnesses: tuple[tuple[Optional[int], Fraction], ...]

    def __init__(self, source: GenMatrix, images: Sequence[TropVector],
                 witnesses: Sequence[tuple[Optional[int], Fraction]]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "images", tuple(images))
        object.__setattr__(self, "witnesses", tuple(witnesses))

    def __call__(self, f: TropPoly) -> TropVector:
        return substitute_units(f, self.images)

    def __repr__(self) -> str:
        return f"Hom(images={[v.to_json() for v in self.images]})"


def hom_from_images(images: Sequence[TropVector], source: GenMatrix) -> Hom:
    """The unique homomorphism sending generator i to images[i].

    Existence requires (and is guaranteed by) the geometric condition on the
    image columns; otherwise NotGeometricError is raised because no
    homomorphism has those images, certified by a separating pair at the
    first column off the source ray union.
    """
    matched = _match_columns(images, source)
    if isinstance(matched, int):
        dirs = [col for col in source.columns() if any(col)]
        pair = _verified_pair(dirs, tuple(v[matched] for v in images))
        raise NotGeometricError(
            "no homomorphism: some image column is not a nonnegative multiple "
            "of a source column", matched, pair)
    return Hom(source, images, matched)


def apply_functor(T: Sequence[Sequence[int]], target_gens: GenMatrix) -> tuple[TropVector, ...]:
    """Images induced by an integer matrix: row i of T * (generator rows).
    T's entries go through exact_int, so bools and floats are refused."""
    m = target_gens.n
    G = target_gens.matrix()
    images = []
    for row in T:
        if len(row) != m:
            raise ValueError(f"matrix row has length {len(row)}, expected {m}")
        row = list(map(exact_int, row))
        entries = [sum(row[j] * G[j][b] for j in range(m))
                   for b in range(target_gens.n_labels)]
        images.append(TropVector(entries))
    return tuple(images)


def recover_T(images: Sequence[TropVector], target_gens: GenMatrix) -> IntMatrix:
    """The integer matrix T with T * (generator rows) = image rows.

    The canonical solution (free coefficients zero) is returned, making the
    recovery linear in the images; LatticeSolveError identifies the first
    image row outside the generator lattice.
    """
    rows = []
    for img in images:
        if img.is_bottom:
            raise ValueError("image rows must be finite vectors")
        rows.append(img.entries)
    return solve_int(target_gens.matrix(), rows)


@dataclass(frozen=True)
class MorphismFamily(_Slotted):
    """The matrix set {k * base_T : k a positive integer} of linear maps
    carrying one fan's support into the other's."""

    __slots__ = ("assignment", "base_T")
    assignment: Assignment
    base_T: IntMatrix

    def matrix_for(self, k: int) -> IntMatrix:
        k = exact_int(k)
        if k <= 0:
            raise ValueError("parameter must be a positive integer")
        return _scale_matrix(self.base_T, k)

    def sort_key(self):
        return (_assignment_key(self.assignment), self.base_T)


@dataclass(frozen=True)
class MorphismEnumeration:
    """All linear maps defining morphisms from one fan to another: the zero
    map, T-families, and any propagated cone records.  transform is U with
    U * (target generator rows) = their HNF, the target lattice's basis;
    expand_T reads it to rewrite members in generator coordinates."""

    homs: HomEnumeration
    target_gens: GenMatrix
    families: tuple[MorphismFamily, ...]
    transform: IntMatrix

    @property
    def cone_records(self) -> tuple[ConeRecord, ...]:
        return self.homs.cone_records

    @property
    def inexhaustive(self) -> bool:
        return self.homs.inexhaustive

    def expand_T(self, entry_bound: int) -> set[IntMatrix]:
        """The morphism matrices T, the zero map included, whose image
        matrix T * (target generator rows) has every entry in
        [-entry_bound, entry_bound]: the members of homs.expand, rewritten
        in generator coordinates by the canonical integer solve."""
        L = self.homs.target_lattice
        return {_gen_coords(L, self.transform, M) for M in self.homs.expand(entry_bound)}

    def to_json_lines(self) -> list[str]:
        return _json_lines(({"kind": "family",
                             "assignment": _assignment_json(fam.assignment),
                             "base_T": fam.base_T}
                            for fam in self.families),
                           self.cone_records)


def enumerate_morphisms(from_fan: Fan1D, to_fan: Fan1D) -> MorphismEnumeration:
    """All integer matrices defining morphisms from one 1-dimensional fan to
    another, as single-parameter families plus the zero map.

    Homomorphisms run contravariantly: the source generators come from the
    destination fan, the target lattice from the origin fan.  Unbalanced
    fans are allowed with a warning (the enumeration uses only the generator
    matrices).
    """
    for fan, name in ((from_fan, "source"), (to_fan, "destination")):
        if not check_balancing(fan):
            warnings.warn(f"{name} fan is not balanced; enumeration proceeds "
                          "on its generator matrix", stacklevel=2)
    MF = weighted_eval_map(to_fan)
    MG = weighted_eval_map(from_fan)
    H, U = hnf(MG.matrix())  # the lattice's basis and the solve's transform
    lattice = Lattice(from_fan.n_rays, H)
    enum = enumerate_homs(MF, from_fan.n_rays, lattice)
    # enum.families' order is sort_key order: no two families share an assignment
    fams = tuple(MorphismFamily(fam.assignment, _gen_coords(lattice, U, fam.minimal_member))
                 for fam in enum.families)
    return MorphismEnumeration(enum, MG, fams, U)


def _gen_coords(L: Lattice, U: IntMatrix, M: IntMatrix) -> IntMatrix:
    """solve_int(G, M) for M's rows in L, the lattice of G, and U * G = hnf(G):
    each row's coefficients over L's basis (Lattice.forms), times U."""
    _, P, Qt = L.forms
    return tuple(tuple(sum(map(mul, c, u)) for u in zip(*U))
                 for c in ([sum(map(mul, q, row)) // P for q in Qt] for row in M))
