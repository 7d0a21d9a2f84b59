"""Seeded query pools for the scan, expand and certify workloads.

A workload's suite is a stratified batch of queries: its structural sizes
(ray counts, dimensions, target sizes, bounds, CLI share) are fixed, and its
instances come from a fixed draw (expand: the fixed instances listed
below).  The pool repeats the suite as cycles, each
in its own seeded order, so every cycle does the same work and a slow spell
of the shared machine shows as a few slow cycles.  The seed relabels every
instance by a symmetry that leaves the mathematics and the work alike.  A fan
whose rays label the target (its evaluation rows generate the target
lattice) gets a signed permutation of its coordinates, which keeps that
lattice; a fan on the source side gets its rays shuffled, which only
permutes the direction classes.  Certify instances get a signed coordinate
permutation and shuffled rays.  So every seed gives other inputs of the
same difficulty, and the run-to-run spread is the machine's, not the
draw's.  The published fans X and Y are used as they are wherever they
appear.

Each query holds a zero-argument ``run`` that calls tropfan's public API, or
``tropfan.cli.main`` in process, and returns the answer, plus the inputs the
checker needs.  Calls look tropfan's names up at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable

# The two published reference fans: 5 rays in R^3 and 3 rays in R^2.
FAN_X = {"ambient_dim": 3, "rays": [
    {"direction": [1, 0, 1], "weight": 1}, {"direction": [-1, 0, 1], "weight": 1},
    {"direction": [0, 1, 1], "weight": 1}, {"direction": [0, -1, 1], "weight": 1},
    {"direction": [0, 0, -1], "weight": 4}]}
FAN_Y = {"ambient_dim": 2, "rays": [
    {"direction": [1, 1], "weight": 1}, {"direction": [-1, 1], "weight": 2},
    {"direction": [1, -3], "weight": 1}]}

CLI_SHARE = 0.25  # of a cycle's random queries (rounded down) go through the CLI


@dataclass
class Query:
    qid: int
    kind: str
    run: Callable[[], Any]
    data: dict = field(default_factory=dict)


class QuerySet:
    """Turns seeded instances into queries and writes the CLI share's files."""

    def __init__(self, tf, workdir: Path, seed_rng: random.Random):
        self.tf = tf
        self.workdir = workdir
        self.rng = seed_rng       # replaced by the suite RNG of each draw
        self.seeded = seed_rng    # relabelling and query order
        self.queries: list[Query] = []
        self._files = 0

    def add(self, kind: str, run: Callable[[], Any], **data) -> None:
        self.queries.append(Query(len(self.queries), kind, run, data))

    def fan_file(self, fan) -> str:
        self._files += 1
        path = self.workdir / f"fan{self._files}.json"
        path.write_text(json.dumps(fan.to_json_dict()), encoding="utf-8")
        return str(path)

    def run_cli(self, argv: list[str]):
        """(exit code, stdout) of one in-process CLI invocation."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.tf.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def cli_picks(self, count: int) -> set[int]:
        return set(self.rng.sample(range(count), int(count * CLI_SHARE)))

    def mover(self, n: int):
        """A seeded signed permutation of R^n's coordinates."""
        perm = list(range(n))
        self.seeded.shuffle(perm)
        signs = [self.seeded.choice((1, -1)) for _ in range(n)]
        return lambda v: tuple(s * v[p] for p, s in zip(perm, signs))

    def moved(self, fan, move=None):
        """The fan under a signed permutation of its coordinates."""
        move = move or self.mover(fan.ambient_dim)
        return self.tf.Fan1D(fan.ambient_dim,
                             [self.tf.Ray(move(r.direction), r.weight) for r in fan.rays])

    def shuffled(self, fan):
        """The fan with its rays in seeded order."""
        rays = list(fan.rays)
        self.seeded.shuffle(rays)
        return self.tf.Fan1D(fan.ambient_dim, rays)


# ---------------------------------------------------------------- instances

def primitive(v) -> tuple[int, ...]:
    """v divided by the gcd of its entries; the zero vector as it is."""
    g = 0
    for e in v:
        g = gcd(g, e)
    return tuple(e // g for e in v) if g else tuple(v)


def rank(rows) -> int:
    m = [[Fraction(e) for e in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_fan(tf, rng: random.Random, n: int, k: int, spanning: bool = False):
    """A balanced fan in R^n with k rays: k-1 random small primitive
    directions with weights 1-2, closed by the primitive direction of minus
    their weighted sum, whose weight is that sum's gcd."""
    while True:
        rays, seen = [], set()
        while len(rays) < k - 1:
            v = [rng.randint(-2, 2) for _ in range(n)]
            if any(v) and primitive(v) not in seen:
                seen.add(primitive(v))
                rays.append((primitive(v), rng.randint(1, 2)))
        total = [-sum(w * d[i] for d, w in rays) for i in range(n)]
        if not any(total):
            continue
        last = primitive(total)
        weight = max(map(abs, total)) // max(map(abs, last))
        if last in seen or max(map(abs, last)) > 3 or weight > 4:
            continue
        rays.append((last, weight))
        if spanning and rank([d for d, _ in rays]) < n:
            continue
        rng.shuffle(rays)
        return tf.Fan1D(n, [tf.Ray(d, w) for d, w in rays])


def poly_text(monomials) -> str:
    """A monomial set in the CLI grammar: 'x1^2*x3^-1 + 0 + ...'."""
    terms = []
    for u in monomials:
        factors = [f"x{i + 1}^{e}" for i, e in enumerate(u) if e]
        terms.append("*".join(factors) if factors else "0")
    return " + ".join(terms)


def random_off_support_point(rng, directions) -> tuple[Fraction, ...]:
    dirs = set(directions)
    dim = len(next(iter(dirs)))
    while True:
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim))
        if not any(p):
            continue
        den = 1
        for c in p:
            den = den * c.denominator // gcd(den, c.denominator)
        if primitive([int(c * den) for c in p]) not in dirs:
            return p


def _dot(u, x):
    return sum(a * b for a, b in zip(u, x))


def equal_pair(rng, dim, size):
    """f and g = f plus lattice points of segments between f's monomials:
    the extra points lie in f's exponent hull, so f and g agree on R^n."""
    base = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(size - 1)]
    u = base[0]
    step = tuple(rng.randint(-1, 1) for _ in range(dim))
    if not any(step):
        step = (1,) + (0,) * (dim - 1)
    f = base + [tuple(a + 2 * s for a, s in zip(u, step))]
    extra = [tuple(a + s for a, s in zip(u, step))]
    for _ in range(rng.randint(0, 1)):
        a, c = rng.sample(f, 2)
        if all((x - y) % 2 == 0 for x, y in zip(a, c)):
            extra.append(tuple((x + y) // 2 for x, y in zip(a, c)))
    return f, f + extra


def ray_pair(rng, dim, size, directions, equal: bool):
    """f, and g = f plus one monomial that is dominated by f on every ray
    (equal on the rays) or that beats f on some ray (unequal there)."""
    f = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(size)]
    fvals = [max(_dot(u, d) for u in f) for d in directions]
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(dim))
        below = all(_dot(w, d) <= v for d, v in zip(directions, fvals))
        if below == equal and w not in f:
            return f, f + [w]


# ---------------------------------------------------------------- workloads

def scan_cycle(b: QuerySet) -> None:
    """18 homs from random fans (R^2 and R^3, 3-5 rays) into full:3-5 and 9
    morphisms between random fans with 3-5 rays each."""
    tf, rng = b.tf, b.rng
    jobs = []
    for n in (2, 3):
        for k in (3, 4, 5):
            for m in (3, 4, 5):
                jobs.append(("homs", b.shuffled(random_fan(tf, rng, n, k)), m))
    for k1 in (3, 4, 5):
        for k2 in (3, 4, 5):
            src = random_fan(tf, rng, 2 if k1 == 3 else rng.choice((2, 3)), k1, spanning=True)
            dst = random_fan(tf, rng, rng.choice((2, 3)), k2)
            jobs.append(("morph", b.moved(src), b.shuffled(dst)))
    picks = b.cli_picks(len(jobs))
    for i, (kind, a, c) in enumerate(jobs):
        if kind == "homs":
            gm = tf.weighted_eval_map(a)
            if i in picks:
                argv = ["homs", b.fan_file(a), f"full:{c}"]
                b.add("homs_cli", lambda argv=argv: b.run_cli(argv), source=gm, m=c, lattice=None)
            else:
                b.add("homs", lambda gm=gm, m=c: tf.homsearch.enumerate_homs(gm, m),
                      source=gm, m=c, lattice=None)
        elif i in picks:
            argv = ["morphisms", b.fan_file(a), b.fan_file(c)]
            b.add("morph_cli", lambda argv=argv: b.run_cli(argv), src=a, dst=c)
        else:
            b.add("morph", lambda a=a, c=c: tf.homsearch.enumerate_morphisms(a, c), src=a, dst=c)


def scan_references(b: QuerySet) -> None:
    """X -> full:5 through the library and through the CLI."""
    tf = b.tf
    x = tf.Fan1D.from_json_dict(FAN_X)
    gx = tf.weighted_eval_map(x)
    b.add("homs", lambda: tf.homsearch.enumerate_homs(gx, 5), source=gx, m=5, lattice=None)
    argv = ["homs", b.fan_file(x), "full:5"]
    b.add("homs_cli", lambda: b.run_cli(argv), source=gx, m=5, lattice=None)


# Expand instances, drawn with random_fan and kept when the box of their
# bound holds members; "cone" marks a box with members of a cone of two or
# more dimensions, which only expand_cones can return.  Rays are
# (direction, weight) pairs.
#
# Homomorphisms into a target fan's lattice: (source, target, labels, bound).
EXPAND_HOMS = [
    ([((1, -1), 1), ((0, -1), 2), ((-2, 1), 1), ((1, 2), 1)],          # cone
     [((0, -1), 2), ((-2, 1), 1), ((1, -1), 1), ((1, 2), 1)], 4, 2),
    ([((1, -1), 1), ((-1, 0), 2), ((-1, -1), 1), ((1, 1), 2)],         # cone
     [((0, -1), 2), ((-2, 3), 2), ((1, -2), 2), ((1, 0), 2)], 4, 2),
    ([((1, 0), 2), ((1, -2), 1), ((-1, 0), 3), ((0, 1), 2)],           # cone
     [((2, 2, -1), 1), ((1, 0, 0), 1), ((-3, -2, -1), 1), ((0, 0, 1), 2)], 4, 3),
    ([((1, 2), 1), ((0, -1), 2), ((-1, 0), 1)],                        # cone
     [((-1, 2, -1), 1), ((0, -2, -1), 2), ((1, -1, 0), 1), ((0, 1, 1), 3)], 4, 4),
    ([((-2, -1, 1), 1), ((0, -1, 1), 2), ((0, 1, -1), 1), ((1, 1, -1), 2)],   # cone
     [((-2, 1, -1), 1), ((-1, 1, 0), 1), ((1, 2, 1), 1), ((1, -2, 0), 2)], 4, 3),
    ([((0, 1, 0), 2), ((-1, 1, -1), 2), ((1, -2, 1), 2)],              # cone
     [((0, 1, -1), 1), ((-1, -2, 0), 1), ((0, -1, -1), 2), ((1, 3, 3), 1)], 4, 4),
    ([((0, 1), 2), ((-2, -1), 1), ((2, -1), 1)],                       # families only
     [((-1, 0), 1), ((-1, -1), 1), ((2, 1), 1)], 3, 3),
    ([((0, 1, -1), 1), ((-1, -2, 1), 2), ((1, 2, -1), 2), ((0, -1, 1), 1)],   # families only
     [((1, 0), 2), ((0, 1), 2), ((0, -1), 4), ((-1, 1), 2)], 4, 2),
]
# Homomorphisms into the full target: (source, labels, bound); both boxes
# hold cone members, the second a few hundred matrices.
EXPAND_FULL = [
    ([(r["direction"], r["weight"]) for r in FAN_X["rays"]], 4, 2),
    ([(r["direction"], r["weight"]) for r in FAN_Y["rays"]], 5, 3),
]
# Fan morphisms: (source, destination, bound).
EXPAND_MORPHS = [
    ([((-1, -1), 1), ((-1, 2), 1), ((2, -1), 1)],                      # cone
     [((1, -2), 1), ((-1, 1), 4), ((1, -1), 2), ((1, 2), 1), ((0, -1), 2)], 2),
    ([((-1, 1), 1), ((1, -2), 1), ((-1, 2), 1), ((1, -1), 1)],         # cone
     [((-1, 0), 2), ((-1, -2), 2), ((1, 2), 2), ((1, 0), 2)], 2),
    ([((-3, -2), 1), ((1, 0), 1), ((1, 1), 2)],                        # cone
     [((-1, -1), 4), ((1, 0), 2), ((1, 1), 2), ((0, 1), 2)], 3),
    ([((1, -1), 2), ((-2, 1), 1), ((0, 1), 1)],                        # families only
     [((1, -1), 2), ((-3, 2), 2), ((2, -1), 2)], 2),
    ([((2, 1), 2), ((-1, 0), 2), ((-2, -1), 2), ((1, 0), 2)],          # families only
     [((0, -1), 2), ((-1, 0), 1), ((0, 1), 2), ((-2, 1), 1), ((3, -1), 1)], 1),
]


def fan_of(tf, rays):
    return tf.Fan1D(len(rays[0][0]), [tf.Ray(d, w) for d, w in rays])


def expand_cycle(b: QuerySet) -> None:
    """Enumerate, then expand within a small bound: sources into target
    fans' lattices and into the full target (HomEnumeration.expand), and
    morphisms between fans (MorphismEnumeration.expand_T)."""
    tf = b.tf
    homs = [(b.shuffled(fan_of(tf, src)), b.moved(fan_of(tf, tgt)), m, bound)
            for src, tgt, m, bound in EXPAND_HOMS]
    # The published fans are used as they are: the order of a source's rays
    # changes the cost of extreme_rays, and these two queries set the tail.
    homs += [(fan_of(tf, src), None, m, bound) for src, m, bound in EXPAND_FULL]
    for src, tgt, m, bound in homs:
        gm = tf.weighted_eval_map(src)
        lat = None if tgt is None else tf.Lattice.from_rows(tf.weighted_eval_map(tgt).matrix())
        b.add("expand", lambda gm=gm, lat=lat, m=m, bound=bound:
              tf.homsearch.enumerate_homs(gm, m, lat).expand(bound),
              source=gm, m=m, lattice=lat, bound=bound)
    for src, dst, bound in EXPAND_MORPHS:
        src, dst = b.moved(fan_of(tf, src)), b.shuffled(fan_of(tf, dst))
        b.add("expand_T", lambda a=src, c=dst, bound=bound:
              tf.homsearch.enumerate_morphisms(a, c).expand_T(bound),
              src=src, dst=dst, bound=bound)


def expand_references(b: QuerySet) -> None:
    """Y -> 5 labels into the X lattice: no families, 330 cone records; the
    box of REF_BOUND holds four cone members."""
    tf = b.tf
    gy = tf.weighted_eval_map(tf.Fan1D.from_json_dict(FAN_Y))
    lx = tf.Lattice.from_rows(tf.weighted_eval_map(tf.Fan1D.from_json_dict(FAN_X)).matrix())
    b.add("expand", lambda: tf.homsearch.enumerate_homs(gy, 5, lx).expand(REF_BOUND),
          source=gy, m=5, lattice=lx, bound=REF_BOUND)


REF_BOUND = 4


def certify_cycle(b: QuerySet) -> None:
    """Function equality on R^3 and R^4 (half the pairs equal by
    construction; unequal answers also ask for a separating point), equality
    on random fans' rays, and separating witnesses at random off-support
    points."""
    tf, rng = b.tf, b.rng
    jobs = []
    for dim in (3, 4):
        for i in range(6):
            move = b.mover(dim)
            if i % 2:
                f = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(3, 6))]
                g = f[:-1] + [tuple(rng.randint(-3, 3) for _ in range(dim))]
            else:
                f, g = equal_pair(rng, dim, rng.randint(3, 6))
            jobs.append(("space", dim, [move(u) for u in f], [move(u) for u in g], i % 2 == 0))
        for i in range(4):
            move = b.mover(dim)
            fan = random_fan(tf, rng, dim, rng.choice((3, 4, 5)))
            f, g = ray_pair(rng, dim, rng.randint(2, 5), fan.directions, equal=i % 2 == 0)
            jobs.append(("rays", b.shuffled(b.moved(fan, move)), [move(u) for u in f], [move(u) for u in g], i < 2))
        for _ in range(4):
            move = b.mover(dim)
            fan = random_fan(tf, rng, dim, rng.choice((3, 4, 5)))
            p = random_off_support_point(rng, fan.directions)
            jobs.append(("witness", b.shuffled(b.moved(fan, move)), move(p)))
    picks = b.cli_picks(len(jobs))
    for i, job in enumerate(jobs):
        cli = i in picks
        if job[0] == "space":
            _, dim, fm, gm, built_equal = job
            data = dict(dim=dim, f=fm, g=gm, built_equal=built_equal)
            if cli:
                argv = ["polyeq", "--on-space", str(dim), poly_text(fm), poly_text(gm)]
                b.add("space_cli", lambda argv=argv: b.run_cli(argv), **data)
            else:
                f, g = tf.TropPoly(dim, fm), tf.TropPoly(dim, gm)
                b.add("space", lambda f=f, g=g: _space_query(tf, f, g), **data)
        elif job[0] == "rays":
            _, fan, fm, gm, use_kernel = job
            data = dict(dirs=fan.directions, f=fm, g=gm)
            if cli:
                argv = ["polyeq", "--on-fan", b.fan_file(fan), poly_text(fm), poly_text(gm)]
                b.add("rays_cli", lambda argv=argv: b.run_cli(argv), **data)
            else:
                f, g = tf.TropPoly(fan.ambient_dim, fm), tf.TropPoly(fan.ambient_dim, gm)
                if use_kernel:
                    run = lambda fan=fan, f=f, g=g: tf.fan.kernel_eq(fan, f, g)
                else:
                    run = lambda d=fan.directions, f=f, g=g: tf.tropoly.fn_eq_on_rays(f, g, d)
                b.add("rays", run, **data)
        else:
            _, fan, p = job
            data = dict(dirs=fan.directions, point=p)
            if cli:
                # "--" lets a point with a leading minus sign pass argparse
                argv = ["witness", "--", b.fan_file(fan), ",".join(str(c) for c in p)]
                b.add("witness_cli", lambda argv=argv: b.run_cli(argv), **data)
            else:
                b.add("witness", lambda d=fan.directions, p=p: _witness_query(tf, d, p), **data)


def _space_query(tf, f, g):
    if tf.tropoly.fn_eq_on_space(f, g):
        return True, None
    return False, tf.tropoly.separating_point(f, g)


def _witness_query(tf, dirs, p):
    w = tf.witness.separating_pair(dirs, p)
    return w, tf.witness.verify_witness(w, dirs)


# workload -> (suite function, function adding the published reference queries)
WORKLOADS = {
    "scan": (scan_cycle, scan_references),
    "expand": (expand_cycle, expand_references),
    "certify": (certify_cycle, None),
}

# Fixed warm-up query per workload, independent of the seed.
WARMUPS = {
    "scan": lambda tf: tf.homsearch.enumerate_homs(
        tf.weighted_eval_map(tf.Fan1D.from_json_dict(FAN_X)), 3),
    "expand": lambda tf: tf.homsearch.enumerate_morphisms(
        tf.Fan1D.from_json_dict(FAN_Y), tf.Fan1D.from_json_dict(FAN_X)).expand_T(2),
    "certify": lambda tf: tf.tropoly.separating_point(
        tf.parse_poly("x1 + x2 + x3", 3), tf.parse_poly("x1 + x2", 3)),
}


# Suite draws per workload.  Three scan draws put enough distinct queries near
# the median that latency_p50_ms does not jump across a gap between two
# queries' times; certify queries are short, so its suite is larger still.
SUITE_DRAWS = {"scan": 3, "expand": 1, "certify": 4}


def build_pool(tf, workload: str, seed: int, cycles: int, workdir: Path) -> list[list[Query]]:
    """The seeded suite of the workload, in ``cycles`` seeded orders."""
    cycle_fn, refs_fn = WORKLOADS[workload]
    b = QuerySet(tf, workdir, random.Random(f"{workload}:{seed}"))
    if refs_fn:
        refs_fn(b)
    for draw in range(SUITE_DRAWS[workload]):
        b.rng = random.Random(f"{workload}-suite:{draw}")
        cycle_fn(b)
    pool = []
    for _ in range(cycles):
        order = list(b.queries)
        b.seeded.shuffle(order)
        pool.append(order)
    return pool
