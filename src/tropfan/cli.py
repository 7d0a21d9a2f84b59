"""Command-line surface: fan checking, evaluation maps, homomorphism and
morphism enumeration, witness construction, polynomial equality.

Exit codes: 0 success, 1 semantic negative (point in support, functions
unequal), 2 input error, 3 inexhaustive enumeration (cone records present
and no --expand bound given).  Each input is checked once, where it enters:
by argparse, a loader or the library call that reads it.  Such checks raise
ValueError; main alone maps it, and an input too large to hold (MemoryError,
or OverflowError from a size above sys.maxsize), to one "error:" line, exit 2.
Enumerations print all their JSON lines in one write; rationals print as
exact "p/q" strings.  With --expand B, homs and morphisms print the explicit
matrices of the library's expand and expand_T: those whose homomorphism
(image) matrix has every entry in [-B, B].
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .fan import Fan1D, GenMatrix, check_balancing, json_int, weighted_eval_map
from .homsearch import enumerate_homs, enumerate_morphisms
from .lattice import Lattice
from .tropoly import differing_direction, parse_poly, separating_point
from .witness import in_congruence_variety, witness_to_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INEXHAUSTIVE = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_fan(path: str) -> Fan1D:
    data = _load_json(path)
    try:
        return Fan1D.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_genmatrix(path: str) -> GenMatrix:
    """A generator matrix from either a fan file or a JSON row list."""
    data = _load_json(path)
    try:
        if isinstance(data, dict):
            return weighted_eval_map(Fan1D.from_json_dict(data))
        return GenMatrix.from_matrix([[json_int(e, "matrix entry") for e in row]
                                      for row in data])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_check(args) -> int:
    fan = _load_fan(args.fan)
    for i, ray in enumerate(fan.rays, start=1):
        print(f"ray {i}: direction {list(ray.direction)} weight {ray.weight}")
    print(f"balanced: {'true' if check_balancing(fan) else 'false'}")
    return EXIT_OK


def cmd_evalmap(args) -> int:
    gm = weighted_eval_map(_load_fan(args.fan))
    print(json.dumps(gm.matrix()))
    return EXIT_OK


def _print_enumeration(enum, matrices: set | None) -> int:
    """The enumeration's JSON lines, or, given its expanded matrices, the
    zero line followed by the nonzero matrices in sorted order, in one
    write."""
    if matrices is None:
        lines = enum.to_json_lines()
    else:
        lines = [json.dumps({"kind": "zero"}),
                 *(json.dumps({"kind": "matrix", "matrix": M})
                   for M in sorted(matrices) if any(map(any, M)))]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_INEXHAUSTIVE if matrices is None and enum.inexhaustive else EXIT_OK


def cmd_homs(args) -> int:
    source = _load_genmatrix(args.source)
    target = args.target
    if target.startswith("full:"):
        digits = target.split(":", 1)[1]
        if not digits.isdecimal():
            raise ValueError(f"bad target {target!r}: expected full:<size>")
        size = int(digits)
        lattice = None
    else:
        tg = _load_genmatrix(target)
        size = tg.n_labels
        lattice = Lattice.from_rows(tg.matrix())
    enum = enumerate_homs(source, size, lattice)
    return _print_enumeration(enum, None if args.expand is None else enum.expand(args.expand))


def cmd_morphisms(args) -> int:
    from_fan = _load_fan(args.from_fan)
    to_fan = _load_fan(args.to_fan)
    enum = enumerate_morphisms(from_fan, to_fan)
    return _print_enumeration(enum, None if args.expand is None else enum.expand_T(args.expand))


def _parse_point(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc


def cmd_witness(args) -> int:
    fan = _load_fan(args.fan)
    point = _parse_point(args.point)
    if len(point) != fan.ambient_dim:
        raise ValueError(f"point has {len(point)} coordinates, fan lives in "
                         f"R^{fan.ambient_dim}")
    inside, pair = in_congruence_variety(point, fan.directions)
    print("in-support" if inside else witness_to_json(pair))
    return EXIT_NEGATIVE if inside else EXIT_OK


def cmd_polyeq(args) -> int:
    fan = None if args.on_fan is None else _load_fan(args.on_fan)
    dim = args.on_space if fan is None else fan.ambient_dim
    polys = []
    for name, text in (("f", args.f), ("g", args.g)):
        try:
            polys.append(parse_poly(text, dim))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    f, g = polys
    point = (separating_point(f, g) if fan is None
             else differing_direction(f, g, fan.directions))
    if point is None:
        print("equal")
        return EXIT_OK
    print("unequal")
    print(json.dumps([str(c) for c in point]))
    return EXIT_NEGATIVE


_EXPAND_HELP = ("print explicit matrices instead: every member whose homomorphism "
               "matrix (for morphisms, the image matrix of T) has all entries in [-B, B]")


def _bound(text: str, least: int = 0) -> int:
    if not text.isdecimal() or int(text) < least:
        kind = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="1-dimensional tropical fans: balancing, evaluation maps, "
                    "homomorphism/morphism enumeration, separating witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a fan file and report balancing")
    p.add_argument("fan")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evalmap", help="print the weighted evaluation matrix of a fan")
    p.add_argument("fan")
    p.set_defaults(func=cmd_evalmap)

    p = sub.add_parser("homs", help="enumerate homomorphism matrix families")
    p.add_argument("source", help="generator matrix JSON or fan file")
    p.add_argument("target", help="'full:<size>', generator matrix JSON, or fan file")
    p.add_argument("--expand", type=_bound, metavar="B", help=_EXPAND_HELP)
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("morphisms", help="enumerate fan-morphism matrix families")
    p.add_argument("from_fan")
    p.add_argument("to_fan")
    p.add_argument("--expand", type=_bound, metavar="B", help=_EXPAND_HELP)
    p.set_defaults(func=cmd_morphisms)

    p = sub.add_parser("witness", help="separating witness for a point against a fan")
    p.add_argument("fan")
    p.add_argument("point", help="comma-separated rationals, e.g. '1/2,3,-2'")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("polyeq", help="decide equality of two polynomial functions")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--on-fan", metavar="FAN", help="compare on a fan's support")
    mode.add_argument("--on-space", type=lambda text: _bound(text, 1), metavar="N",
                      help="compare on all of R^N")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_polyeq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MemoryError, OverflowError):
        print("error: the input is too large to hold in memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
