"""The published reference points, reproduced through tropfan's public API.

Run from the repository root:

    python3 perfbench/sanity.py

Prints one JSON object: X -> full:5 has 120 families and 1,500 cone
records; Y -> 5 labels into the X lattice has no families and 330 cone
records; expanding the latter within entry bound 6 gives 9 matrices.
Exits 1 if any count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tropfan as tf  # noqa: E402

from pools import FAN_X, FAN_Y  # noqa: E402

EXPECTED = {"x_full5_families": 120, "x_full5_cone_records": 1500,
            "y5_x_lattice_families": 0, "y5_x_lattice_cone_records": 330,
            "y5_x_lattice_expand6_matrices": 9}


def main() -> int:
    gx = tf.weighted_eval_map(tf.Fan1D.from_json_dict(FAN_X))
    gy = tf.weighted_eval_map(tf.Fan1D.from_json_dict(FAN_Y))
    lx = tf.Lattice.from_rows(gx.matrix())
    out = {}
    start = perf_counter()
    e = tf.enumerate_homs(gx, 5)
    out["x_full5_s"] = perf_counter() - start
    out["x_full5_families"], out["x_full5_cone_records"] = len(e.families), len(e.cone_records)
    start = perf_counter()
    e = tf.enumerate_homs(gy, 5, lx)
    out["y5_x_lattice_s"] = perf_counter() - start
    out["y5_x_lattice_families"] = len(e.families)
    out["y5_x_lattice_cone_records"] = len(e.cone_records)
    start = perf_counter()
    out["y5_x_lattice_expand6_matrices"] = len(e.expand(6))
    out["y5_x_lattice_expand6_s"] = perf_counter() - start
    print(json.dumps(out))
    return 0 if all(out[k] == v for k, v in EXPECTED.items()) else 1


if __name__ == "__main__":
    sys.exit(main())
