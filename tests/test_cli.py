import argparse
import hashlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tropfan
import tropfan.cli
import tropfan.tropoly
from tropfan import GenMatrix, enumerate_homs
from tropfan.cli import build_parser

from helpers import CLI, ENV, MG_ROWS, box_hom_oracle, genmatrix_x, lattice_y

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
DEMO_FANS = Path(__file__).resolve().parent.parent / "demos" / "fans"

# `tropfan witness` output on the demo fans (fan5_r3 is the 5-ray fan X)
PINNED_WITNESSES = [
    ("fan3_r2.json", "1/2,3",
     '{"f": [[-18, 3], [0, 0], [18, -3]], "g": [[-18, 3], [0, 0], [1, 6], [18, -3]], '
     '"point": ["1/2", "3"], "K": 3}'),
    ("fan5_r3.json", "1/2,1/3,-5",
     '{"f": [[-62, -372, -31], [0, -465, -31], [0, 0, 0], [0, 465, 31], [62, 372, 31]], '
     '"g": [[-62, -372, -31], [0, -465, -31], [0, 0, 0], [0, 465, 31], [3, 2, -30], '
     '[62, 372, 31]], "point": ["1/2", "1/3", "-5"], "K": 31}'),
]

# `tropfan polyeq` output, on R^2 and on the demo fans: one equal and one
# unequal pair in each mode
PINNED_POLYEQ = [
    (["--on-space", "2", "x1^2 + x2^2 + 0", "x1^2 + x2^2 + x1*x2 + 0"], 0, "equal\n"),
    (["--on-space", "2", "x1 + x2", "x1"], 1, 'unequal\n["-1", "1"]\n'),
    (["--on-space", "1", "x1^2 + x1 + 0", "0"], 1, 'unequal\n["1"]\n'),
    (["--on-fan", "fan3_r2.json", "x1 + x2", "x1 + x2 + 0"], 0, "equal\n"),
    (["--on-fan", "fan5_r3.json", "x1 + x3", "x1"], 1, 'unequal\n["-1", "0", "1"]\n'),
]

X_FAN = {
    "ambient_dim": 3,
    "rays": [
        {"direction": [1, 0, 1], "weight": 1},
        {"direction": [-1, 0, 1], "weight": 1},
        {"direction": [0, 1, 1], "weight": 1},
        {"direction": [0, -1, 1], "weight": 1},
        {"direction": [0, 0, -1], "weight": 4},
    ],
}
Y_FAN = {
    "ambient_dim": 2,
    "rays": [
        {"direction": [1, 1], "weight": 1},
        {"direction": [-1, 1], "weight": 2},
        {"direction": [1, -3], "weight": 1},
    ],
}


def run(*args):
    proc = subprocess.run([*CLI, *args], capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_subprocess_imports_the_same_tropfan():
    # with src/ prepended unconditionally, a run against the installed
    # package still checked src/ in every subprocess
    proc = subprocess.run([sys.executable, "-c", "import tropfan; print(tropfan.__file__)"],
                          capture_output=True, text=True, env=ENV, check=True)
    assert Path(proc.stdout.strip()).resolve() == Path(tropfan.__file__).resolve()


@pytest.fixture
def fan_files(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps(X_FAN))
    y.write_text(json.dumps(Y_FAN))
    return str(x), str(y)


class TestCheck:
    def test_balanced_fan(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("check", x)
        assert code == 0
        assert "balanced: true" in out
        assert "ray 5: direction [0, 0, -1] weight 4" in out

    def test_unbalanced_single_ray(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text(json.dumps({"ambient_dim": 2,
                                 "rays": [{"direction": [1, 0], "weight": 1}]}))
        code, out, _ = run("check", str(p))
        assert code == 0
        assert "balanced: false" in out

    def test_duplicate_direction_rejected(self, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"ambient_dim": 2,
                                 "rays": [{"direction": [1, 0], "weight": 1},
                                          {"direction": [2, 0], "weight": 1}]}))
        code, _, err = run("check", str(p))
        assert code == 2
        assert "duplicate" in err

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run("check", str(p))
        assert code == 2 and err

    @pytest.mark.parametrize("name, data", [
        ("fan.json", {"ambient_dim": 2, "rays": [{"direction": [1.7, 1], "weight": True}]}),
        ("fan.json", {"ambient_dim": 2, "rays": [{"direction": [1, 1], "weight": True}]}),
        ("fan.json", {"ambient_dim": 2, "rays": [{"direction": [1, 1], "weight": 1.0}]}),
        ("fan.json", {"ambient_dim": "2", "rays": [{"direction": [1, 1]}]}),
        ("fan.json", {"ambient_dim": 2, "rays": [{"direction": ["1", 1]}]}),
        ("matrix.json", [[1.5, -1]]),
        ("matrix.json", [[True, -1]]),
        ("matrix.json", [["1", -1]]),
    ])
    def test_non_integer_json_rejected(self, tmp_path, name, data):
        # a float, bool or numeric string must not be truncated into an integer
        p = tmp_path / name
        p.write_text(json.dumps(data))
        command = ("check", str(p)) if name == "fan.json" else ("homs", str(p), "full:2")
        code, out, err = run(*command)
        assert code == 2 and out == ""
        assert "must be an integer" in err


class TestEvalmap:
    def test_reference_matrices(self, fan_files):
        x, y = fan_files
        code, out, _ = run("evalmap", x)
        assert code == 0
        assert json.loads(out) == [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0],
                                   [1, 1, 1, 1, -4]]
        code, out, _ = run("evalmap", y)
        assert code == 0
        assert json.loads(out) == [[1, -2, 1], [1, 2, -3]]

    def test_line_fan(self, tmp_path):
        p = tmp_path / "line.json"
        p.write_text(json.dumps({"ambient_dim": 1,
                                 "rays": [{"direction": [1], "weight": 1},
                                          {"direction": [-1], "weight": 1}]}))
        code, out, _ = run("evalmap", str(p))
        assert code == 0 and json.loads(out) == [[1, -1]]


class TestHoms:
    def test_full_target_golden(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("homs", x, "full:3")
        assert code == 0
        assert out == (DATA / "golden_homs_full.jsonl").read_text()

    def test_lattice_target_golden(self, fan_files, tmp_path):
        x, _ = fan_files
        gens = tmp_path / "gens.json"
        gens.write_text("[[1,-2,1],[1,2,-3]]")
        code, out, _ = run("homs", x, str(gens))
        assert code == 0
        assert out == (DATA / "golden_homs_lattice.jsonl").read_text()

    def test_fan_as_target(self, fan_files):
        x, y = fan_files
        code, out, _ = run("homs", x, y)
        assert code == 0
        assert out == (DATA / "golden_homs_lattice.jsonl").read_text()

    def test_matrix_as_source(self, tmp_path):
        src = tmp_path / "mf.json"
        src.write_text(json.dumps([[1, -1, 0, 0, 0], [0, 0, 1, -1, 0],
                                   [1, 1, 1, 1, -4]]))
        code, out, _ = run("homs", str(src), "full:3")
        assert code == 0
        assert out == (DATA / "golden_homs_full.jsonl").read_text()

    def test_expand(self, fan_files, tmp_path):
        # --expand B prints every homomorphism matrix with entries in [-B, B]
        x, _ = fan_files
        gens = tmp_path / "gens.json"
        gens.write_text("[[1,-2,1],[1,2,-3]]")
        code, out, _ = run("homs", x, str(gens), "--expand", "8")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0] == {"kind": "zero"}
        mats = [tuple(tuple(r) for r in l["matrix"]) for l in lines[1:]]
        assert len(mats) == len(set(mats))
        box = box_hom_oracle(genmatrix_x(), 3, lattice_y(), 8)
        assert set(mats) | {((0,) * 3,) * 3} == box
        assert len(mats) == 16

    def test_expand_prints_library_expansion(self, tmp_path):
        # a source with cone records: the CLI prints the library's expand(B),
        # zero line first, then the nonzero matrices in sorted order
        src = tmp_path / "mf.json"
        src.write_text("[[1,-1]]")
        enum = enumerate_homs(GenMatrix.from_matrix([[1, -1]]), 3)
        assert enum.cone_records
        for bound in (0, 1, 3):
            code, out, _ = run("homs", str(src), "full:3", "--expand", str(bound))
            assert code == 0
            expected = [{"kind": "zero"}] + [
                {"kind": "matrix", "matrix": [list(r) for r in M]}
                for M in sorted(enum.expand(bound)) if M != enum.zero_matrix]
            assert [json.loads(l) for l in out.splitlines()] == expected

    def test_trivial_source_zero_only(self, tmp_path):
        src = tmp_path / "mf.json"
        src.write_text("[[0],[0]]")
        code, out, _ = run("homs", str(src), "full:1")
        assert code == 0
        assert out.strip() == '{"kind": "zero"}'

    def test_inexhaustive_exit_code(self, tmp_path):
        src = tmp_path / "mf.json"
        src.write_text("[[1,-1]]")
        code, out, _ = run("homs", str(src), "full:3")
        assert code == 3
        kinds = [json.loads(l)["kind"] for l in out.splitlines()]
        assert "cone" in kinds

    def test_bad_target_spec(self, fan_files):
        x, _ = fan_files
        code, _, err = run("homs", x, "full:three")
        assert code == 2 and err


class TestMorphisms:
    def test_reference_golden(self, fan_files):
        x, y = fan_files
        code, out, _ = run("morphisms", y, x)
        assert code == 0
        assert out == (DATA / "golden_morphisms.jsonl").read_text()

    def test_identity_family_present(self, tmp_path):
        p = tmp_path / "line.json"
        p.write_text(json.dumps({"ambient_dim": 1,
                                 "rays": [{"direction": [1], "weight": 1},
                                          {"direction": [-1], "weight": 1}]}))
        code, out, _ = run("morphisms", str(p), str(p))
        assert code == 0
        bases = [l["base_T"] for l in map(json.loads, out.splitlines())
                 if l["kind"] == "family"]
        assert [[1]] in bases and [[-1]] in bases

    def test_expand(self, fan_files):
        # the bound is on the image matrix T * MG_ROWS, not on T
        x, y = fan_files
        code, out, _ = run("morphisms", y, x, "--expand", "8")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0] == {"kind": "zero"}
        Ts = [l["matrix"] for l in lines[1:]]
        images = {tuple(tuple(sum(T[i][j] * MG_ROWS[j][b] for j in range(2))
                              for b in range(3))
                        for i in range(3)) for T in Ts}
        assert len(images) == len(Ts)
        box = box_hom_oracle(genmatrix_x(), 3, lattice_y(), 8)
        assert images | {((0,) * 3,) * 3} == box
        assert len(Ts) == 16

    def test_expand_completes_cone_records(self, fan_files, tmp_path):
        _, y = fan_files
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"ambient_dim": 1,
                                    "rays": [{"direction": [1], "weight": 1},
                                             {"direction": [-1], "weight": 1}]}))
        code, out, _ = run("morphisms", y, str(line))
        assert code == 3  # three target slots over opposite columns
        code, out, _ = run("morphisms", y, str(line), "--expand", "8")
        assert code == 0
        mats = [l["matrix"] for l in map(json.loads, out.splitlines())
                if l["kind"] == "matrix"]
        assert mats
        # soundness: each induced image matrix T * MG must have zero row sums
        MG = [[1, -2, 1], [1, 2, -3]]
        for T in mats:
            M = [sum(T[0][j] * MG[j][b] for j in range(2)) for b in range(3)]
            assert sum(M) == 0


class TestWitness:
    def test_off_support_point(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("witness", x, "1,1,0")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"f", "g", "point", "K"}
        assert data["point"] == ["1", "1", "0"]

    @pytest.mark.parametrize("fan, point, line", PINNED_WITNESSES, ids=["fan3_r2", "fan5_r3"])
    def test_pinned_bytes(self, fan, point, line):
        # CI also runs this test against the installed console script
        assert run("witness", str(DEMO_FANS / fan), point) == (0, line + "\n", "")

    def test_rational_point(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("witness", x, "1/2,1/3,-5")
        assert code == 0
        assert json.loads(out)["point"] == ["1/2", "1/3", "-5"]

    def test_point_on_ray(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("witness", x, "2,0,2")
        assert code == 1
        assert out.strip() == "in-support"

    def test_origin(self, fan_files):
        x, _ = fan_files
        code, out, _ = run("witness", x, "0,0,0")
        assert code == 1
        assert out.strip() == "in-support"

    def test_wrong_dimension(self, fan_files):
        x, _ = fan_files
        code, _, err = run("witness", x, "1,2")
        assert code == 2 and err


class TestPolyeq:
    def test_equal_on_fan(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"ambient_dim": 2,
                                 "rays": [{"direction": [1, 0], "weight": 1},
                                          {"direction": [1, 1], "weight": 1}]}))
        code, out, _ = run("polyeq", "--on-fan", str(p), "x1 + x2", "x1")
        assert code == 0 and out.strip() == "equal"

    def test_unequal_on_fan_prints_first_differing_direction(self, tmp_path):
        # x1 and x2 differ on (1, 0) and (0, 1): fan order, not sorted order
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"ambient_dim": 2,
                                 "rays": [{"direction": [1, 0], "weight": 1},
                                          {"direction": [0, 1], "weight": 1},
                                          {"direction": [-1, -1], "weight": 1}]}))
        code, out, _ = run("polyeq", "--on-fan", str(p), "x2", "x1")
        assert code == 1
        assert out == 'unequal\n["1", "0"]\n'

    @pytest.mark.parametrize("args, code, out", PINNED_POLYEQ, ids=[
        "space-equal", "space-unequal", "space-unshared-non-vertex", "fan3_r2-equal",
        "fan5_r3-unequal"])
    def test_pinned_bytes(self, args, code, out):
        # CI also runs this test against the installed console script
        args = [str(DEMO_FANS / a) if a.endswith(".json") else a for a in args]
        assert run("polyeq", *args) == (code, out, "")

    def test_on_fan_decides_once(self, fan_files, monkeypatch):
        # one scan decides and names the direction: no (polynomial pair,
        # direction) is evaluated twice, and neither polynomial is evaluated
        # on its own
        calls = Counter()
        real = tropfan.tropoly._pair_differs

        def counted(f, g):
            differs = real(f, g)

            def wrapper(point):
                calls[f, g, tuple(point)] += 1
                return differs(point)
            return wrapper

        monkeypatch.setattr(tropfan.tropoly, "_pair_differs", counted)
        monkeypatch.setattr(tropfan.tropoly.TropPoly, "eval", None)
        x, _ = fan_files
        for f, g, code in (("x1 + x2", "x1", 1), ("x1 + x2", "x1 + x2 + 0", 0)):
            calls.clear()
            assert tropfan.cli.main(["polyeq", "--on-fan", x, f, g]) == code
            assert calls and max(calls.values()) == 1

    def test_unequal_on_space_with_certificate(self):
        code, out, _ = run("polyeq", "--on-space", "2", "x1 + x2", "x1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "unequal"
        from fractions import Fraction
        point = [Fraction(c) for c in json.loads(lines[1])]
        left = max(point[0], point[1])
        assert left != point[0]

    def test_on_space_decides_once(self, monkeypatch, capsys):
        # one separating_point call decides and certifies; canonical() is unused
        calls = Counter()

        def counted(name):
            real = getattr(tropfan.tropoly, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(tropfan.cli, name, wrapper, raising=False)

        counted("separating_point")
        counted("fn_eq_on_space")
        monkeypatch.setattr(tropfan.tropoly.TropPoly, "canonical", None)
        assert tropfan.cli.main(["polyeq", "--on-space", "2", "x1 + x2", "x1"]) == 1
        assert calls == {"separating_point": 1}
        assert capsys.readouterr().out.splitlines()[0] == "unequal"

    def test_reflexive(self):
        code, out, _ = run("polyeq", "--on-space", "3", "x1*x3^-2 + 0",
                           "x1*x3^-2 + 0")
        assert code == 0 and out.strip() == "equal"

    def test_syntax_error(self):
        code, _, err = run("polyeq", "--on-space", "2", "x1 +", "x1")
        assert code == 2 and err

    @pytest.mark.parametrize("mode", [["--on-space", "2"], ["--on-fan", "fan3_r2.json"]])
    def test_syntax_error_names_the_argument(self, mode):
        mode = [str(DEMO_FANS / a) if a.endswith(".json") else a for a in mode]
        for args, name in ((["x1 +", "x1"], "f"), (["x1", "x1 +"], "g")):
            assert run("polyeq", *mode, *args) == (
                2, "", f"error: {name}: expected a variable factor (at position 4)\n")

    def test_exactly_one_mode(self, fan_files):
        x, _ = fan_files
        code, _, err = run("polyeq", "--on-fan", x, "--on-space", "2", "x1", "x1")
        assert code == 2 and err


def test_python_m_tropfan_runs_the_cli():
    # the package's __main__ is the same CLI as the tropfan command
    fan = str(DEMO_FANS / "fan3_r2.json")
    proc = subprocess.run([sys.executable, "-m", "tropfan", "check", fan],
                          capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stdout) == run("check", fan)[:2]
    assert proc.returncode == 0 and "balanced: true" in proc.stdout


def test_readme_cli_flags_match_parser():
    # every --flag of the README's CLI section is an option of the parser,
    # and every option (other than -h/--help) is documented there
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = build_parser()
    parsers = [parser] + [p for a in parser._actions if isinstance(a, argparse._SubParsersAction)
                          for p in a.choices.values()]
    options = {o for p in parsers for a in p._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
    assert documented == options


@pytest.mark.parametrize("args, pinned", [
    (("homs", "{x}", "full:5"),
     (3, "c621e2c94103fc7bb73ef807f764513827bdbaa6169a411720282cc7fa94e8c2")),
    (("homs", "{y}", "{x}", "--expand", "4"),
     (0, "be59def30ec8870fb30dfe9ae1dae2718ac07ef75c0e73852115b2921f150237")),
    (("morphisms", "{y}", "{x}", "--expand", "8"),
     (0, "2bb9d39732ef891c8106f0d096880dcf22362eb9249861c2d897da90524d36f3")),
    (("polyeq", "--on-space", "3", "x1*x2^-1 + x3 + 0", "x1 + x2^2*x3^-1"), None),
    (("witness", "{x}", "1/2,1/3,-5"), None),
], ids=["homs-full", "homs-lattice-expand", "morphisms", "polyeq", "witness"])
def test_byte_determinism_across_runs(fan_files, args, pinned):
    # the commands build sets and parse text, so each run under three hash
    # seeds prints the same bytes and exits with the same code; an
    # enumeration's exit code and the SHA-256 of its stdout are pinned
    x, y = fan_files
    argv = [*CLI, *(a.format(x=x, y=y) for a in args)]
    outs = {(proc.returncode, proc.stdout) for proc in (
        subprocess.run(argv, capture_output=True, env={**ENV, "PYTHONHASHSEED": str(seed)})
        for seed in range(3))}
    assert len(outs) == 1
    code, out = next(iter(outs))
    assert out
    if pinned:
        assert (code, hashlib.sha256(out).hexdigest()) == pinned


@pytest.mark.parametrize("args", [
    ("homs", "{x}", "full:0"),
    ("homs", "{x}", "{y}", "--expand", "-1"),
    ("morphisms", "{y}", "{x}", "--expand", "-1"),
    ("morphisms", "{empty}", "{x}"),
    ("morphisms", "{x}", "{empty}"),
    ("evalmap", "{empty}"),
    ("homs", "{empty}", "full:2"),
    ("check", "{binary}"),
    ("homs", "{x}", "full:99999999999999999999"),
    ("homs", "{x}", "{y}", "--jobs", "2"),
    ("homs", "{x}", "full:1_0"),
    ("homs", "{x}", "full: 3"),
    ("homs", "{x}", "full:+3"),
    ("polyeq", "--on-space", "1_0", "x1", "x1"),
    ("polyeq", "--on-space", " +2", "x1", "x1"),
    ("witness", "{empty}", "1,2,3"),
    ("witness", "{x}", "0,0"),
    ("polyeq", "x1", "x1"),
    ("polyeq", "--on-space", "0", "x1", "x1"),
])
def test_input_errors_exit_2_without_traceback(fan_files, tmp_path, args):
    x, y = fan_files
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ambient_dim": 2, "rays": []}))
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run(*(a.format(x=x, y=y, empty=empty, binary=binary) for a in args))
    assert code == 2
    assert err and "Traceback" not in err


def test_zero_dimension_blames_on_space():
    # a zero --on-space is refused where it enters, not by parse_poly as f's
    # error
    code, out, err = run("polyeq", "--on-space", "0", "x1", "x1")
    assert (code, out) == (2, "")
    assert "argument --on-space: expected a positive integer, got '0'" in err
    assert "f:" not in err


HUGE = "100000000000000000000"  # 10^20, above sys.maxsize
HUGE_FAN = {"ambient_dim": int(HUGE), "rays": []}


def run_with_demo_fans(tmp_path, args):
    """run(*args) with each *.json argument read from demos/fans, and {huge}
    and {one} standing for HUGE_FAN and the no-circuit source [[1]]."""
    (tmp_path / "huge.json").write_text(json.dumps(HUGE_FAN))
    (tmp_path / "one.json").write_text("[[1]]")
    return run(*(str(DEMO_FANS / a) if a.endswith(".json")
                 else a.format(huge=tmp_path / "huge.json", one=tmp_path / "one.json")
                 for a in args))


@pytest.mark.parametrize("args", [
    ("polyeq", "--on-space", "100000000000000", "x1", "x1"),
    ("homs", "fan3_r2.json", "full:100000000000000"),
    ("polyeq", "--on-space", HUGE, "x1", "x1"),
    ("check", "{huge}"),
    ("morphisms", "{huge}", "fan3_r2.json"),
    ("morphisms", "fan3_r2.json", "{huge}"),
    ("polyeq", "--on-fan", "{huge}", "x1", "x1"),
    ("homs", "{one}", f"full:{HUGE}", "--expand", "1"),
])
def test_input_too_large_to_allocate_exits_2(tmp_path, args):
    # the first two ask for about 800 TB at once (a list of 10^14
    # exponents, a tuple of 10^14 target labels), a MemoryError; the others
    # use a size above sys.maxsize as a length ([0] * dim in parse_poly and
    # check_balancing, a zero matrix of 10^20 columns), an OverflowError.
    # Both are input errors, not a semantic negative
    code, out, err = run_with_demo_fans(tmp_path, args)
    assert (code, out) == (2, "")
    assert err == "error: the input is too large to hold in memory\n"


def test_full_target_has_no_size_cap(tmp_path):
    # a source with no positive circuit has only the zero homomorphism, into
    # any number of labels
    assert run_with_demo_fans(tmp_path, ["homs", "{one}", f"full:{HUGE}"]) == (
        0, '{"kind": "zero"}\n', "")


def test_library_value_error_exits_2_in_main(fan_files, monkeypatch, capsys):
    # main is the one place that turns a ValueError into exit 2
    def reject(*args):
        raise ValueError("rejected by the library")

    monkeypatch.setattr(tropfan.cli, "enumerate_homs", reject)
    x, _ = fan_files
    assert tropfan.cli.main(["homs", x, "full:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rejected by the library\n"


# Fuzzing: random argv over every subcommand, with small random fan and
# matrix files, run in process.  Whatever the input, the CLI must end with a
# documented exit code and never with a traceback.  Sizes stay small (at
# most 4 labels, entries in [-3, 3], bounds up to 4) so every example is fast.

_small = st.integers(-3, 3)
_entry = st.one_of(_small, _small, _small, st.booleans(),
                   st.sampled_from([0.5, 2.0, "1", None, [1]]))
_junk_fan = st.fixed_dictionaries({
    "ambient_dim": st.one_of(st.integers(0, 3), _entry, st.just(int(HUGE))),
    "rays": st.lists(st.fixed_dictionaries({
        "direction": st.lists(_entry, max_size=3),
        "weight": st.one_of(st.integers(1, 3), _entry)}), max_size=4)})
_fan = st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries({
    "ambient_dim": st.just(d),
    "rays": st.lists(st.fixed_dictionaries({
        "direction": st.lists(_small, min_size=d, max_size=d),
        "weight": st.integers(1, 3)}), min_size=1, max_size=4)}))
_matrix = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.lists(_small, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))
_junk_matrix = st.lists(st.lists(_entry, max_size=4), max_size=3)
_file = st.one_of(
    _fan.map(json.dumps), _fan.map(json.dumps), _matrix.map(json.dumps),
    _matrix.map(json.dumps), _junk_fan.map(json.dumps), _junk_matrix.map(json.dumps),
    st.sampled_from([json.dumps(X_FAN), json.dumps(Y_FAN), "", "{", "[]", "{}", "7"]),
    st.text(max_size=10),
).map(lambda text: text.encode()) | st.binary(max_size=6)

_path = st.sampled_from(["{a}", "{a}", "{b}", "{b}", "{missing}"])
_number = st.one_of(st.integers(0, 4).map(str), st.integers(0, 4).map(str),
                    st.sampled_from(["-1", "x", "1.5", ""]))
# a size above sys.maxsize, for full: and --on-space only: as an --expand
# bound it would make expand build a column table of about 10^20 entries
_size = _number | st.just(HUGE)
_target = _path | _size.map(lambda s: "full:" + s) | st.just("full")
_point = st.lists(st.sampled_from(["0", "1", "-2", "1/2", "-3/4", "1/0", "a", ""]),
                  min_size=1, max_size=4).map(",".join)
_poly = st.sampled_from(["x1", "x1 + x2", "x1^-2*x3 + 0", "0", "x2^3 + x1*x2",
                         "x4", "x0", "x1 +", "", "*", "x1^", "2"])
_expand = st.lists(st.tuples(st.sampled_from(["--expand", "--jobs"]), _number)
                   .map(list), max_size=2).map(lambda opts: sum(opts, []))
_structured = st.one_of(
    st.tuples(st.just("check"), _path).map(list),
    st.tuples(st.just("evalmap"), _path).map(list),
    st.tuples(st.just("homs"), _path, _target, _expand).map(lambda t: [*t[:3], *t[3]]),
    st.tuples(st.just("morphisms"), _path, _path, _expand).map(lambda t: [*t[:3], *t[3]]),
    st.tuples(st.just("witness"), _path, _point).map(list),
    st.tuples(st.just("polyeq"),
              st.sampled_from(["--on-fan"]).map(lambda f: [f, "{a}"])
              | _size.map(lambda n: ["--on-space", n]),
              _poly, _poly).map(lambda t: [t[0], *t[1], t[2], t[3]]),
)
_token = _path | _number | _target | _point | _poly | st.sampled_from(
    ["check", "evalmap", "homs", "morphisms", "witness", "polyeq", "--expand",
     "--jobs", "--on-fan", "--on-space", "--help", "-"])
_argv = _structured | _structured | st.lists(_token, max_size=6)


def _main_in_process(argv):
    from contextlib import redirect_stderr, redirect_stdout
    import io
    import warnings

    from tropfan.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_file, b=_file, argv=_argv)
def test_fuzzed_argv_exits_with_documented_code(a, b, argv):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = {"a": Path(tmp) / "a.json", "b": Path(tmp) / "b.json",
                 "missing": Path(tmp) / "missing.json"}
        paths["a"].write_bytes(a)
        paths["b"].write_bytes(b)
        code, err = _main_in_process([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
