import csv
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import toric_cohomology
from toric_cohomology.cli import build_parser, main, parse_box_spec, parse_class_spec, run
from toric_cohomology.errors import ModelError

DATA = resources.files("toric_cohomology") / "data"
REPO = Path(__file__).resolve().parents[1]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_parser().parse_args(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def p2_path():
    return f"{DATA}/P2.json"


@pytest.fixture(scope="module")
def p1xp1_path():
    return f"{DATA}/P1xP1.json"


class TestSpecParsers:
    def test_class_spec(self):
        assert parse_class_spec("-2, 3", 2) == (-2, 3)
        with pytest.raises(ModelError, match="integers"):
            parse_class_spec("1,x", 2)
        with pytest.raises(ModelError, match="expected 2"):
            parse_class_spec("1", 2)

    def test_box_spec(self):
        assert parse_box_spec("0..1,5..5", 2) == [(0, 5), (1, 5)]
        with pytest.raises(ModelError, match="LO..HI"):
            parse_box_spec("0-1", 1)
        with pytest.raises(ModelError, match="exceeds"):
            parse_box_spec("3..1", 1)
        with pytest.raises(ModelError, match="expected 2"):
            parse_box_spec("0..1", 2)


class TestTableOutput:
    def test_single_class(self, p2_path):
        code, out, err = invoke([p2_path, "--class", "-3"])
        assert code == 0 and err == ""
        assert out == "(-3): 0 0 1\n"

    def test_checks_pass_tags(self, p2_path):
        code, out, _ = invoke(
            [p2_path, "--class", "2", "--oracle-check", "--serre-check"]
        )
        assert code == 0
        assert out == "(2): 6 0 0  [oracle PASS]  [serre PASS]\n"

    def test_box_rows_sorted(self, p1xp1_path):
        code, out, _ = invoke([p1xp1_path, "--box", "0..1,0..1"])
        assert code == 0
        assert out.splitlines() == [
            "(0,0): 1 0 0",
            "(0,1): 2 0 0",
            "(1,0): 2 0 0",
            "(1,1): 4 0 0",
        ]

    def test_duplicate_classes_deduplicated(self, p2_path):
        code, out, _ = invoke([p2_path, "--class", "1", "--class", "1"])
        assert code == 0 and out.count("\n") == 1

    def test_breakdown_lists_rationoms(self, p2_path):
        code, out, _ = invoke([p2_path, "--class", "-3", "--breakdown"])
        assert code == 0
        assert "degree 111" in out
        assert "rationoms: 1/(x1*x2*x3)" in out


class TestCsvOutput:
    def test_round_trip(self, p1xp1_path):
        code, out, _ = invoke(
            [p1xp1_path, "--box=-2..-2,1..3", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a1", "a2", "h0", "h1", "h2"]
        assert rows[1:] == [
            ["-2", "1", "0", "2", "0"],
            ["-2", "2", "0", "3", "0"],
            ["-2", "3", "0", "4", "0"],
        ]


class TestJsonOutput:
    def test_schema(self, p2_path):
        code, out, _ = invoke(
            [p2_path, "--class", "-3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {
                "alpha": [-3],
                "h": [0, 0, 1],
                "breakdown": [
                    {
                        "degree": "000",
                        "count": 0,
                        "factors": {"0": 1},
                        "contrib": {},
                    },
                    {
                        "degree": "111",
                        "count": 1,
                        "factors": {"1": 1},
                        "contrib": {"2": 1},
                    },
                ],
            }
        ]


class TestErrorPaths:
    def test_missing_file(self):
        code, out, err = invoke(["/no/such/file.json", "--class", "0"])
        assert code == 1 and "cannot read" in err

    def test_malformed_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"coordinates": ["x1"]}')
        code, _, err = invoke([str(bad), "--class", "0"])
        assert code == 1 and "error:" in err

    def test_wrong_class_length(self, p2_path):
        code, _, err = invoke([p2_path, "--class", "1,2"])
        assert code == 1 and "expected 1" in err

    def test_no_classes_requested(self, p2_path):
        code, _, err = invoke([p2_path])
        assert code == 1 and "no divisor classes" in err

    def test_class_and_box_conflict(self, p2_path):
        code, _, err = invoke([p2_path, "--class", "0", "--box", "0..1"])
        assert code == 1 and "not both" in err

    def test_bad_box(self, p2_path):
        code, _, err = invoke([p2_path, "--box", "5..1"])
        assert code == 1 and "exceeds" in err


USAGE = "usage: toric-cohomology"


@pytest.mark.parametrize("argv, head, message", [
    (["P2.json", "--class", "1", "--bogus"], USAGE, "unrecognized arguments: --bogus"),
    (["P2.json", "--class", "1", "--unfiltered-debug"], USAGE, "unrecognized arguments"),
    ([], USAGE, "required: input"),
    (["P2.json", "--class", "1", "--format", "xml"], USAGE, "invalid choice: 'xml'"),
    # an empty --box is a box, not an absent one
    ([f"{DATA}/P2.json", "--box="], "error: ", "bad box range ''"),
    ([f"{DATA}/P2.json", "--box=", "--class=1"], "error: ", "not both"),
], ids=["unknown-flag", "removed-flag", "no-input", "bad-format", "empty-box",
        "empty-box-and-class"])
def test_usage_error_exits_1(argv, head, message):
    # argparse's own code 2 is the documented code for non-finite cohomology;
    # sys.exit(run(...)) is what the console script runs
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
        sys.exit(run(build_parser().parse_args(argv), out=out, err=err))
    assert exc.value.code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith(head) and message in err.getvalue()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0 and out.startswith("usage: toric-cohomology")


def test_main_writes_to_the_streams_of_the_call(p2_path, capsys):
    # the streams are looked up when run is called, so capsys sees them
    assert main([p2_path, "--class=0"]) == 0
    assert capsys.readouterr() == ("(0): 1 0 0\n", "")
    assert main(["/no/such/file.json", "--class=0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read /no/such/file.json")


def test_non_finite_exit_code(tmp_path):
    model = {
        "coordinates": ["x1", "x2", "x3"],
        "dimension": 2,
        "charges": [[1], [1], [1]],
        "sr_ideal": [[2, 3]],
        "max_cones": [[1, 2], [1, 3]],
    }
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(model))
    code, _, err = invoke([str(path), "--class", "0"])
    assert code == 2 and "non-finite" in err


def test_receding_fiber_without_rational_points(tmp_path):
    # x2 has charge 0, so both lattice degrees recede along u2; class -2
    # needs u1 = -1 off sigma, so its fibers are empty, while class 2 has
    # the infinite fiber u1 = 1, u2 >= 0 over the empty sigma
    model = {"coordinates": ["x1", "x2"], "dimension": 1,
             "charges": [[2], [0]], "sr_ideal": [[2]]}
    path = tmp_path / "receding.json"
    path.write_text(json.dumps(model))
    assert invoke([str(path), "--class=-2"]) == (0, "(-2): 0 0\n", "")
    code, _, err = invoke([str(path), "--class=2"])
    assert code == 2 and "non-finite" in err


@pytest.mark.parametrize("spec", ["0,0", "1,2", "-3,-1", "5,-5"])
def test_factor_outside_cohomological_range_exits_2(spec, tmp_path):
    # the lcm lattice is {1, x1 x2 x3 x4}, and the full degree's factor
    # sits at r = 1, so it weighs into h^(4 - 1) = h^3 of a surface
    model = {"coordinates": ["x1", "x2", "x3", "x4"], "dimension": 2,
             "charges": [[1, 0], [1, 0], [1, 1], [0, 1]], "sr_ideal": [[1, 2, 3, 4]]}
    path = tmp_path / "sr_only.json"
    path.write_text(json.dumps(model))
    code, out, err = invoke([str(path), f"--class={spec}"])
    assert (code, out) == (2, "")
    assert err == "error: multiplicity factor lands outside cohomological range (i=3)\n"


def test_dimension_equal_to_coordinate_count_exits_1(tmp_path):
    model = {"coordinates": ["x1", "x2"], "dimension": 2,
             "charges": [[], []], "sr_ideal": [[1, 2]]}
    path = tmp_path / "no_classes.json"
    path.write_text(json.dumps(model))
    code, out, err = invoke([str(path), "--class="])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "dimension 2 out of range" in err
    assert err.count("\n") == 1


POINT = {"coordinates": ["x1"], "dimension": 0, "charges": [[1]],
         "sr_ideal": [[1]], "max_cones": [[]]}

POINT_BREAKDOWN = """\
(-1): 1
    degree 0 {} count=0 factors={0: 1} contrib={}
    degree 1 {1} count=1 factors={1: 1} contrib={0: 1}
      rationoms: 1/x1
(2): 1
    degree 0 {} count=1 factors={0: 1} contrib={0: 1}
      rationoms: x1^2
    degree 1 {1} count=0 factors={1: 1} contrib={}
"""


def test_point_model(tmp_path):
    # d = 0: no kernel coordinates, so each class has the single vector
    # u = (alpha,), whose sign alone decides its neg-group
    path = tmp_path / "point.json"
    path.write_text(json.dumps(POINT))
    assert invoke([str(path), "--box=-2..2"]) == (
        0, "".join(f"({a}): 1\n" for a in range(-2, 3)), "")
    assert invoke([str(path), "--class=-1", "--class=2", "--breakdown"]) == (
        0, POINT_BREAKDOWN, "")


def test_binary_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe\x00binary")
    code, out, err = invoke([str(path), "--class", "0"])
    assert code == 1 and out == "" and err.startswith("error: cannot read")


def p1_power_doc(k):
    """P1^k from Stanley-Reisner generators alone: 2^k lattice degrees."""
    return {
        "coordinates": [f"x{i + 1}" for i in range(2 * k)],
        "dimension": k,
        "charges": [[int(j == i // 2) for j in range(k)] for i in range(2 * k)],
        "sr_ideal": [[2 * j + 1, 2 * j + 2] for j in range(k)],
    }


def test_lattice_over_the_bound_exits_1(tmp_path):
    path = tmp_path / "p1_17.json"
    path.write_text(json.dumps(p1_power_doc(17)))
    start = time.perf_counter()
    code, out, err = invoke([str(path), "--class", ",".join(["0"] * 17)])
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "lcm lattice" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert elapsed < 5.0


def test_factor_complex_over_the_bound_exits_1(tmp_path):
    # generators: the twelve cyclic 6-windows of a 12-cycle
    doc = {
        "coordinates": [f"x{i + 1}" for i in range(12)],
        "dimension": 11,
        "charges": [[1]] * 12,
        "sr_ideal": [[(i + k) % 12 + 1 for k in range(6)] for i in range(12)],
    }
    path = tmp_path / "windows.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = invoke([str(path), "--class", "0"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "faces" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert time.perf_counter() - start < 5.0


def test_check_failure_exit_code(p2_path, monkeypatch):
    import toric_cohomology.cli as cli

    class FakeOracle:
        def cohomology_via_fan(self, alpha):
            return (99, 99, 99)

    monkeypatch.setattr(cli, "oracle_for", lambda model: FakeOracle())
    code, out, _ = invoke([p2_path, "--class", "0", "--oracle-check"])
    assert code == 3
    assert "[oracle FAIL]" in out


@pytest.mark.parametrize("model, spec, line", [
    ("P2", "100000", "(100000): 5000150001 0 0"),
    ("P2", "-100003", "(-100003): 0 0 5000150001"),  # the Serre dual
    ("P1xP1xP1", "1000,1000,1000", "(1000,1000,1000): 1003003001 0 0 0"),
], ids=["P2", "P2-dual", "P1xP1xP1"])
def test_large_class_answers_in_seconds(model, spec, line, tmp_path):
    # a neg-group of 10^9 points is summed, not visited; the timeout makes
    # a regression fail instead of hang
    src = Path(toric_cohomology.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "toric_cohomology", f"{DATA}/{model}.json", f"--class={spec}"],
        capture_output=True, text=True, cwd=tmp_path, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, line + "\n"), proc.stderr


def test_broken_pipe_exits_1_quietly(tmp_path):
    # the reader stops after two rows, as `| head -n 2` does, long before
    # the 20,001 rows are written
    src = Path(toric_cohomology.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "toric_cohomology", f"{DATA}/P2.json", "--box=0..20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert lines == [b"(0): 1 0 0\n", b"(1): 3 0 0\n"]
    assert (proc.returncode, err) == (1, b"")


def test_console_script_installed(p2_path, tmp_path):
    """The console script declared in pyproject.toml resolves and runs.

    From a checkout the script is run as ``python -m toric_cohomology``; the
    lookup on PATH is checked only where the distribution is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    for target in project["scripts"].values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    src = Path(toric_cohomology.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "toric_cohomology", p2_path, "--class", "-3"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(-3): 0 0 1\n"

    try:
        importlib.metadata.distribution(project["name"])
    except importlib.metadata.PackageNotFoundError:
        return
    for script in project["scripts"]:
        assert shutil.which(script) is not None
