import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidity_lab import __version__, cli, gcs, prolongation, reportio

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"
CURVE_FILE = str(TESTS_DIR / "data" / "rotation_orbit.json")
RATIONAL_CHART_FILE = str(TESTS_DIR / "data" / "chart_rational.json")
LIGHTLIKE_CHART_FILE = str(TESTS_DIR / "data" / "chart_lightlike.json")

GOLDEN_CASES = {
    "certify_conformal_flat.json": [
        "certify", "--builtin", "conformal_flat", "--n", "3",
        "--point", "0,0,0", "--r", "1",
    ],
    "certify_product_nonrigid_samples.json": [
        "certify", "--builtin", "product_nonrigid", "--n", "3",
        "--point", "0,0,0", "--r-samples", "0.5,1,2",
    ],
    "certify_chart_rational.json": [
        "certify", "--chart", RATIONAL_CHART_FILE,
        "--point", "0.1,-0.2,0.25", "--r-samples", "0.75,1.5",
    ],
    "braid_degenerate.json": [
        "braid", "--n", "3", "--J", "identity", "--Jp", "diag:1,0,0",
    ],
    "prolong_one_param.json": [
        "prolong", "--algebra", "one_param",
        "--R", "[[0,1,0],[0,0,0],[0,0,0]]", "--max-order", "3",
    ],
    "lightlike_product_nonrigid.json": [
        "lightlike", "--builtin", "product_nonrigid", "--n", "3",
        "--point", "0,0,0", "--r", "1",
    ],
    "lightlike_chart_document.json": [
        "lightlike", "--chart", LIGHTLIKE_CHART_FILE, "--point", "0.1,0.2,-0.3", "--r", "1.25",
    ],
    "symspace_orbit.json": ["symspace", "--curve", CURVE_FILE, "--resample", "33"],
    "examples_list.txt": ["examples", "list"],
}


def run_cli(args, threads="1", env_extra=None, check=True):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    env.pop("RIGIDITY_LAB_TOL", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "rigidity_lab", *args],
        capture_output=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr.decode()[:2000]}"
        )
    return proc


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    """Byte-identical reports across two runs, thread counts, and the stored
    golden file; regenerate with REGEN_GOLDEN=1 pytest tests/test_cli.py."""
    args = GOLDEN_CASES[name]
    first = run_cli(args, threads="1").stdout
    second = run_cli(args, threads="1").stdout
    threaded = run_cli(args, threads="4").stdout
    assert first == second, "report differs between identical runs"
    assert first == threaded, "report differs across thread counts"
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.write_bytes(first)
    assert path.exists(), f"golden file {name} missing; run with REGEN_GOLDEN=1"
    assert first == path.read_bytes(), f"report drifted from golden file {name}"


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_CASES if n.endswith(".json")))
def test_golden_input_hash_is_hash_of_input(name):
    doc = json.loads((GOLDEN_DIR / name).read_bytes())
    assert doc["input_hash"] == reportio.input_hash(doc["input"])


def _main_report(argv, tmp_path):
    """Exit code and report bytes of ``cli.main(argv)``, in process."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--output", str(out)])
    return code, out.read_bytes() if code == 0 else None


def _flags(command):
    """The option strings ``command`` accepts, read from the CLI's parser."""
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return set(sub.choices[command]._option_string_actions) - {"-h", "--help"}


def _json_text(doc):
    """``doc`` as JSON text, its infinities spelled 1e400 as a user would."""
    return json.dumps(doc).replace("Infinity", "1e400")


def _main_exit(argv):
    """Exit code and stderr of ``cli.main(argv)``, in process; argparse's
    usage errors end in SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestEnvelope:
    """The envelope alone writes the metadata; the parser alone holds defaults."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r-samples", "2,1",
             "--grid", "4", "--kernel-basis"],
            ["lightlike", "--builtin", "lightcone", "--n", "4", "--point", "0.1,0,0", "--r", "1"],
            ["braid", "--n", "3", "--Jp", "diag:1,0,0", "--kernel-basis"],
            ["braid", "--n", "2", "--variant", "symskew"],
            ["prolong", "--algebra", "lightlike_orth", "--n", "3", "--max-order", "2"],
            ["symspace", "--curve", CURVE_FILE, "--resample", "5"],
        ],
        ids=["certify", "lightlike", "braid", "braid-symskew", "prolong", "symspace"],
    )
    def test_input_hash_is_hash_of_input(self, argv, tmp_path):
        code, report = _main_report(argv, tmp_path)
        assert code == 0
        doc = json.loads(report)
        assert doc["input_hash"] == reportio.input_hash(doc["input"])
        assert doc["tool_version"] == __version__
        if "--tol" in _flags(argv[0]):
            assert doc["tolerances"]["kernel_tol"] == doc["input"]["tol"]
        else:
            assert "tolerances" not in doc and "tol" not in doc["input"]

    def test_input_hash_follows_grid(self, tmp_path):
        argv = ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1"]
        hashes = {
            json.loads(_main_report([*argv, "--grid", grid], tmp_path)[1])["input_hash"]
            for grid in ("5", "8")
        }
        assert len(hashes) == 2

    @pytest.mark.parametrize(
        "argv, explicit, digest",
        [
            (["braid", "--n", "3"], ["--J", "identity", "--Jp", "identity"],
             "3ca974f190f946297c4ad7084157e94d149d289bc38f241bca3367cbfc9f1359"),
            (["braid", "--n", "4", "--variant", "classical"], ["--J", "identity"],
             "412384a0f4d06944f67839dff48462ea3753376d4f89da0a7aca0c76c6f6da89"),
            (["prolong", "--generators", "[[[1,0],[0,1]],[[0,1],[0,0]]]"], ["--algebra", "custom"],
             "da1abb8de6cc9ebbc9816bf4195cdf0e41166dcd2c788b8e6d5cc3d8dc51f194"),
        ],
    )
    def test_omitted_flags_take_parser_defaults(self, argv, explicit, digest, tmp_path):
        code, omitted = _main_report(argv, tmp_path)
        assert code == 0
        assert _main_report([*argv, *explicit], tmp_path) == (0, omitted)
        # the bytes these commands wrote when the handlers held the defaults,
        # less the seed and grid lines of flags they do not take
        assert hashlib.sha256(omitted).hexdigest() == digest


def test_package_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the CLI must not load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rigidity_lab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_completed_is_zero_even_for_non_rigid(self):
        proc = run_cli(
            ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r", "1"]
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "non-rigid"

    def test_malformed_json_is_two_with_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "oops..')
        proc = run_cli(["certify", "--chart", str(bad), "--r", "1"], check=False)
        assert proc.returncode == 2
        msg = proc.stderr.decode()
        assert "line" in msg and "column" in msg

    def test_domain_violation_is_two(self):
        proc = run_cli(
            ["certify", "--builtin", "conformal_flat", "--n", "3",
             "--point", "9,0,0", "--r", "1"],
            check=False,
        )
        assert proc.returncode == 2
        assert "outside" in proc.stderr.decode()

    def test_unknown_builtin_is_two(self):
        proc = run_cli(
            ["certify", "--builtin", "nope", "--n", "3", "--r", "1"], check=False
        )
        assert proc.returncode == 2

    def test_missing_r_is_two(self):
        proc = run_cli(
            ["certify", "--builtin", "conformal_flat", "--n", "3"], check=False
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--generators", "[[[NaN,0],[0,1]]]"], "generator 0 has a non-finite entry"),
            (["--algebra", "one_param", "--R", "[[Infinity,0],[0,1]]"],
             "generator 0 has a non-finite entry"),
            (["--generators", "[[[1e308,1e308],[1e308,1]],[[1,0],[0,1]]]"],
             "generator 0: the generators' Frobenius norm overflows"),
            (["--algebra", "one_param", "--R", "[[1,0,0],[0,1]]"],
             "R row 1 has 2 entries, row 0 has 3"),
            (["--generators", "[[[1,0],[0,1]],[[1,0],[0]]]"],
             "generator 1 row 1 has 1 entries, row 0 has 2"),
            (["--generators", "[[[1,0],[0,1]],[[1,0,0],[0,1,0],[0,0,1]]]"],
             "generator 1 has shape (3, 3), expected (2, 2)"),
            (["--generators", "[1]"], "generator 0 must be a list of rows"),
            (["--algebra", "one_param", "--R", "[[" + "9" * 400 + "]]"],
             "R has an entry out of float range"),
            (["--algebra", "one_param", "--R", '[[true, 0],[0, "1"]]'],
             "R row 0 has an entry that is no number: true"),
            (["--generators", '[[[1, 0],[0, "1"]]]'],
             'generator 0 row 1 has an entry that is no number: "1"'),
            (["--generators", "[[[1, 0],[0, null]]]"],
             "generator 0 row 1 has an entry that is no number: null"),
        ],
    )
    def test_invalid_algebra_input_is_two(self, args, message, capsys):
        assert cli.main(["prolong", *args]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["prolong", "--algebra", "so", "--n", "3", "--max-order", "0"],
             "max_order must be in 1..5, got 0"),
            (["symspace", "--curve", CURVE_FILE, "--resample", "0"],
             "need at least two output samples, got 0"),
        ],
    )
    def test_zero_count_is_two(self, args, message, capsys):
        assert cli.main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["--n", "0"], ["--J", "diag:", "--Jp", "diag:"], ["--variant", "classical", "--n", "0"]],
    )
    def test_empty_form_is_two(self, args, capsys):
        assert cli.main(["braid", *args]) == 2
        assert "form has dimension 0, need at least 1" in capsys.readouterr().err

    def test_oversized_grid_is_two_before_scanning(self, monkeypatch, capsys):
        def no_compile(*args, **kwargs):
            raise AssertionError("oversized grid was evaluated")

        monkeypatch.setattr(gcs, "_compile_grid_program", no_compile)
        code = cli.main(
            ["certify", "--builtin", "conformal_flat", "--n", "6", "--grid", "20",
             "--r", "1"]
        )
        assert code == 2
        assert "20^7 points" in capsys.readouterr().err

    def test_grid_cap_is_two_before_any_coefficient(self, monkeypatch, tmp_path, capsys):
        def no_poly(*args, **kwargs):
            raise AssertionError("a coefficient was built")

        n = 4000
        doc = {
            "kind": "gcs", "n": n, "domain": [[-1, 1]] * n, "interval": [0.5, 2],
            "entries": [{"i": 0, "j": 0, "num": [["1", [0] * n + [1]]]}],
        }
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        monkeypatch.setattr(gcs.Poly, "var", no_poly)
        monkeypatch.setattr(gcs.Poly, "from_terms", no_poly)
        message = "grid of 5^4001 points over 4001 axes is above the cap of 10000000"
        for source in (["--builtin", "conformal_flat", "--n", str(n)], ["--chart", str(chart)]):
            assert cli.main(["certify", *source, "--r", "1"]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, n, message",
        [
            ("linear_hyperbolic", 5, "builtin 'linear_hyperbolic' has dimension 3 only, got n = 5"),
            ("lightcone", 1, "builtin 'lightcone' needs n >= 2, got 1"),
            ("conformal_flat", 0, "builtin 'conformal_flat' needs n >= 1, got 0"),
        ],
    )
    def test_dimension_a_builtin_lacks_is_two(self, name, n, message, capsys):
        assert cli.main(["certify", "--builtin", name, "--n", str(n), "--r", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_builtin_reference_field_it_ignores_is_two(self, tmp_path, capsys):
        doc = {
            "builtin": "conformal_flat", "n": 3, "domain": [[0.5, 0.9]] * 3,
            "interval": [1, 3], "kind": "lightlike",
        }
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        assert cli.main(["certify", "--chart", str(chart), "--r", "1"]) == 2
        assert "reads only builtin, n and params, not domain, interval, kind" in (
            capsys.readouterr().err
        )

    def test_prolong_order_above_size_cap_is_two_before_solving(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("an order above the size cap was solved")

        monkeypatch.setattr(cli, "finite_type", no_solve)
        monkeypatch.setattr(cli, "prolongation_space", no_solve)
        assert cli.main(["prolong", "--algebra", "so", "--n", "13"]) == 2
        assert "order 3 would have 23660 unknowns (cap 20000)" in capsys.readouterr().err
        monkeypatch.setattr(cli, "SIZE_CAP", 20)
        monkeypatch.setattr(prolongation, "SIZE_CAP", 20)
        assert cli.main(["prolong", "--algebra", "so", "--n", "3"]) == 2
        assert "order 3 would have 45 unknowns (cap 20)" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", [1100, 3000000])
    def test_non_finite_grid_value_is_two(self, exponent, tmp_path, capsys):
        # 1 + r^e overflows a float at the larger grid values of r
        doc = {
            "kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
            "entries": [{"i": 0, "j": 0, "num": [["1", [0, 0]], ["1", [0, exponent]]]}],
        }
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        code = cli.main(["certify", "--chart", str(chart), "--r", "1.5", "--point", "0"])
        assert code == 2
        first = "(-1.0, 2.0)" if exponent == 1100 else "(-1.0, 1.25)"
        assert f"not finite at grid point {first}" in capsys.readouterr().err

    def test_numerical_failure_is_three(self, monkeypatch, capsys):
        def no_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert cli.main(["braid", "--n", "3"]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_overflowing_form_is_two(self, capsys):
        assert cli.main(["braid", "--n", "2", "--J", "[[1e308,1e308],[1e308,1e308]]"]) == 2
        err = capsys.readouterr().err
        assert "form's symmetrization (m + m^T) / 2 overflows" in err
        assert "did not converge" not in err

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"epsilon": float("inf")}, "cannot interpret inf as an exact rational"),
            ({"epsilon": True}, "cannot interpret True as an exact rational"),
            ({"epsilon": "1e400"}, "entry (1, 1) has a coefficient out of float range"),
            ({"interval": [0.5, float("inf")]}, "interval end must be finite, got inf"),
            ({"interval": [True, 2]}, "interval end must be a number, got True"),
            ({"domain": [[-1, 1], [-1, 1], ["-1", 1]]}, "domain side 2 end must be a number"),
        ],
    )
    def test_invalid_builtin_number_is_two(self, params, message):
        argv = ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r", "1",
                "--params", _json_text(params)]
        code, err = _main_exit(argv)
        assert code == 2, err
        assert message in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("domain", [[-1, float("inf")]], "domain side 0 end must be finite, got inf"),
            ("domain", [[False, 1]], "domain side 0 end must be a number, got False"),
            ("interval", [0.5, float("inf")], "interval end must be finite, got inf"),
            ("interval", [float("nan"), 2], "interval end must be finite, got nan"),
            ("coefficient", "1e400", "entry (0, 0) has a coefficient out of float range"),
            ("coefficient", float("inf"), "cannot interpret inf as an exact rational"),
            ("coefficient", True, "cannot interpret True as an exact rational"),
            ("coefficient", "1/0", "cannot interpret '1/0' as an exact rational"),
            ("exponent", True, "exponent must be an integer, got True"),
            ("exponent", float("inf"), "exponent must be an integer, got inf"),
            ("exponent", 0.5, "exponent must be an integer, got 0.5"),
            ("exponent", 2**70, "a chart exponent is out of the 64-bit integer range"),
            ("den", "0", "entry (0, 0): denominator polynomial is identically zero"),
            ("n", True, "chart n must be an integer, got True"),
        ],
    )
    def test_invalid_chart_number_is_two(self, field, value, message, tmp_path):
        # the metric r on [-1, 1] x [0.5, 2] with one field replaced
        doc = {"kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
               "entries": [{"i": 0, "j": 0, "num": [["1", [0, 1]]]}]}
        term = doc["entries"][0]["num"][0]
        if field == "coefficient":
            term[0] = value
        elif field == "exponent":
            term[1][0] = value
        elif field == "den":
            doc["entries"][0]["den"] = [[value, [0, 0]]]
        else:
            doc[field] = value
        chart = tmp_path / "chart.json"
        chart.write_text(_json_text(doc))
        for command in ("certify", "lightlike"):
            code, err = _main_exit([command, "--chart", str(chart), "--r", "1", "--point", "0"])
            assert code == 2, err
            assert message in err


def _matrix_spec(data, label):
    """A --J/--Jp/--R value: a named form, a diag: list or a JSON matrix whose
    entries may be strings, booleans or NaN and whose rows may be ragged."""
    kind = data.draw(st.sampled_from(["identity", "minkowski", "diag", "json"]), label=label)
    if kind == "diag":
        entries = data.draw(st.lists(st.sampled_from(["1", "-1", "0", "0.5"]), max_size=3))
        return "diag:" + ",".join(entries)
    if kind != "json":
        return kind
    entry = st.one_of(
        st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([0.5, float("nan"), True, "1"])
    )
    size = data.draw(st.integers(0, 3))
    row = st.lists(entry, min_size=size, max_size=size)
    if data.draw(st.integers(0, 3)) == 0:
        row = st.lists(entry, max_size=3)  # ragged rows
    return json.dumps(data.draw(st.lists(row, min_size=size, max_size=size)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_braid_and_prolong_argv_exit_zero_or_two(data):
    n = ["--n", str(data.draw(st.integers(0, 3), label="n"))]
    if data.draw(st.booleans(), label="braid"):
        variant = data.draw(
            st.sampled_from(["generalized", "classical", "symskew"]), label="variant"
        )
        argv = ["braid", "--variant", variant, *n]
        argv += ["--J", _matrix_spec(data, "J"), "--Jp", _matrix_spec(data, "Jp")]
    else:
        algebra = data.draw(
            st.sampled_from(["so", "co", "lightlike_orth", "one_param", "custom"]), label="algebra"
        )
        argv = ["prolong", "--algebra", algebra, *n]
        argv += ["--max-order", str(data.draw(st.integers(-1, 4), label="max-order"))]
        if algebra == "one_param":
            argv += ["--R", _matrix_spec(data, "R")]
        elif algebra == "custom":
            argv += ["--generators", "[" + _matrix_spec(data, "generator") + "]"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


#: Numbers beyond the float range (JSON spells the infinities 1e400 and
#: -1e400), a numeric string, a boolean and NaN.
_BAD_NUMBERS = [float("inf"), float("-inf"), "1e400", True, float("nan")]
_BAD_TEXT = ["1e400", "-1e400", "nan", "true", "0.25"]
_FAULTS = ["none", "none", "none", "interval", "domain", "epsilon", "coefficient", "exponent",
           "point", "r"]


def _chart_argv(data, n, fault):
    """``--builtin`` with ``--params`` or the text of a chart document, and
    the chart's base dimension; the sites of kind ``fault`` may hold a bad
    number instead of a plain one."""

    def number(site, plain):
        if site == fault and data.draw(st.booleans(), label=f"bad {site}"):
            return data.draw(st.sampled_from(_BAD_NUMBERS), label=site)
        return plain

    if data.draw(st.booleans(), label="builtin"):
        names = ["conformal_flat", "product_nonrigid", "linear_hyperbolic", "lightcone"]
        name = data.draw(st.sampled_from(names), label="name")
        sides = 3 if name == "linear_hyperbolic" else n
        params = {
            "interval": [number("interval", 0.5), number("interval", 1)],
            "domain": [[number("domain", -0.5), number("domain", 0.5)] for _ in range(sides)],
        }
        if name == "product_nonrigid":
            params["epsilon"] = number("epsilon", 0.5)
        argv = ["--builtin", name, "--n", str(n + (name == "lightcone")),
                "--params", _json_text(params)]
        return argv, None, sides
    kind = data.draw(st.sampled_from(["gcs", "gcs", "lightlike"]), label="kind")
    entries = [
        {"i": i, "j": i,
         "num": [[number("coefficient", "1/2"), [*(number("exponent", 0) for _ in range(n)),
                                                 number("exponent", 1)]]]}
        for i in range(n)
    ]  # the metric r Id / 2
    doc = {
        "kind": kind,
        "n": n + (kind == "lightlike"),
        "domain": [[number("domain", -1), number("domain", 1)] for _ in range(n)],
        "interval": [number("interval", 0.5), number("interval", 2)],
        "entries": entries,
    }
    return [], _json_text(doc), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_certify_and_lightlike_argv_exit_zero_or_two(data):
    n = data.draw(st.integers(1, 3), label="n")
    fault = data.draw(st.sampled_from(_FAULTS), label="fault")
    command = data.draw(st.sampled_from(["certify", "lightlike"]), label="command")
    chart_argv, chart_text, base = _chart_argv(data, n, fault)
    point = ["0"] * base
    if fault == "point":
        point[data.draw(st.integers(0, base - 1))] = data.draw(st.sampled_from(_BAD_TEXT))
    r = data.draw(st.sampled_from(_BAD_TEXT), label="r") if fault == "r" else "0.75"
    argv = [command, *chart_argv, "--grid", str(data.draw(st.integers(2, 5), label="grid")),
            "--point=" + ",".join(point), "--r=" + r]
    with tempfile.TemporaryDirectory() as tmp:
        if chart_text is not None:
            chart = Path(tmp) / "chart.json"
            chart.write_text(chart_text)
            argv[1:1] = ["--chart", str(chart)]
        code, err = _main_exit(argv)
    assert code in (0, 2), (argv, chart_text, err)
    assert "Traceback" not in err


def test_benchmark_tracer_wraps_existing_names(tmp_path):
    # the benchmark tracer wraps package functions by name; one job of each
    # kind it times must run under it
    script = f"""
import sys
sys.path[:0] = [{str(TESTS_DIR.parent / "bench")!r}, {str(TESTS_DIR.parent / "src")!r}]
from tracer import Tracer
from rigidity_lab import cli
Tracer().install()
jobs = [
    ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1"],
    ["lightlike", "--builtin", "lightcone", "--n", "4", "--point", "0.1,0,0", "--r", "1"],
    ["braid", "--n", "3", "--J", "identity", "--Jp", "diag:1,0,0"],
    ["prolong", "--algebra", "so", "--n", "3", "--max-order", "2"],
    ["symspace", "--curve", {CURVE_FILE!r}, "--resample", "33"],
]
codes = [cli.main(job + ["--output", {str(tmp_path)!r} + f"/{{k}}.json"]) for k, job in enumerate(jobs)]
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"


def _curve_doc(values, closed=False):
    """Curve document with 1x1 samples ``[[v]]`` at t = 0, 1, 2, ..."""
    return {
        "closed": closed,
        "samples": [{"t": float(k), "matrix": [[v]]} for k, v in enumerate(values)],
    }


def _run_curve(doc, tmp_path, extra=()):
    """Exit code, stderr and report of ``symspace`` on a curve document, in process."""
    curve = tmp_path / "curve.json"
    out = tmp_path / "report.json"
    curve.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["symspace", "--curve", str(curve), "--output", str(out), *extra])
    return code, err.getvalue(), json.loads(out.read_text()) if code == 0 else None


def _with_sample_1(where, value):
    """The curve [[1]], [[2]], [[3]] with the t or the matrix entry of sample 1 replaced."""
    doc = _curve_doc([1, 2, 3])
    if where == "t":
        doc["samples"][1]["t"] = value
    else:
        doc["samples"][1]["matrix"] = [[value]]
    return doc


class TestCurveDocuments:
    """Every curve document ends with exit 0 and finite numbers, or exit 2."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (_with_sample_1("matrix", float("nan")), "sample 1: matrix has a non-finite"),
            (_with_sample_1("matrix", float("-inf")), "sample 1: matrix has a non-finite"),
            (_with_sample_1("matrix", 1.7e308), "sample 1: matrix has a non-finite"),
            (_with_sample_1("matrix", -1.0), "sample 1: matrix is not positive definite"),
            (_with_sample_1("t", float("nan")), "sample 1: parameter is not finite"),
            (_with_sample_1("t", float("inf")), "sample 1: parameter is not finite"),
            (_with_sample_1("t", 0.0), "sample 1: curve parameters must be strictly"),
            (_with_sample_1("t", 10**400), "out of float range"),
            (_with_sample_1("t", "0.5"), 'sample 1: parameter is no number: "0.5"'),
            (_with_sample_1("t", True), "sample 1: parameter is no number: true"),
            (_with_sample_1("matrix", "2"), 'matrix row 0 has an entry that is no number: "2"'),
            (_with_sample_1("matrix", True), "matrix row 0 has an entry that is no number: true"),
            (_with_sample_1("matrix", None), "matrix row 0 has an entry that is no number: null"),
            (_curve_doc([1, 2, 1.5], closed=True), "closed curve endpoints differ"),
            ('{"samples": [{"t": 0, "matrix": [[1]]}, {"t": 1, "matrix": [[1, 0], [0, 1]]}]}',
             "sample 1: matrix has shape (2, 2), sample 0 has (1, 1)"),
            ('{"samples": [{"t": 0, "matrix": [[1, 0], [0, 1]]}, {"t": 1, "matrix": [[1, 0], [0]]}]}',
             "sample 1: matrix row 1 has 1 entries, row 0 has 2"),
            ({**_curve_doc([1, 2, 3]), "closed": "false"}, "'closed' must be true or false"),
            ({**_curve_doc([1, 2, 1]), "closed": 1}, "'closed' must be true or false"),
            ('{"samples": [{"t": 0, "matrix": [[1, 0]]}, {"t": 1, "matrix": [[2, 0]]}]}',
             "square"),
            ('["samples"]', "JSON object"),
        ],
    )
    def test_invalid_document_is_two(self, doc, message, tmp_path):
        code, err, _ = _run_curve(doc, tmp_path)
        assert code == 2
        assert message in err

    def test_overflowing_speed_is_two(self, tmp_path):
        doc = {"samples": [{"t": 0.0, "matrix": [[1.0]]}, {"t": 5e-324, "matrix": [[2.0]]}]}
        code, err, _ = _run_curve(doc, tmp_path)
        assert code == 2
        assert "sample 0: speed overflows" in err

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_documents_exit_zero_or_two(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        count = data.draw(st.integers(2, 6), label="samples")
        closed = data.draw(st.booleans(), label="closed")
        # mostly plain values; the extremes reach overflowing speeds and lengths
        scale = data.draw(st.sampled_from([1.0, 1.0, 1e-150, 1e300]), label="scale")
        stretch = data.draw(st.sampled_from([1.0, 1.0, 5e-324, 1e200]), label="stretch")
        steps = data.draw(
            st.lists(st.sampled_from([0.25, 1.0, 3.0]), min_size=count, max_size=count),
            label="steps",
        )
        entries = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))
        samples = []
        for k in range(count):
            a = np.reshape(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)), (n, n))
            matrix = scale * (a @ a.T + 0.5 * np.eye(n))
            samples.append({"t": stretch * sum(steps[: k + 1]), "matrix": matrix.tolist()})
        if closed and count >= 2:
            samples[-1]["matrix"] = samples[0]["matrix"]
        doc = {"closed": closed, "samples": samples}
        junk = st.one_of(
            st.floats(),  # NaN and infinities serialize as JSON literals
            st.integers(-(10**400), 10**400),
            st.text(max_size=3),
            st.none(),
            st.booleans(),
            st.lists(st.integers(0, 3), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        )
        k = data.draw(st.integers(0, count - 1), label="target")
        fault = data.draw(
            st.sampled_from(["none", "none", "none", "entry", "t", "ragged", "non-square",
                             "dimension", "decreasing", "endpoint", "sample", "key", "samples",
                             "document"]),
            label="fault",
        )
        target = samples[k]
        if fault == "entry":
            target["matrix"][data.draw(st.integers(0, n - 1))][0] = data.draw(junk)
        elif fault == "t":
            target["t"] = data.draw(junk)
        elif fault == "ragged":
            target["matrix"][0] = target["matrix"][0][:-1] or [[1.0]]
        elif fault == "non-square":
            target["matrix"] = target["matrix"][:-1] or [[]]
        elif fault == "dimension":
            target["matrix"] = np.eye(n + 1).tolist()
        elif fault == "decreasing":
            target["t"] = samples[k - 1]["t"] if k else samples[1]["t"]
        elif fault == "endpoint":
            doc["closed"] = True
            samples[-1]["matrix"] = (2.0 * np.array(samples[-1]["matrix"])).tolist()
        elif fault == "sample":
            samples[k] = data.draw(junk)
        elif fault == "key":
            del target[data.draw(st.sampled_from(["t", "matrix"]))]
        elif fault == "samples":
            doc["samples"] = data.draw(junk)
        elif fault == "document":
            doc = data.draw(junk)
        extra = data.draw(st.sampled_from([(), ("--resample", "2"), ("--resample", "7")]))
        with tempfile.TemporaryDirectory() as tmp:
            code, err, report = _run_curve(doc, Path(tmp), extra)
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            numbers = json.dumps([report["length"], report.get("mean"), report.get("resampled")])
            assert "nan" not in numbers and "inf" not in numbers, numbers


class TestGridScans:
    """Each command validates its chart once, on the requested grid."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        original = gcs._scan_grid

        def counted(chart):
            calls.append((chart.n, chart.grid))
            return original(chart)

        monkeypatch.setattr(gcs, "_scan_grid", counted)
        return calls

    def test_certify_on_requested_grid(self, scans, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--grid", "4",
             "--r", "1", "--output", str(out)]
        )
        assert code == 0
        assert scans == [(3, 4)]
        assert json.loads(out.read_text())["chart_genericity"]["grid"] == 4

    def test_lightlike_lift_reuses_chart_scan(self, scans, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["lightlike", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
             "--output", str(out)]
        )
        assert code == 0
        assert scans == [(3, 5)]


#: The shared flags each command takes; every command also takes --output.
SHARED_FLAGS = {
    "certify": {"--tol", "--grid", "--kernel-basis"},
    "lightlike": {"--tol", "--grid", "--kernel-basis"},
    "braid": {"--tol", "--kernel-basis"},
    "prolong": {"--tol", "--seed"},
    "symspace": set(),
    "examples": set(),
}

#: A valid argv of each command.
RUNS = {
    "certify": ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1"],
    "lightlike": ["lightlike", "--builtin", "conformal_flat", "--n", "3", "--r", "1"],
    "braid": ["braid", "--n", "3"],
    "prolong": ["prolong", "--algebra", "so", "--n", "3"],
    "symspace": ["symspace", "--curve", CURVE_FILE],
    "examples": ["examples", "list"],
}

_FLAG_VALUES = {"--tol": ["0.5"], "--seed": ["5"], "--grid": ["8"], "--kernel-basis": []}

_REMOVED_FLAGS = [
    (command, flag)
    for command, flags in SHARED_FLAGS.items()
    for flag in sorted(set(_FLAG_VALUES) - flags)
]


class TestFlags:
    def test_each_command_takes_the_flags_it_reads(self):
        settable = 0
        for command, shared in SHARED_FLAGS.items():
            flags = _flags(command)
            assert flags & set(_FLAG_VALUES) == shared
            assert "--output" in flags
            settable += len(flags) + (command == "examples")  # the list positional
        assert settable == 41
        assert len(_REMOVED_FLAGS) == 14

    @pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
    def test_flag_a_command_does_not_read_is_usage_error(self, command, flag):
        code, err = _main_exit([*RUNS[command], flag, *_FLAG_VALUES[flag]])
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("name", ["symspace_orbit.json", "examples_list.txt"])
    def test_env_tolerance_ignored_without_tol(self, name):
        proc = run_cli(GOLDEN_CASES[name], env_extra={"RIGIDITY_LAB_TOL": "abc"})
        assert proc.stdout == (GOLDEN_DIR / name).read_bytes()

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "identity",
             "--output", str(out)]
        )
        doc = json.loads(out.read_text())
        assert doc["report"]["kernel_dim"] == 0

    def test_env_tolerance_recorded(self):
        proc = run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "identity"],
            env_extra={"RIGIDITY_LAB_TOL": "1e-8"},
        )
        doc = json.loads(proc.stdout)
        assert doc["tolerances"]["kernel_tol"] == 1e-8

    def test_flag_overrides_env(self):
        proc = run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "identity",
             "--tol", "1e-9"],
            env_extra={"RIGIDITY_LAB_TOL": "1e-8"},
        )
        assert json.loads(proc.stdout)["tolerances"]["kernel_tol"] == 1e-9

    def test_bad_env_tolerance_is_two(self):
        proc = run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "identity"],
            env_extra={"RIGIDITY_LAB_TOL": "not-a-float"},
            check=False,
        )
        assert proc.returncode == 2

    def test_kernel_basis_included(self):
        proc = run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "diag:1,0,0",
             "--kernel-basis"]
        )
        doc = json.loads(proc.stdout)
        assert len(doc["report"]["kernel_basis"]) == doc["report"]["kernel_dim"]
        assert doc["report"]["unknown_labels"]

    def test_report_embeds_reproduction_metadata(self):
        proc = run_cli(
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1", "--grid", "4"]
        )
        doc = json.loads(proc.stdout)
        assert doc["grid"] == 4
        assert doc["input_hash"]
        assert doc["input"]["chart"]["n"] == 3
        proc = run_cli(["prolong", "--algebra", "so", "--n", "3", "--seed", "5"])
        doc = json.loads(proc.stdout)
        assert doc["seed"] == 5
        assert doc["input"]["seed"] == 5


class TestCommands:
    def test_braid_classical_variant(self):
        proc = run_cli(
            ["braid", "--n", "4", "--J", "minkowski", "--variant", "classical"]
        )
        assert json.loads(proc.stdout)["report"]["kernel_dim"] == 0

    def test_braid_symskew_variant(self):
        proc = run_cli(["braid", "--n", "2", "--variant", "symskew"])
        assert json.loads(proc.stdout)["report"]["kernel_dim"] == 0

    def test_prolong_infinite_type_witness(self):
        proc = run_cli(
            ["prolong", "--algebra", "one_param",
             "--R", "[[0,1,0],[0,0,0],[0,0,0]]", "--max-order", "3"]
        )
        doc = json.loads(proc.stdout)
        assert doc["type"]["kind"] == "infinite"
        assert doc["type"]["witness"]["sigma_ratio"] < 1e-8
        assert doc["prolongation_dims"] == {"1": 1, "2": 1, "3": 1}

    def test_prolong_so_finite(self):
        proc = run_cli(["prolong", "--algebra", "so", "--n", "3", "--max-order", "2"])
        doc = json.loads(proc.stdout)
        assert doc["type"] == {
            "kind": "finite", "order": 1,
            "dims": {"1": 0, "2": 0}, "verified_next_order": 2,
        }

    def test_prolong_rank1_search_same_bytes_across_threads(self):
        # lightlike_orth n=5 has 3^11 sign patterns, so its witness comes
        # from the batched alternating solve, not the scan
        args = ["prolong", "--algebra", "lightlike_orth", "--n", "5"]
        single = run_cli(args, threads="1").stdout
        assert single == run_cli(args, threads="2").stdout
        assert json.loads(single)["type"]["kind"] == "infinite"

    @pytest.mark.parametrize(
        "name, dims", [("co", {"1": 8, "2": 0, "3": 0}), ("so", {"1": 0, "2": 0, "3": 0})]
    )
    def test_prolong_n8(self, name, dims, tmp_path):
        # the exact complements of so(8) and co(8) split the order-3
        # systems (2640 unknowns) into hundreds of small blocks
        out = tmp_path / "report.json"
        assert cli.main(["prolong", "--algebra", name, "--n", "8", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["prolongation_dims"] == dims
        assert doc["type"]["kind"] == "finite"

    def test_prolong_reuses_finite_type_spaces(self, monkeypatch, tmp_path):
        calls = []
        original = prolongation.prolongation_space

        def counted(h, d, **kwargs):
            calls.append(d)
            return original(h, d, **kwargs)

        monkeypatch.setattr(prolongation, "prolongation_space", counted)
        monkeypatch.setattr(cli, "prolongation_space", counted)
        out = tmp_path / "report.json"
        code = cli.main(["prolong", "--algebra", "co", "--n", "4", "--output", str(out)])
        assert code == 0
        # finite_type solves orders 1, 2 and the verifying order 3; the
        # report's dims reuse them
        assert calls == [1, 2, 3]
        # the bytes written when every order was solved a second time, less
        # the grid line of a flag prolong does not take
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "b39c0c143572499542ae9e68d123bc80b449d2b022a4c6eeb4cd3b8b4237c60f"

    def test_certify_with_chart_file(self, tmp_path):
        doc = {"builtin": "conformal_flat", "n": 3}
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        proc = run_cli(["certify", "--chart", str(chart), "--r", "1"])
        assert json.loads(proc.stdout)["verdict"] == "2-rigid"

    def test_lightlike_lifts_gcs_builtin(self):
        proc = run_cli(
            ["lightlike", "--builtin", "conformal_flat", "--n", "3",
             "--point", "0,0,0", "--r", "1"]
        )
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "(3,1) sub-rigid"
        assert doc["dimension"] == 4
        assert doc["unconstrained_jet_components"]

    def test_lightlike_native_builtin(self):
        proc = run_cli(
            ["lightlike", "--builtin", "lightcone", "--n", "4",
             "--point", "0.1,0,0", "--r", "1"]
        )
        assert json.loads(proc.stdout)["verdict"] == "(3,1) sub-rigid"

    def test_symspace_mean_of_orbit(self):
        proc = run_cli(["symspace", "--curve", CURVE_FILE])
        doc = json.loads(proc.stdout)
        assert doc["closed"] is True
        mean = doc["mean"]
        assert abs(mean[0][0] - 1.5) < 1e-5
        assert abs(mean[0][1]) < 1e-5
