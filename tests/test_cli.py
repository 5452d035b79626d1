import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidity_lab import __version__, braid, cli, gcs, prolongation, reportio

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"
CURVE_FILE = str(TESTS_DIR / "data" / "rotation_orbit.json")
RATIONAL_CHART_FILE = str(TESTS_DIR / "data" / "chart_rational.json")
LIGHTLIKE_CHART_FILE = str(TESTS_DIR / "data" / "chart_lightlike.json")

# a dense indefinite pair whose pencil has a complex conjugate pair of
# eigenvalues: the report carries the normal form's evidence
DENSE_J4 = "[[2,0.25,-0.125,0.1],[0.25,-2.5,0.2,0.05],[-0.125,0.2,2.2,-0.15],[0.1,0.05,-0.15,-2.8]]"
DENSE_JP4 = "[[-2.4,0.2,0.1,-0.25],[0.2,2.6,-0.1,0.15],[0.1,-0.1,-2.1,0.2],[-0.25,0.15,0.2,2.9]]"

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
    "braid_dense_pencil.json": [
        "braid", "--n", "4", "--J", DENSE_J4, "--Jp", DENSE_JP4,
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


#: Reports with a chart in their input: the goldens that have one, lifted
#: builtins, builtin params and a builtin of fixed dimension.
CHART_REPORTS = {
    **{name: GOLDEN_CASES[name] for name in sorted(GOLDEN_CASES)
       if name.startswith(("certify_", "lightlike_"))},
    "lightlike_conformal_flat": [
        "lightlike", "--builtin", "conformal_flat", "--n", "3", "--point", "0.5,0,0", "--r", "1",
    ],
    "lightlike_linear_hyperbolic": [
        "lightlike", "--builtin", "linear_hyperbolic", "--point", "0,0,0", "--r", "0.5",
    ],
    "certify_product_nonrigid_epsilon": [
        "certify", "--builtin", "product_nonrigid", "--n", "3", "--params", '{"epsilon": "1/3"}',
        "--r", "1",
    ],
    "certify_linear_hyperbolic": ["certify", "--builtin", "linear_hyperbolic", "--r", "0.5"],
    "lightlike_lightcone": ["lightlike", "--builtin", "lightcone", "--n", "4", "--r", "1"],
}


@pytest.mark.parametrize("name", sorted(CHART_REPORTS))
def test_report_reruns_from_its_input_chart(name, tmp_path):
    argv = CHART_REPORTS[name]
    code, report = _main_report(argv, tmp_path)
    assert code == 0
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(json.loads(report)["input"]["chart"]))
    rerun = [argv[0], "--chart", str(chart)]
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in ("--builtin", "--n", "--params", "--chart"):
            rerun += [flag, value]
    assert _main_report(rerun, tmp_path) == (0, report)


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


_NOT_AN_OBJECT = "params must be a JSON object of parameter names to values"


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
             "0f8b345c4a5bc476023d150e389daca2df381d6e540547483fbaf209469545c1"),
        ],
    )
    def test_omitted_flags_take_parser_defaults(self, argv, explicit, digest, tmp_path):
        code, omitted = _main_report(argv, tmp_path)
        assert code == 0
        assert _main_report([*argv, *explicit], tmp_path) == (0, omitted)
        # the bytes these commands wrote when the handlers held the defaults,
        # less the seed and grid lines of flags they do not take (prolong's
        # seed went with its flag)
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


def test_package_import_loads_no_submodule_or_numpy():
    # the package namespace holds only __version__; entry points are
    # imported from their modules
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rigidity_lab\n"
         "print(rigidity_lab.__version__)\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.startswith('rigidity_lab.') or m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split("\n")[:2] == ["0.1.0", "[]"]


def test_runs_load_no_openssl_or_numpy_ma():
    # input_hash comes from the builtin SHA-256 and no command draws random
    # numbers: hashlib, and numpy.random through secrets and hmac, would map
    # OpenSSL's libcrypto through _hashlib; numpy.ma comes in with
    # the first call of np.unique (and so np.setdiff1d), which no command needs;
    # the two chart documents have off-diagonal entries, so their scans
    # take the elimination and eigvalsh branch
    charts = [GOLDEN_CASES[name] for name in (
        "certify_chart_rational.json", "lightlike_chart_document.json"
    )]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, json, sys\n"
         "from rigidity_lab import cli\n"
         "for argv in (*json.loads(sys.argv[2]),\n"
         "             ['certify', '--builtin', 'conformal_flat', '--n', '3', '--r', '1'],\n"
         "             ['lightlike', '--builtin', 'lightcone', '--n', '4', '--r', '1'],\n"
         "             ['braid', '--n', '6'], ['braid', '--variant', 'classical', '--n', '4'],\n"
         "             ['braid', '--variant', 'symskew', '--n', '3'],\n"
         "             ['prolong', '--algebra', 'co', '--n', '4'],\n"
         "             ['prolong', '--algebra', 'lightlike_orth', '--n', '5'],\n"
         "             ['prolong', '--algebra', 'one_param', '--R', '[[0,1,0],[0,0,0],[0,0,0]]'],\n"
         "             ['symspace', '--curve', sys.argv[1], '--resample', '33'],\n"
         "             ['examples', 'list']):\n"
         "    with contextlib.redirect_stdout(io.StringIO()):\n"
         "        assert cli.main(argv) == 0, argv\n"
         "print(sorted(m for m in ('_hashlib', 'secrets', 'numpy.random', 'numpy.ma')\n"
         "             if m in sys.modules))",
         CURVE_FILE, json.dumps(charts)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_hashlib_fallback_gives_each_golden_input_hash():
    # with the builtin modules blocked, reportio falls back to hashlib
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, pathlib, sys\n"
         "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
         "from rigidity_lab import reportio\n"
         "assert reportio._sha256.__module__ == '_hashlib', reportio._sha256\n"
         "hashes = {}\n"
         "for path in sys.argv[1:]:\n"
         "    doc = json.loads(pathlib.Path(path).read_text())\n"
         "    hashes[path] = [doc['input_hash'], reportio.input_hash(doc['input'])]\n"
         "print(json.dumps(hashes))",
         *sorted(str(p) for p in GOLDEN_DIR.glob("*.json"))],
        capture_output=True, text=True, check=True,
    )
    hashes = json.loads(proc.stdout)
    assert len(hashes) == len([c for c in GOLDEN_CASES if c.endswith(".json")])
    for path, (golden, fallback) in hashes.items():
        assert fallback == golden, path


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
            (["--algebra", "so", "--n", "3", "--R", "[[1]]", "--generators", "[[[1]]]"],
             "--R is read only by --algebra one_param, not so"),
            (["--algebra", "so", "--n", "3", "--generators", "[[[1]]]"],
             "--generators is read only by --algebra custom, not so"),
            (["--algebra", "custom", "--R", "[[1]]", "--generators", "[[[1]]]"],
             "--R is read only by --algebra one_param, not custom"),
            (["--algebra", "one_param", "--R", "[[1,0],[0,1]]", "--generators", "[[[1]]]"],
             "--generators is read only by --algebra custom, not one_param"),
            (["--algebra", "one_param", "--n", "3", "--R", "[[1,0],[0,1]]"],
             "--n 3 differs from the dimension 2 of the algebra"),
            (["--n", "4", "--generators", "[[[1,0],[0,1]]]"],
             "--n 4 differs from the dimension 2 of the algebra"),
            (["--algebra", "one_param", "--n", "40", "--R", "[[1,0],[0,1]]"],
             "--n 40 differs from the dimension 2 of the algebra"),
            (["--algebra", "co", "--n", "0"], "algebra 'co' needs n >= 1, got 0"),
            (["--algebra", "co", "--n", "-2"], "algebra 'co' needs n >= 1, got -2"),
            (["--algebra", "so", "--n", "0"], "algebra 'so' needs n >= 1, got 0"),
            (["--algebra", "lightlike_orth", "--n", "-1"],
             "algebra 'lightlike_orth' needs n >= 1, got -1"),
            (["--algebra", "so", "--n", "1"], "so(1) is the zero algebra"),
            (["--generators", "5"], "--generators must be a JSON list of matrices"),
            (["--generators", '{"0": [[1]]}'], "--generators must be a JSON list of matrices"),
            (["--algebra", "one_param", "--R", "[[1,2]]"],
             "R must be square, got shape (1, 2)"),
            (["--algebra", "foo"], "unknown algebra name 'foo'"),
        ],
    )
    def test_invalid_algebra_input_is_two(self, args, message, capsys):
        assert cli.main(["prolong", *args]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
              "--r-samples", "0.5,2"], "--r is not read next to --r-samples"),
            (["certify", "--chart", RATIONAL_CHART_FILE, "--builtin", "conformal_flat",
              "--r", "1"], "--builtin is not read next to --chart"),
            (["certify", "--chart", RATIONAL_CHART_FILE, "--n", "3", "--r", "1"],
             "--n is not read next to --chart"),
            (["certify", "--chart", RATIONAL_CHART_FILE, "--params", "{}", "--r", "1"],
             "--params is not read next to --chart"),
            (["lightlike", "--chart", LIGHTLIKE_CHART_FILE, "--n", "4", "--r", "1"],
             "--n is not read next to --chart"),
            (["lightlike", "--chart", LIGHTLIKE_CHART_FILE, "--builtin", "lightcone",
              "--r", "1"], "--builtin is not read next to --chart"),
            (["braid", "--n", "5", "--J", "diag:1,2,3", "--Jp", "diag:1,2,3"],
             "--n 5 differs from the dimension 3 of --J"),
            (["braid", "--n", "3", "--Jp", "[[1,0],[0,1]]"],
             "--n 3 differs from the dimension 2 of --Jp"),
            (["braid", "--variant", "classical", "--n", "2", "--J", "diag:1,2,3"],
             "--n 2 differs from the dimension 3 of --J"),
            (["braid", "--variant", "symskew", "--n", "2", "--J", "diag:1,2,3", "--Jp", "[[1]]"],
             "--J is not read by braid --variant symskew"),
            (["braid", "--variant", "symskew", "--n", "2", "--Jp", "identity"],
             "--Jp is not read by braid --variant symskew"),
            (["braid", "--variant", "classical", "--n", "2", "--Jp", "identity"],
             "--Jp is not read by braid --variant classical"),
            (["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
              "--point", "0.5,,0,0"], "cannot parse float list from '0.5,,0,0'"),
            (["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
              "--point", "0.1,0.2,0.3,"], "cannot parse float list from '0.1,0.2,0.3,'"),
            (["certify", "--builtin", "conformal_flat", "--n", "3", "--r-samples", "1,,2"],
             "cannot parse float list from '1,,2'"),
            (["braid", "--variant", "classical", "--J", "diag:1,,2"],
             "cannot parse float list from '1,,2'"),
            (["braid", "--n", "-1"], "--n -1: form has dimension -1, need at least 1"),
            (["braid", "--n", "0"], "--n 0: form has dimension 0, need at least 1"),
            (["braid", "--variant", "classical", "--J", "minkowski", "--n", "-1"],
             "--n -1: form has dimension -1, need at least 1"),
        ],
    )
    def test_invalid_flag_pair_is_two(self, argv, message):
        # a flag the run would not read, or an empty field of a list, is
        # refused, not dropped
        code, err = _main_exit(argv)
        assert code == 2, err
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

        monkeypatch.setattr(gcs, "_compile_program", no_compile)
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

        monkeypatch.setattr(prolongation, "prolongation_space", no_solve)
        monkeypatch.setattr(prolongation, "find_rank1", no_solve)
        assert cli.main(["prolong", "--algebra", "so", "--n", "13"]) == 2
        assert "order 3 would have 23660 unknowns (cap 20000)" in capsys.readouterr().err
        monkeypatch.setattr(prolongation, "SIZE_CAP", 20)
        assert cli.main(["prolong", "--algebra", "so", "--n", "3"]) == 2
        assert "order 3 would have 45 unknowns (cap 20)" in capsys.readouterr().err

    def test_prolong_above_size_cap_is_two_before_the_algebra(self, monkeypatch, capsys):
        def no_algebra(*args, **kwargs):
            raise AssertionError("the algebra of an oversized run was built")

        monkeypatch.setattr(prolongation, "builtin_algebra", no_algebra)
        monkeypatch.setattr(cli, "builtin_algebra", no_algebra)
        assert cli.main(["prolong", "--algebra", "so", "--n", "40"]) == 2
        assert "order 3 would have 4936400 unknowns (cap 20000)" in capsys.readouterr().err
        assert cli.main(["prolong", "--algebra", "co", "--n", "3", "--max-order", "6"]) == 2
        assert "max_order must be in 1..5, got 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variant, n, unknowns",
        [
            ("classical", 1_000_000, 500_000_500_000_000_000),
            ("classical", 100, 505_000),
            ("symskew", 200, 1_600_000_000),
            ("symskew", 27, 531_441),
            ("generalized", 41, 506_842),
        ],
    )
    def test_oversized_braid_is_two_before_any_form(self, variant, n, unknowns, monkeypatch):
        def nothing_built(*args, **kwargs):
            raise AssertionError("a form or system of an oversized braid run was built")

        for name in ("_parse_matrix", "trilinear_symskew_kernel"):
            monkeypatch.setattr(cli, name, nothing_built)
        code, err = _main_exit(["braid", "--variant", variant, "--n", str(n)])
        assert code == 2
        assert err == (
            f"error: the {variant} braid system at n = {n} would have {unknowns} unknowns "
            "(cap 500000); reduce n\n"
        )

    @pytest.mark.parametrize("variant", ["classical", "generalized"])
    def test_oversized_braid_form_is_two_before_any_system(self, variant, monkeypatch):
        # a diag: form sets n without --n; its system is refused before it is built
        monkeypatch.setattr(braid, "_normal_form_kernel", None)
        monkeypatch.setattr(braid, "_braid_rows", None)
        form = "diag:" + ",".join(["1"] * 100)
        argv = ["braid", "--variant", variant, "--J", form]
        code, err = _main_exit(argv + (["--Jp", form] if variant == "generalized" else []))
        assert code == 2
        assert "braid system at n = 100 would have" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "variant, n", [("generalized", 30), ("generalized", 40), ("symskew", 20), ("symskew", 26),
                       ("classical", 60), ("classical", 99)],
    )
    def test_braid_sizes_below_the_cap_pass_the_check(self, variant, n):
        braid.check_unknowns(variant, n)

    def test_oversized_resample_is_two_before_reparameterizing(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", None)
        code, err = _main_exit(["symspace", "--curve", CURVE_FILE, "--resample", "300000000"])
        assert code == 2
        assert err == (
            "error: 300000000 samples of 2 x 2 matrices would hold 1200000000 entries "
            "(cap 10000000); resample at fewer points\n"
        )

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array"),
             "error: out of memory: Unable to allocate 7.28 TiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
    )
    def test_memory_error_is_two(self, exc, line, monkeypatch):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "classical_braid_kernel", exhausted)
        assert _main_exit(["braid", "--variant", "classical", "--n", "3"]) == (2, line)

    @pytest.mark.parametrize("coefficient", ["1e290", "1e303"])
    def test_non_finite_grid_value_is_two(self, coefficient, tmp_path, capsys):
        # 1 + c r^64 overflows a float at the larger grid values of r
        doc = {
            "kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
            "entries": [{"i": 0, "j": 0, "num": [["1", [0, 0]], [coefficient, [0, 64]]]}],
        }
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        code = cli.main(["certify", "--chart", str(chart), "--r", "1.5", "--point", "0"])
        assert code == 2
        first = "(-1.0, 2.0)" if coefficient == "1e290" else "(-1.0, 1.25)"
        assert f"not finite at grid point {first}" in capsys.readouterr().err

    def test_exponent_above_cap_is_two_before_any_coefficient(
        self, monkeypatch, tmp_path, capsys
    ):
        def no_poly(*args, **kwargs):
            raise AssertionError("a coefficient was built")

        doc = {
            "kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
            "entries": [{"i": 0, "j": 0, "num": [["1", [1000000, 0]], ["1", [0, 1]]]}],
        }  # x^1000000 + r
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        monkeypatch.setattr(gcs.Poly, "from_terms", no_poly)
        assert cli.main(["certify", "--chart", str(chart), "--r", "1", "--point", "0"]) == 2
        assert "exponent 1000000 is above the cap of 64" in capsys.readouterr().err

    def test_singular_dense_form_is_zero_through_the_given_system(self, tmp_path):
        argv = ["braid", "--n", "3", "--J", "[[1,1,0],[1,1,0],[0,0,1]]",
                "--Jp", "[[2,0.5,0],[0.5,-1,0.25],[0,0.25,3]]"]
        code, report = _main_report(argv, tmp_path)
        assert code == 0
        doc = json.loads(report)["report"]
        assert "pencil" not in doc and doc["verdict"] == "non_rigid"

    def test_chart_document_unlike_its_builtin_is_two(self, tmp_path, capsys):
        doc = gcs.chart_to_doc(gcs.builtin_chart("conformal_flat", 3))
        doc["builtin"] = "product_nonrigid"
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        assert cli.main(["certify", "--chart", str(chart), "--r", "1"]) == 2
        assert (
            "chart document names builtin 'product_nonrigid' but does not match it in entries"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", None, "chart n must be an integer, got None"),
            ("domain", 5, "domain must be a list of sides, got 5"),
            ("interval", 5, "interval must be a pair [lo, hi], got 5"),
            ("entries", 5, "chart entries must be a list, got 5"),
            ("domain", [[-1], [-1, 1], [-1, 1]], "domain side 0 must be a pair [lo, hi], got [-1]"),
            ("interval", [0.5], "interval must be a pair [lo, hi], got [0.5]"),
            ("kind", "lightlike", "chart n must be at least 2 for a lightlike chart, got 0"),
        ],
    )
    def test_malformed_chart_field_is_named(self, field, value, message, tmp_path, monkeypatch,
                                            capsys):
        def no_entries(*args, **kwargs):
            raise AssertionError("coefficients read before the fields were checked")

        monkeypatch.setattr(gcs, "_doc_entries", no_entries)
        doc = json.loads(Path(RATIONAL_CHART_FILE).read_text())
        doc[field] = value
        if field == "kind":
            doc["n"] = 0
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        assert cli.main(["certify", "--chart", str(chart), "--r", "1"]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"i": 0, "j": 0}, "chart entry 0 is missing 'num'"),
            ({"i": 0, "num": [["1", [0, 1]]]}, "chart entry 0 is missing 'j'"),
            ({"i": 0, "j": 0, "num": [["1"]]},
             "chart entry 0: a 'num' term must be a pair [coefficient, exponents], got ['1']"),
            ({"i": 0, "j": 0, "num": [["1", [0, 1]]], "den": "1"},
             "chart entry 0: 'den' must be a list of terms, got '1'"),
        ],
    )
    def test_malformed_chart_entry_is_named(self, entry, message, tmp_path, capsys):
        doc = {"kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
               "entries": [entry]}
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        assert cli.main(["certify", "--chart", str(chart), "--r", "1"]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err

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
            ({"epsilon": "nan"}, "cannot interpret 'nan' as an exact rational"),
            ({"epsilon": "1e400"}, "entry (1, 1) has a coefficient out of float range"),
            ({"interval": [0.5, float("inf")]}, "interval end must be finite, got inf"),
            ({"interval": [True, 2]}, "interval end must be a number, got True"),
            ({"domain": [[-1, 1], [-1, 1], ["-1", 1]]}, "domain side 2 end must be a number"),
            ({"interval": 5}, "interval must be a pair [lo, hi], got 5"),
            ({"domain": 5}, "domain must be a list of sides, got 5"),
            ({"domain": [[-1, 1], [-1], [-1, 1]]}, "domain side 1 must be a pair [lo, hi], got [-1]"),
            ([1], f"{_NOT_AN_OBJECT}, got [1]"),
            ("x", f"{_NOT_AN_OBJECT}, got 'x'"),
            ([["epsilon", "1/2"]], f"{_NOT_AN_OBJECT}, got [['epsilon', '1/2']]"),
        ],
    )
    def test_invalid_builtin_number_is_two(self, params, message):
        argv = ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r", "1",
                "--params", _json_text(params)]
        code, err = _main_exit(argv)
        assert code == 2, err
        assert message in err

    @pytest.mark.parametrize("coeffs", ["12", 12, {"1": 2}], ids=["string", "number", "object"])
    def test_f_coeffs_not_a_list_is_two(self, coeffs):
        # a string would be read one character at a time
        argv = ["certify", "--builtin", "linear_hyperbolic", "--r", "0.5",
                "--params", _json_text({"f_coeffs": coeffs})]
        code, err = _main_exit(argv)
        assert code == 2, err
        assert f"parameter f_coeffs must be a list of coefficients, got {coeffs!r}" in err

    def test_chart_document_params_not_an_object_is_two(self, tmp_path):
        chart = tmp_path / "chart.json"
        chart.write_text('{"builtin": "product_nonrigid", "n": 3, "params": [1]}')
        code, err = _main_exit(["certify", "--chart", str(chart), "--r", "1"])
        assert code == 2, err
        assert f"{_NOT_AN_OBJECT}, got [1]" in err

    @pytest.mark.parametrize("listing", [False, True], ids=["reference", "listing"])
    def test_chart_document_builtin_not_a_name_is_two(self, listing, tmp_path):
        doc = {"builtin": [1], "n": 3}
        if listing:
            doc = {**gcs.chart_to_doc(gcs.builtin_chart("conformal_flat", 3)), "builtin": [1]}
        chart = tmp_path / "chart.json"
        chart.write_text(_json_text(doc))
        code, err = _main_exit(["certify", "--chart", str(chart), "--r", "1"])
        assert code == 2, err
        assert f"unknown builtin '[1]'; available: {', '.join(sorted(gcs.BUILTINS))}" in err

    @pytest.mark.parametrize("params", [{"epsilon": 1}, [1]])
    def test_custom_chart_document_with_params_is_two(self, params, tmp_path):
        # params are read only next to a builtin; a custom listing would drop them
        doc = {**json.loads(Path(RATIONAL_CHART_FILE).read_text()), "params": params}
        chart = tmp_path / "chart.json"
        chart.write_text(_json_text(doc))
        code, err = _main_exit(["certify", "--chart", str(chart), "--r", "1"])
        assert code == 2, err
        assert f"chart params are read only next to builtin, got {params!r}" in err

    def test_params_null_reads_as_no_parameters(self, tmp_path):
        # JSON's null is the one non-object the dict-or-None rule lets through
        argv = ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r", "1"]
        omitted = _main_report(argv, tmp_path)
        assert omitted[0] == 0
        assert _main_report([*argv, "--params", "null"], tmp_path) == omitted

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
            ("exponent", 2**70, f"exponent {2**70} is above the cap of 64"),
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

    def test_empty_denominator_is_two(self, tmp_path):
        # "den": [] lists no terms, the zero polynomial; only a missing or
        # null den reads as 1
        doc = {"kind": "gcs", "n": 1, "domain": [[-1, 1]], "interval": [0.5, 2],
               "entries": [{"i": 0, "j": 0, "num": [["1", [0, 1]]], "den": []}]}
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(doc))
        for command in ("certify", "lightlike"):
            code, err = _main_exit([command, "--chart", str(chart), "--r", "1", "--point", "0"])
            assert code == 2, err
            assert "entry (0, 0): denominator polynomial is identically zero" in err
        argv = ["certify", "--chart", str(chart), "--r", "1", "--point", "0"]
        doc["entries"][0]["den"] = None
        chart.write_text(json.dumps(doc))
        with_null = _main_report(argv, tmp_path)
        del doc["entries"][0]["den"]
        chart.write_text(json.dumps(doc))
        assert with_null[0] == 0
        assert _main_report(argv, tmp_path) == with_null


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
        if variant != "symskew":
            argv += ["--J", _matrix_spec(data, "J")]
        if variant == "generalized":
            argv += ["--Jp", _matrix_spec(data, "Jp")]
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


LARGE_SYSTEMS = {
    "prolong-so-12": (
        ["prolong", "--algebra", "so", "--n", "12"],
        {"kind": "finite", "order": 1, "dims": {"1": 0, "2": 0, "3": 0}},
    ),
    "prolong-co-12": (
        ["prolong", "--algebra", "co", "--n", "12"],
        {"kind": "finite", "order": 2, "dims": {"1": 12, "2": 0, "3": 0}},
    ),
    "braid-12": (["braid", "--n", "12"], {"verdict": "rigid", "projection_dims": {"A": 0, "K": 0}}),
}


class TestLargeSystems:
    """Sizes whose dense row matrices ran to gigabytes: so(12) and co(12) at
    order 3 are 28392 x 16380, and the n = 12 braid system is 6084 x 4446.
    They are solved from their nonzero entries."""

    @pytest.mark.parametrize("case", sorted(LARGE_SYSTEMS))
    def test_solved_in_process(self, case, tmp_path):
        argv, expected = LARGE_SYSTEMS[case]
        code, report = _main_report(argv, tmp_path)
        assert code == 0
        doc = json.loads(report)
        if argv[0] == "braid":
            assert doc["report"]["verdict"] == expected["verdict"]
            assert doc["report"]["projection_dims"] == expected["projection_dims"]
        else:
            assert doc["prolongation_dims"] == expected["dims"]
            assert doc["type"]["kind"] == expected["kind"]
            assert doc["type"]["order"] == expected["order"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_peak_memory(self, tmp_path):
        # a fresh process whose address space is capped at 1 GiB, so that a
        # dense row matrix fails at once instead of filling the machine; its
        # VmHWM, unlike getrusage's ru_maxrss, does not inherit the peak of
        # the process that started it
        script = f"""
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.path.insert(0, {str(TESTS_DIR.parent / "src")!r})
from rigidity_lab import cli
codes = [cli.main(argv + ["--output", {str(tmp_path)!r} + f"/{{k}}.json"])
         for k, argv in enumerate({[argv for argv, _ in LARGE_SYSTEMS.values()]!r})]
with open("/proc/self/status") as status:
    print(codes, re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        codes, peak_kib = proc.stdout.rsplit("]", 1)
        assert codes == "[0, 0, 0"
        assert int(peak_kib) < 100 * 1024


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


#: A ``_with_sample_1`` value that removes the field.
_DROP = object()


def _with_sample_1(where, value):
    """The curve [[1]], [[2]], [[3]] with field ``where`` of sample 1 set (the
    matrix to ``[[value]]``), or removed for ``_DROP``."""
    doc = _curve_doc([1, 2, 3])
    if value is _DROP:
        del doc["samples"][1][where]
    else:
        doc["samples"][1][where] = [[value]] if where == "matrix" else value
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
            (_with_sample_1("matrix", _DROP), "sample 1: missing field 'matrix'"),
            (_with_sample_1("t", _DROP), "sample 1: missing field 't'"),
            (_with_sample_1("weight", 1.0), "sample 1: unknown field 'weight'"),
            ({"samples": 5}, "curve field 'samples' must be a nonempty list of samples"),
            ({"samples": {"t": 0}}, "curve field 'samples' must be a nonempty list of samples"),
            ({"samples": [1]}, "sample 0 must be an object with fields 't' and 'matrix'"),
            ({"samples": [{"t": 0, "matrix": [[1]]}, [1, [[2]]]]},
             "sample 1 must be an object with fields 't' and 'matrix'"),
            (_curve_doc([1, 2, 1.5], closed=True), "closed curve endpoints differ"),
            (_curve_doc([1, 2, 1], closed=True), "a closed curve needs at least 4 samples, got 3"),
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

    def test_overflowing_parameter_span_is_two_without_warnings(self, tmp_path):
        doc = {"samples": [{"t": -1e308, "matrix": [[1]]}, {"t": 1e308, "matrix": [[2]]}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, _ = _run_curve(doc, tmp_path)
        assert code == 2
        assert err == "error: sample 1: parameter step overflows the float range\n"

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


def _curve_report_bytes(text, tmp_path, name="curve.json"):
    """The report bytes of ``symspace --resample 5`` on the curve file ``text``."""
    curve, out = tmp_path / name, tmp_path / f"report-{name}"
    curve.write_text(text)
    argv = ["symspace", "--curve", str(curve), "--resample", "5", "--output", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def _closed_spd_curve(samples, n):
    """A closed curve ``C(t) C(t)^T + I/2`` with a trigonometric C(t), to six
    decimals; the last sample is a copy of the first."""
    t = np.linspace(0.0, 1.0, samples)
    a = 2 * np.pi * t
    modes = np.cos(np.arange(5 * n * n).reshape(5, n, n) + 0.5)
    weights = np.stack([np.ones_like(a), np.cos(a), np.sin(a), np.cos(2 * a), np.sin(2 * a)], 1)
    c = np.einsum("sk,kij->sij", weights, modes)
    b = np.round(c @ c.transpose(0, 2, 1) + np.eye(n) / 2, 6)
    b[-1] = b[0]
    samples = [{"t": x, "matrix": m} for x, m in zip(t.tolist(), b.tolist())]
    return {"closed": True, "samples": samples}


def test_symspace_heap_peak_is_a_few_reports(tmp_path):
    """The Python heap a 2,000-sample symspace run allocates peaks below 2.6
    times its 0.98 MB report: the samples are read into arrays as they are
    parsed, and the report is written to the file run by run, never joined
    (about 1.8 times; 2.9 when the parsed curve and the joined report and
    its bytes were held, and 5 when the samples were written as a list of
    dicts)."""
    curve, out = tmp_path / "curve.json", tmp_path / "report.json"
    curve.write_text(json.dumps(_closed_spd_curve(2000, 3)))
    tracemalloc.start()
    try:
        code = cli.main(["symspace", "--curve", str(curve), "--resample", "2000",
                         "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out.stat().st_size
    assert size > 900_000
    assert peak <= 2.6 * size, (peak, size)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_symspace_resident_peak_is_a_few_reports(tmp_path):
    """In a fresh interpreter, after a small symspace run has loaded what
    the command needs, a 2,000-sample run raises the resident peak (VmHWM)
    by less than 3 times its report over the resident size just before it
    (about 1 time; 4.9 when the parsed curve, the input text twice, and the
    joined report and its bytes were all held)."""
    curve, out = tmp_path / "curve.json", tmp_path / "report.json"
    curve.write_text(json.dumps(_closed_spd_curve(2000, 3)))
    script = f"""
import re, sys
sys.path.insert(0, {str(TESTS_DIR.parent / "src")!r})
from rigidity_lab import cli
def status(key):
    with open("/proc/self/status") as fh:
        return int(re.search(key + r":\\s*(\\d+) kB", fh.read()).group(1))
cli.main(["symspace", "--curve", {CURVE_FILE!r}, "--output", {str(tmp_path / "warm.json")!r}])
before = status("VmRSS")
code = cli.main(["symspace", "--curve", {str(curve)!r}, "--resample", "2000",
                 "--output", {str(out)!r}])
print(code, before, status("VmHWM"))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, before_kib, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    size = out.stat().st_size
    assert size > 900_000
    assert (peak_kib - before_kib) * 1024 < 3 * size, (peak_kib - before_kib, size)


class TestResolvedCurveInput:
    """A symspace report embeds the resolved curve: ``closed``, then each
    sample's ``t`` and ``matrix`` as float arrays, before symmetrization."""

    def test_canonical_file_embeds_itself(self, tmp_path):
        raw = _curve_report_bytes(Path(CURVE_FILE).read_text(), tmp_path)
        doc = json.loads(raw)
        assert doc["input"] == {"curve": json.loads(Path(CURVE_FILE).read_text())}
        assert doc["input_hash"] == json.loads((GOLDEN_DIR / "symspace_orbit.json").read_bytes())[
            "input_hash"
        ]

    def test_key_order_is_resolved(self, tmp_path):
        canonical = _curve_doc([1.0, 2.5, 3.0, 1.5, 1.0], closed=True)
        reordered = {
            "samples": [{"matrix": s["matrix"], "t": s["t"]} for s in canonical["samples"]],
            "closed": True,
        }
        assert _curve_report_bytes(json.dumps(reordered), tmp_path, "a.json") == (
            _curve_report_bytes(json.dumps(canonical), tmp_path, "b.json")
        )

    def test_missing_closed_embeds_false(self, tmp_path):
        doc = _curve_doc([1.0, 2.0, 3.0])
        del doc["closed"]
        report = json.loads(_curve_report_bytes(json.dumps(doc), tmp_path))
        assert report["input"]["curve"]["closed"] is False
        assert _curve_report_bytes(json.dumps(doc), tmp_path, "a.json") == (
            _curve_report_bytes(json.dumps(_curve_doc([1.0, 2.0, 3.0])), tmp_path, "b.json")
        )

    def test_unsymmetric_sample_embeds_its_raw_entries(self, tmp_path):
        matrices = [[[2.0, 0.25], [0.0, 1.0]], [[3.0, 0.0], [0.5, 1.0]], [[2.0, 0.1], [0.1, 1.5]]]
        samples = [{"t": float(k), "matrix": m} for k, m in enumerate(matrices)]
        doc = {"closed": False, "samples": samples}
        report = json.loads(_curve_report_bytes(json.dumps(doc), tmp_path))
        assert report["input"]["curve"] == doc

    def test_integer_entries_embed_as_float_text(self, tmp_path):
        # 3 * 10**16 + 1 is no float: it is read, and embedded, as 3e16
        doc = {"samples": [{"t": 0, "matrix": [[3 * 10**16 + 1]]}, {"t": 2, "matrix": [[4]]}]}
        raw = _curve_report_bytes(json.dumps(doc), tmp_path)
        assert b'"t": 0,' in raw and b'"t": 2,' in raw
        assert b"30000000000000000\n" in raw and b"30000000000000001" not in raw
        assert json.loads(raw)["input"]["curve"]["samples"][0]["matrix"] == [[3e16]]

    def test_success_walks_no_sample(self, tmp_path, monkeypatch):
        """A valid curve is checked in passes over all samples at once; the
        per-sample walk runs only to name an offender."""

        def refuse(samples):
            raise AssertionError("the per-sample walk ran on a valid curve")

        monkeypatch.setattr(cli, "_walk_curve", refuse)
        doc = _curve_doc([1, 2.5, 3, 1.5, 1], closed=True)  # integer entries too
        assert json.loads(_curve_report_bytes(json.dumps(doc), tmp_path))["samples"] == 5

    def test_batched_read_matches_the_walk(self, tmp_path, monkeypatch):
        """Samples read in batches while the file is parsed give the arrays
        the per-sample walk gives, over several batches and a short last one,
        without the walk."""
        doc = _closed_spd_curve(2 * cli._CurveSamples.BATCH + 7, 3)
        doc["samples"][70]["matrix"][1][2] = 3  # an integer entry in batch 1
        doc["samples"][100]["t"] = 1  # and an integer parameter
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        walked_params, walked = cli._walk_curve(doc["samples"])
        monkeypatch.setattr(cli, "_walk_curve", None)
        closed, params, matrices = cli._read_curve(str(path))
        assert closed is True
        assert params.tolist() == walked_params.tolist()
        assert matrices.shape == walked.shape == (len(doc["samples"]), 3, 3)
        assert matrices.tolist() == walked.tolist()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("t", "sample 150: parameter is no number: true"),
            ("entry", 'sample 150: matrix row 1 has an entry that is no number: "x"'),
            ("boolean", "sample 150: matrix row 1 has an entry that is no number: false"),
            ("dimension", "sample 150: matrix has shape (2, 2), sample 0 has (3, 3)"),
            ("batch dimension", "sample 128: matrix has shape (2, 2), sample 0 has (3, 3)"),
            ("ragged", "sample 150: matrix row 1 has 2 entries, row 0 has 3"),
            ("overflow", "sample 150: matrix has an entry out of float range"),
            ("key", "sample 150: unknown field 'extra'"),
            ("element", "sample 150 must be an object with fields 't' and 'matrix'"),
        ],
    )
    def test_fault_in_a_later_batch_is_named(self, fault, message, tmp_path):
        """A sample after two well-formed batches that is no well-formed
        sample, or a batch of samples of another dimension, sends the file
        to the per-sample walk, which names the first offender."""
        doc = _closed_spd_curve(200, 3)
        target = doc["samples"][150]
        if fault == "t":
            target["t"] = True
        elif fault == "entry":
            target["matrix"][1][0] = "x"
        elif fault == "boolean":
            target["matrix"][1][2] = False
        elif fault == "dimension":
            target["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        elif fault == "batch dimension":  # every sample of batch 2 on
            for sample in doc["samples"][2 * cli._CurveSamples.BATCH :]:
                sample["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        elif fault == "ragged":
            target["matrix"][1].pop()
        elif fault == "overflow":
            target["matrix"][1][1] = 10**400
        elif fault == "key":
            target["extra"] = 1
        else:
            doc["samples"][150] = [target["t"], target["matrix"]]
        code, err, _ = _run_curve(doc, tmp_path)
        assert (code, err) == (2, f"error: {message}\n")


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
    "prolong": {"--tol"},
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
        assert settable == 40
        assert len(_REMOVED_FLAGS) == 15

    def test_parser_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
    def test_flag_a_command_does_not_read_is_usage_error(self, command, flag):
        code, err = _main_exit([*RUNS[command], flag, *_FLAG_VALUES[flag]])
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "identity",
             "--output", str(out)]
        )
        doc = json.loads(out.read_text())
        assert doc["report"]["kernel_dim"] == 0

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("how", ["main", "module"])
    def test_unwritable_output_is_two(self, target, how, tmp_path, capsys):
        """An ``--output`` that cannot be opened is invalid input: exit 2, one
        error line, no traceback and no file left behind."""
        path = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
        argv = ["braid", "--n", "3", "--output", str(path)]
        if how == "main":
            code, err = cli.main(argv), capsys.readouterr().err
        else:
            proc = run_cli(argv, check=False)
            code, err = proc.returncode, proc.stderr.decode()
        assert code == 2
        assert err.startswith(f"error: cannot write report to {path}: ")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        """A write that fails midway (a full disk) removes what it wrote."""

        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(data[:100])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda path, mode: FullDisk(path, mode), raising=False)
        out = tmp_path / "report.json"
        assert cli.main(["braid", "--n", "3", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write report to {out}: No space left on device\n"
        assert not out.exists()

    def test_write_failing_after_the_first_run_removes_the_partial_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """The report is written run by run; a write that fails after the
        first run has reached the file removes the file."""
        writes = []

        class FullAfterOneRun(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                if len(writes) > 1:
                    raise OSError(28, "No space left on device")
                return super().write(data)

        def open_full(path, mode, **kwargs):
            return FullAfterOneRun(path, mode) if mode == "wb" else open(path, mode, **kwargs)

        monkeypatch.setattr(reportio, "RUN_CHARS", 1024)
        monkeypatch.setattr(cli, "open", open_full, raising=False)
        out = tmp_path / "report.json"
        argv = ["symspace", "--curve", CURVE_FILE, "--resample", "33", "--output", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write report to {out}: No space left on device\n"
        assert len(writes) == 2  # the first run reached the file
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["handler", "rendering"])
    def test_failed_run_leaves_an_existing_output_untouched(
        self, failure, tmp_path, capsys, monkeypatch
    ):
        """The whole report is rendered before the file is opened, so a run
        that fails in its handler or in rendering a node leaves the file."""
        argv = ["braid", "--n", "3"]
        if failure == "handler":
            argv += ["--J", "diag:1,2"]
            message = "error: --n 3 differs from the dimension 2 of --J\n"
        else:
            monkeypatch.setattr(cli, "kernel_report_doc", lambda report: {"node": object()})
            message = "error: cannot serialize object into a report\n"
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        assert cli.main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert out.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["symspace", "--curve", CURVE_FILE, "--resample", "33"],
            ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r-samples", "0.5,1,2"],
        ],
        ids=["symspace", "certify"],
    )
    def test_stdout_and_output_file_get_the_same_bytes(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(reportio, "RUN_CHARS", 1024)  # many runs
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.encode("ascii")
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == printed

    def test_kernel_basis_included(self):
        proc = run_cli(
            ["braid", "--n", "3", "--J", "identity", "--Jp", "diag:1,0,0",
             "--kernel-basis"]
        )
        doc = json.loads(proc.stdout)
        assert len(doc["report"]["kernel_basis"]) == doc["report"]["kernel_dim"]
        assert doc["report"]["unknown_labels"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["braid", "--n", "6", "--J", "identity", "--Jp", "diag:1,0,0,0,0,0"],
            ["braid", "--J", "[[2,1,0,0,0],[1,2,1,0,0],[0,1,2,1,0],[0,0,1,2,1],[0,0,0,1,2]]",
             "--Jp", "diag:1,0,0,0,0.5"],
            ["braid", "--variant", "classical", "--J", "diag:1,-1,2,0.5"],
            ["braid", "--variant", "symskew", "--n", "3"],
            ["certify", "--builtin", "product_nonrigid", "--n", "3", "--r", "1"],
            ["lightlike", "--builtin", "lightcone", "--n", "4", "--r", "1"],
        ],
    )
    def test_kernel_basis_changes_no_other_field(self, argv, tmp_path):
        def without_basis(doc):
            if isinstance(doc, dict):
                return {
                    k: without_basis(v) for k, v in doc.items()
                    if k not in ("kernel_basis", "unknown_labels")
                }
            return [without_basis(v) for v in doc] if isinstance(doc, list) else doc

        code, plain = _main_report(argv, tmp_path)
        assert code == 0
        code, with_basis = _main_report([*argv, "--kernel-basis"], tmp_path)
        assert code == 0
        assert b"kernel_basis" in with_basis
        assert without_basis(json.loads(with_basis)) == json.loads(plain)

    def test_report_embeds_reproduction_metadata(self):
        proc = run_cli(
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1", "--grid", "4"]
        )
        doc = json.loads(proc.stdout)
        assert doc["grid"] == 4
        assert doc["input_hash"]
        assert doc["input"]["chart"]["n"] == 3
        # prolong reads no seed, so its report carries none
        proc = run_cli(["prolong", "--algebra", "so", "--n", "3"])
        doc = json.loads(proc.stdout)
        assert "seed" not in doc
        assert "seed" not in doc["input"]


class TestCommands:
    def test_braid_classical_variant(self):
        proc = run_cli(
            ["braid", "--n", "4", "--J", "minkowski", "--variant", "classical"]
        )
        assert json.loads(proc.stdout)["report"]["kernel_dim"] == 0

    def test_braid_dense_pencil_same_bytes_across_threads(self):
        rng = np.random.default_rng(19)
        forms = []
        for _ in range(2):
            a = rng.uniform(-0.25, 0.25, (7, 7))
            forms.append(json.dumps((a + a.T + np.diag(rng.choice([-2.5, 2.5], 7))).tolist()))
        args = ["braid", "--n", "7", "--J", forms[0], "--Jp", forms[1]]
        single = run_cli(args, threads="1").stdout
        assert "pencil" in json.loads(single)["report"]
        assert single == run_cli(args, threads="2").stdout

    def test_braid_dense_n8_same_bytes_across_blas_threads(self):
        # a dense 1296 x 996 system: a threaded OpenBLAS splits its sums
        # differently, so without the one-thread pin in ``main`` the
        # singular values differ in their last bits
        j = [[2.216, -0.14, 0.221, -0.103, 0.232, -0.217, 0.233, 0.136],
             [-0.14, -2.391, -0.141, 0.143, -0.191, -0.168, 0.114, -0.2],
             [0.221, -0.141, 2.859, -0.051, 0.103, -0.117, 0.224, 0.155],
             [-0.103, 0.143, -0.051, 2.247, 0.186, -0.174, -0.077, -0.208],
             [0.232, -0.191, 0.103, 0.186, 2.525, -0.092, -0.244, -0.179],
             [-0.217, -0.168, -0.117, -0.174, -0.092, 2.711, 0.222, -0.158],
             [0.233, 0.114, 0.224, -0.077, -0.244, 0.222, 2.915, 0.185],
             [0.136, -0.2, 0.155, -0.208, -0.179, -0.158, 0.185, 2.206]]
        jp = [[-2.654, -0.126, -0.105, 0.178, 0.014, -0.2, 0.195, 0.214],
              [-0.126, -2.695, 0.201, -0.207, -0.175, -0.171, -0.003, -0.106],
              [-0.105, 0.201, -2.892, 0.234, 0.035, 0.139, 0.107, -0.062],
              [0.178, -0.207, 0.234, 2.214, 0.134, 0.213, -0.233, 0.212],
              [0.014, -0.175, 0.035, 0.134, 2.657, -0.074, 0.15, -0.161],
              [-0.2, -0.171, 0.139, 0.213, -0.074, 2.506, -0.231, 0.205],
              [0.195, -0.003, 0.107, -0.233, 0.15, -0.231, -2.87, -0.012],
              [0.214, -0.106, -0.062, 0.212, -0.161, 0.205, -0.012, -2.638]]
        args = ["braid", "--n", "8", "--J", json.dumps(j), "--Jp", json.dumps(jp)]
        single = run_cli(args, threads="1").stdout
        assert json.loads(single)["report"]["verdict"] == "rigid"
        assert single == run_cli(args, threads="4").stdout

    def test_blas_without_thread_calls_runs_unpinned(self, monkeypatch, tmp_path):
        # numpy linked against another BLAS: nothing to pin, the command runs
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        out = tmp_path / "report.json"
        assert cli.main(["braid", "--n", "3", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["verdict"] == "rigid"

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

    def test_prolong_co_1_is_the_line(self, tmp_path):
        # co(1) = R Id, the one_param algebra of [[1]]
        docs = [
            json.loads(_main_report(["prolong", *algebra], tmp_path)[1])
            for algebra in (["--algebra", "co", "--n", "1"], ["--algebra", "one_param", "--R", "[[1]]"])
        ]
        keys = ("algebra_dim", "prolongation_dims", "type")
        assert [docs[0][k] for k in keys] == [docs[1][k] for k in keys]
        assert docs[0]["type"]["kind"] == "infinite"

    def test_prolong_so_finite(self):
        proc = run_cli(["prolong", "--algebra", "so", "--n", "3", "--max-order", "2"])
        doc = json.loads(proc.stdout)
        assert doc["type"] == {"kind": "finite", "order": 1, "dims": {"1": 0}}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prolong_unit_one_param_reports_round_trip(self, n, tmp_path):
        # a witness entry written as -0 would read back as 0
        for k, sign in itertools.product(range(n * n), (1, -1)):
            r = np.zeros((n, n), dtype=int)
            r.flat[k] = sign
            argv = ["prolong", "--algebra", "one_param", "--R", json.dumps(r.tolist())]
            code, report = _main_report(argv, tmp_path)
            assert code == 0
            assert reportio.dump_bytes(json.loads(report)) == report, (k, sign)

    def test_prolong_rank1_search_same_bytes_across_threads(self):
        # lightlike_orth n=5 has a rank-one basis element as its witness
        args = ["prolong", "--algebra", "lightlike_orth", "--n", "5"]
        single = run_cli(args, threads="1").stdout
        assert single == run_cli(args, threads="2").stdout
        assert json.loads(single)["type"]["kind"] == "infinite"

    def test_prolong_alternating_search_same_bytes_across_threads(self):
        # span{P + G, P - G} with P = v a^T rank one and G of rank 4: no
        # basis element is rank one, so the witness comes from the
        # alternating solve
        p = np.outer([1, 2, 0, 1], [0, 1, 1, 2])
        g = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]])
        h = prolongation.MatrixAlgebra(4, [p + g, p - g])
        svals = np.linalg.svd(h.orthonormalized_basis, compute_uv=False)
        assert np.min(prolongation._sigma_ratios(svals)) > 1e-3
        generators = json.dumps([(p + g).tolist(), (p - g).tolist()])
        args = ["prolong", "--generators", generators]
        single = run_cli(args, threads="1").stdout
        assert single == run_cli(args, threads="2").stdout
        witness = json.loads(single)["type"]["witness"]
        assert witness["sigma_ratio"] < prolongation.RANK1_RATIO_TOL

    @pytest.mark.parametrize("algebra", [
        ["--algebra", "lightlike_orth", "--n", "5"],
        ["--algebra", "one_param", "--R", "[[0,1,0],[0,0,0],[0,0,0]]"],
    ])
    def test_prolong_infinite_type_same_bytes(self, algebra, tmp_path):
        argv = ["prolong", *algebra]
        code, first = _main_report(argv, tmp_path)
        assert code == 0
        assert _main_report(argv, tmp_path) == (0, first)
        assert json.loads(first)["type"]["kind"] == "infinite"

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

    @staticmethod
    def count_spaces(monkeypatch):
        calls = []
        original = prolongation.prolongation_space

        def counted(h, d, **kwargs):
            calls.append(d)
            return original(h, d, **kwargs)

        # wherever the package binds it, so a second solve path is counted too
        for module in (prolongation, cli):
            if getattr(module, "prolongation_space", None) is original:
                monkeypatch.setattr(module, "prolongation_space", counted)
        return calls

    def test_prolong_reuses_finite_type_spaces(self, monkeypatch, tmp_path):
        calls = self.count_spaces(monkeypatch)
        out = tmp_path / "report.json"
        code = cli.main(["prolong", "--algebra", "co", "--n", "4", "--output", str(out)])
        assert code == 0
        # finite_type solves orders 1 and 2, the first vanishing one; the
        # report's dims reuse them
        assert calls == [1, 2]
        # the bytes written when every order was solved a second time, less
        # the grid line of a flag prolong does not take, less the order 3
        # that finite_type once solved to confirm the vanishing, and less the
        # seed lines of the flag prolong no longer takes
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "e5a72cd8b76df832de961bbe9c6a06e598d3919bb750064d55b680997b3ef5d6"

        # an infinite type solves every order before its search, and the
        # report's dims are the result's
        results = []
        original_finite_type = cli.finite_type

        def recorded(*args, **kwargs):
            results.append(original_finite_type(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "finite_type", recorded)
        calls.clear()
        argv = ["prolong", "--algebra", "lightlike_orth", "--n", "4", "--output", str(out)]
        assert cli.main(argv) == 0
        assert calls == [1, 2, 3]
        [result] = results
        assert isinstance(result, prolongation.InfiniteType)
        doc = json.loads(out.read_text())
        assert doc["prolongation_dims"] == {str(d): dim for d, dim in result.dims.items()}

    def test_prolong_orders_above_the_vanishing_one_read_zero_unsolved(
        self, monkeypatch, tmp_path
    ):
        # so(6) vanishes at order 1; orders 2 to 5 vanish by heredity, so
        # nothing solves them
        calls = self.count_spaces(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["prolong", "--algebra", "so", "--n", "6", "--max-order", "5"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert calls == [1]
        doc = json.loads(out.read_text())
        assert doc["prolongation_dims"] == {str(d): 0 for d in range(1, 6)}
        assert doc["type"]["dims"] == {"1": 0}

    @pytest.mark.parametrize("name,n", [("so", 3), ("so", 4), ("co", 3), ("co", 4)])
    def test_prolong_orders_read_zero_by_heredity_match_direct_solves(
        self, name, n, tmp_path
    ):
        out = tmp_path / "report.json"
        argv = ["prolong", "--algebra", name, "--n", str(n), "--max-order", "5"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        h = prolongation.builtin_algebra(name, n)
        direct = {str(d): prolongation.prolongation_space(h, d).dim for d in range(1, 6)}
        assert json.loads(out.read_text())["prolongation_dims"] == direct

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
