import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rigidity_lab import cli, gcs, prolongation

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"
CURVE_FILE = str(TESTS_DIR / "data" / "rotation_orbit.json")

GOLDEN_CASES = {
    "certify_conformal_flat.json": [
        "certify", "--builtin", "conformal_flat", "--n", "3",
        "--point", "0,0,0", "--r", "1",
    ],
    "certify_product_nonrigid_samples.json": [
        "certify", "--builtin", "product_nonrigid", "--n", "3",
        "--point", "0,0,0", "--r-samples", "0.5,1,2",
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

    def test_oversized_grid_is_two_before_scanning(self, monkeypatch, capsys):
        def no_compile(*args, **kwargs):
            raise AssertionError("oversized grid was evaluated")

        monkeypatch.setattr(gcs, "_compile_grid_program", no_compile)
        code = cli.main(
            ["certify", "--builtin", "conformal_flat", "--n", "6", "--grid", "20",
             "--r", "1"]
        )
        assert code == 2
        assert "1280000000 points" in capsys.readouterr().err

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
]
codes = [cli.main(job + ["--output", {str(tmp_path)!r} + f"/{{k}}.json"]) for k, job in enumerate(jobs)]
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[0, 0, 0, 0]"


class TestGridScans:
    """Each command validates its chart once, on the requested grid."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        original = gcs._scan_grid

        def counted(chart, per_axis, check_positive):
            calls.append((chart.n, per_axis, check_positive))
            return original(chart, per_axis, check_positive)

        monkeypatch.setattr(gcs, "_scan_grid", counted)
        return calls

    def test_certify_on_requested_grid(self, scans, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--grid", "4",
             "--r", "1", "--output", str(out)]
        )
        assert code == 0
        assert scans == [(3, 4, True)]
        assert json.loads(out.read_text())["chart_genericity"]["grid"] == 4

    def test_lightlike_lift_reuses_chart_scan(self, scans, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["lightlike", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
             "--output", str(out)]
        )
        assert code == 0
        assert scans == [(3, 5, True)]


class TestFlags:
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
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1",
             "--seed", "5", "--grid", "4"]
        )
        doc = json.loads(proc.stdout)
        assert doc["seed"] == 5
        assert doc["grid"] == 4
        assert doc["input_hash"]
        assert doc["input"]["chart"]["n"] == 3


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
        # the bytes written when every order was solved a second time
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9470b3140e7eba5b439178511d3274cd4ff38c0aae6ada80fb8e5e7a0db9fd54"

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
