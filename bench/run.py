"""Benchmark of the rigidity-lab CLI over seeded job mixes.

    python3 bench/run.py --workload chart-grid --seed 1 --seconds 35 --trace 0

Run from any directory of a checkout; the package is imported from the
checkout's ``src``. Every pass of a workload's job list is one fresh worker
process (``bench/worker.py``) with OPENBLAS_NUM_THREADS=1, so a job pays
what a CLI invocation pays, minus the import, which is measured on its own
as ``setup_s``. Only one child process runs at a time.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters, run one after another, of
  the time from process launch until ``import rigidity_lab.cli`` returns;
* ``batch_s``: the wall time of the job list (the sum of its job walls in
  one pass), median over the passes;
* ``job_p50_s``: the median over the jobs of each job's mean wall over the
  passes;
* ``peak_rss_mb``: the worker's peak RSS at the end of a pass (median).

On a shared 2-vCPU VM the CPU speed drifts by up to 1.7x over minutes, and
a job of 0.3 s lands in a slow or a fast stretch as a whole. Over a handful
of passes the mean of each job's walls follows that drift more smoothly than
their median or the pooled median of all walls, which jump between the two.

Passes repeat while the next one, at the mean pass time so far, still ends
within ``--seconds``: two at least, unless one pass alone takes longer.
Failed jobs (nonzero exit, no report, wrong verdict fields, or report bytes
that differ between passes) are counted in
``failed`` and printed as ``fail_rate``.

``--trace 1`` runs one untraced and one traced pass and reports per-layer
self times and counts (see ``tracer.py``), the per-module import times from
``python -X importtime``, and the tracing overhead. The two passes must
write identical report bytes.

The last line of standard output is the JSON result; the lines before it
are a readable table and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import ERROR_LAYERS, layer_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "rigidity_lab"

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
MAX_PASSES = 20
CHILD_TIMEOUT_S = 150

#: Modules whose cumulative import time the traced run reports.
IMPORT_MODULES = (
    "rigidity_lab",
    "rigidity_lab.multilinear",
    "rigidity_lab.braid",
    "rigidity_lab.ratfield",
    "rigidity_lab.gcs",
    "rigidity_lab.reportio",
    "rigidity_lab.certifier",
    "rigidity_lab.prolongation",
    "rigidity_lab.symspace",
    "numpy",
    "scipy",
    "scipy.optimize",
)

#: Counts computed from shapes rather than counted at a call.
COMPUTED_COUNTS = ("gcs.grid_points", "braid.cells", "braid.nnz", "braid.svd_bytes")
MEASURED_COUNTS = (
    "ratfield.eval_calls",
    "braid.solve_calls",
    "prolongation.space_calls",
    "reportio.bytes",
)

_SETUP_SNIPPET = (
    "import time, rigidity_lab.cli as c; t = time.perf_counter(); print(t, c.__file__)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, or a child process failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RIGIDITY_LAB_TOL", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _run_child(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            args, cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{args[1:3]} did not finish within {CHILD_TIMEOUT_S} s") from exc


# -- set-up ------------------------------------------------------------------


def measure_setup(workdir: Path, launches: int) -> list[float]:
    """Seconds from launch to ``import rigidity_lab.cli`` returning, per
    fresh interpreter; one untimed launch first warms the bytecode cache."""
    times = []
    for k in range(launches + 1):
        start = time.perf_counter()
        proc = _run_child([sys.executable, "-c", _SETUP_SNIPPET], workdir)
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr[-2000:]}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != PACKAGE_DIR:
            raise BenchError(f"imported rigidity_lab from {path.strip()}, not {PACKAGE_DIR}")
        if k:
            times.append(float(stamp) - start)
    return times


def import_times(workdir: Path, launches: int) -> dict[str, float]:
    """Median import seconds of each of IMPORT_MODULES (0 if not imported).

    A module's time is the cumulative time of its ``-X importtime`` entry
    plus that of its submodules not nested in it: ``from scipy import
    optimize`` goes through scipy's lazy loader, which reports only the
    submodules of ``scipy.optimize``, not the package itself.
    """
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(launches):
        proc = _run_child([sys.executable, "-X", "importtime", "-c", "import rigidity_lab.cli"], workdir)
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr[-2000:]}")
        entries = []  # (depth, name, cumulative seconds), children before parents
        for line in proc.stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1]) * 1e-6))
        for module in IMPORT_MODULES:
            samples[module].append(_outermost_total(entries, module))
    return {m: statistics.median(v) for m, v in samples.items()}


def _outermost_total(entries: list[tuple[int, str, float]], module: str) -> float:
    """Sum over the entries of ``module`` and its submodules that no other
    such entry encloses."""
    total = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside a matching entry)
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        enclosed = bool(stack) and stack[-1][1]
        match = name == module or name.startswith(module + ".")
        if match and not enclosed:
            total += cumulative
        stack.append((depth, match or enclosed))
    return total


# -- passes ------------------------------------------------------------------


def run_pass(workdir: Path, jobs: list[workloads.Job], tag: str, trace: bool) -> dict:
    """One fresh worker over the job list; adds each job's report bytes and
    the problems found in it."""
    args = [sys.executable, str(BENCH_DIR / "worker.py"), str(workdir), tag]
    proc = _run_child(args + (["--trace"] if trace else []), workdir)
    result_file = workdir / f"{tag}-result.json"
    if proc.returncode != 0 or not result_file.is_file():
        raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_file.read_text())
    result["reports"], result["problems"] = [], []
    for k, job in enumerate(jobs):
        report = workdir / f"{tag}-{k}.json"
        data = report.read_bytes() if report.is_file() else None
        problems = []
        if result["codes"][k] != 0:
            problems.append(f"exit code {result['codes'][k]}")
            if result["errors"][k]:
                problems.append(result["errors"][k])
        if data is None:
            problems.append("no report written")
        else:
            problems += workloads.check_report(json.loads(data), job.expect)
            report.unlink()
        result["reports"].append(data)
        result["problems"].append(problems)
    return result


def compare_reports(reference: dict, other: dict, label: str):
    """Count a job as failed in ``other`` when its report bytes differ."""
    for k, (a, b) in enumerate(zip(reference["reports"], other["reports"])):
        if a is not None and b is not None and a != b:
            other["problems"][k].append(f"report bytes differ from {label}")


def timed_run(workdir: Path, jobs: list[workloads.Job], seconds: int) -> tuple[dict, list[dict], dict]:
    setup = measure_setup(workdir, SETUP_LAUNCHES)
    start = time.perf_counter()
    passes = [run_pass(workdir, jobs, "pass0", trace=False)]
    while len(passes) < MAX_PASSES:
        elapsed = time.perf_counter() - start
        next_end = elapsed * (len(passes) + 1) / len(passes)
        # a second pass runs unless the first alone overran the budget
        if next_end > seconds and (len(passes) > 1 or elapsed > seconds):
            break
        passes.append(run_pass(workdir, jobs, f"pass{len(passes)}", trace=False))
        compare_reports(passes[0], passes[-1], "pass 0")
    walls = [[p["walls"][k] for p in passes] for k in range(len(jobs))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "batch_s": (statistics.median(sum(p["walls"]) for p in passes), "s"),
        "job_p50_s": (statistics.median(statistics.fmean(w) for w in walls), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024.0 for p in passes), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "batch_s": f"median over {len(passes)} passes of the sum of {len(jobs)} job walls",
        "job_p50_s": f"median over {len(jobs)} jobs of each job's mean over {len(passes)} passes",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    return metrics, passes, notes


def traced_run(workdir: Path, jobs: list[workloads.Job]) -> tuple[dict, list[dict], dict]:
    imports = import_times(workdir, IMPORTTIME_LAUNCHES)
    plain = run_pass(workdir, jobs, "plain", trace=False)
    traced = run_pass(workdir, jobs, "traced", trace=True)
    compare_reports(plain, traced, "the untraced pass")

    metrics: dict[str, tuple[float, str]] = {}
    for name, value in layer_times(traced["spans"]).items():
        metrics[name] = (value, "s")
    counts = traced["counts"]
    for name in COMPUTED_COUNTS:
        metrics[name] = (counts.get(name, 0), "B-computed" if name.endswith("bytes") else "count-computed")
    for name in MEASURED_COUNTS:
        metrics[name] = (counts.get(name, 0), "B" if name.endswith("bytes") else "count")
    for layer in ERROR_LAYERS:
        metrics[f"{layer}.errors"] = (traced["errors_by_layer"].get(layer, 0), "count")
    for module, value in imports.items():
        metrics[f"setup.import.{module}_s"] = (value, "s")
    traced_batch, plain_batch = sum(traced["walls"]), sum(plain["walls"])
    metrics["trace.batch_s"] = (traced_batch, "s")
    metrics["trace.untraced_batch_s"] = (plain_batch, "s")
    metrics["trace.overhead"] = (traced_batch / plain_batch - 1.0, "fraction")
    notes = {name: "computed from shapes" for name in COMPUTED_COUNTS}
    notes["trace.overhead"] = "traced batch_s over untraced batch_s, minus 1"
    notes["setup.import.rigidity_lab_s"] = f"all of import rigidity_lab.cli, median of {IMPORTTIME_LAUNCHES} launches"
    return metrics, [plain, traced], notes


# -- environment -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment(seed: int, versions: dict) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    llc, level = "unknown", -1
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        lv = _read(str(index / "level"))
        if lv.isdigit() and int(lv) > level:
            level, llc = int(lv), f"L{lv} {_read(str(index / 'size'))}"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "llc": llc,
        **versions,
        "seed": seed,
        "workers_at_once": 1,
    }


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no rigidity_lab package at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for job in jobs:
            for name, data in job.files.items():
                (workdir / name).write_bytes(data)
        (workdir / "jobs.json").write_text(json.dumps([job.argv for job in jobs]))
        if args.trace:
            metrics, passes, notes = traced_run(workdir, jobs)
        else:
            metrics, passes, notes = timed_run(workdir, jobs, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(p["problems"]) for p in passes)
    failed = 0
    for tag, p in enumerate(passes):
        for job, problems in zip(jobs, p["problems"]):
            if problems:
                failed += 1
                print(f"FAILED pass {tag} {job.name}: " + "; ".join(problems), file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  passes {len(passes)}"
          f"  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<15} {note}")
    print(f"  {'fail_rate':<40} {failed / attempted:>14.6g} {'fraction':<15} {failed}/{attempted} jobs")
    print("env " + json.dumps(environment(args.seed, passes[0]["versions"])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
