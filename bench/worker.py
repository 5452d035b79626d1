"""Run one pass of a job list in a fresh interpreter.

    python3 bench/worker.py WORKDIR TAG [--trace]

Reads ``WORKDIR/jobs.json`` (a list of argv lists), imports the package,
then calls ``rigidity_lab.cli.main(argv + ["--output", TAG-<k>.json])`` for
each job in order, from WORKDIR. Each job's wall time runs from the
``main()`` call until the report file is written and closed. Writes
``WORKDIR/TAG-result.json`` with the walls, exit codes, the process's peak
RSS and library versions; with ``--trace`` also the spans and counts of
:mod:`tracer`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    workdir, tag = Path(argv[0]), argv[1]
    trace = "--trace" in argv[2:]
    jobs = json.loads((workdir / "jobs.json").read_text())
    root = Path(__file__).resolve().parent.parent

    import rigidity_lab.cli as cli

    package_dir = Path(cli.__file__).resolve().parent
    if package_dir != root / "src" / "rigidity_lab":
        print(f"imported rigidity_lab from {package_dir}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    run_job = cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_job = tracer.wrap("cli.main", cli.main)

    os.chdir(workdir)
    walls, codes, errors = [], [], []
    for k, job_argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        error = None
        start = time.perf_counter()
        try:
            code = run_job(job_argv + ["--output", f"{tag}-{k}.json"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI leaked an exception: a failed job, not a crash
            code = -1
            error = traceback.format_exc(limit=3)
        walls.append(time.perf_counter() - start)
        codes.append(code)
        errors.append(error)

    result = {
        "walls": walls,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.all_counts()
        result["errors_by_layer"] = dict(tracer.errors)
    Path(f"{tag}-result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
