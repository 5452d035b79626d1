"""Batch front-end: deterministic JSON reports over the library's operations.

Every report embeds the resolved tolerances, seed, grid and an input hash,
so it can be reproduced from its own metadata; byte-identical output for
identical inputs is a contract covered by golden-file tests.  Exit status 0
means the run completed (verdicts live in the report, not the exit code),
2 flags invalid input and 3 an internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import reportio
from .braid import (
    GAP_VERDICT_THRESHOLD,
    classical_braid_kernel,
    generalized_braid_kernel,
    trilinear_symskew_kernel,
)
from .certifier import (
    TOOL_VERSION,
    certificate_doc,
    gcs_certificate,
    kernel_report_doc,
    lightlike_subrigidity_certificate,
)
from .gcs import (
    BUILTIN_DESCRIPTIONS,
    LightlikeChart,
    builtin_chart,
    chart_from_doc,
    chart_to_doc,
    genericity_report,
    lift_to_lightlike,
)
from .multilinear import SPECTRAL_TOL
from .prolongation import (
    FiniteType,
    InfiniteType,
    UnknownBeyond,
    builtin_algebra,
    finite_type,
    prolongation_space,
    prolongation_unknowns,
    SIZE_CAP,
)
from .symspace import SpdCurve, arclength_reparam, circle_mean, curve_length

TOL_ENV_VAR = "RIGIDITY_LAB_TOL"

ALGEBRA_DESCRIPTIONS = {
    "so": "antisymmetric matrices; first prolongation vanishes (finite type 1)",
    "co": "scalings plus rotations; n-dimensional first prolongation, type 2 for n >= 3",
    "lightlike_orth": "matrices annihilating diag(1,...,1,0); contains rank-one elements, infinite type",
    "one_param": "span of a single matrix R; finite type exactly when rank(R) >= 2",
    "custom": "span of user-supplied generator matrices",
}


@dataclass
class RunConfig:
    """Normalized invocation: one command plus its resolved inputs."""

    command: str
    options: dict
    tol: float
    seed: int
    grid: int
    output: str | None
    kernel_basis: bool = False


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return SPECTRAL_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0.0 < value < 1.0:
        raise ValueError(f"{TOL_ENV_VAR} must be in (0, 1), got {value}")
    return value


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse float list from {text!r}") from exc


def _json_matrix(value, what: str) -> np.ndarray:
    """A JSON matrix, a list of equally long rows of numbers, as a float
    array; every refusal names ``what``, and a ragged one its first row
    whose length differs from row 0."""
    if isinstance(value, list) and all(isinstance(row, list) for row in value):
        for k, row in enumerate(value):
            if len(row) != len(value[0]):
                raise ValueError(
                    f"{what} row {k} has {len(row)} entries, row 0 has {len(value[0])}"
                )
    try:
        m = np.array(value, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"{what} has an entry out of float range") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{what}: {exc}") from exc
    if m.ndim != 2:
        raise ValueError(f"{what} must be a list of rows, got shape {m.shape}")
    return m


def _parse_matrix(spec: str, n: int | None) -> np.ndarray:
    """Matrix specs: 'identity', 'minkowski', 'diag:a,b,c', or inline JSON."""
    if spec == "identity":
        if n is None:
            raise ValueError("matrix spec 'identity' needs --n")
        return np.eye(n)
    if spec == "minkowski":
        if n is None:
            raise ValueError("matrix spec 'minkowski' needs --n")
        d = np.ones(n)
        d[0] = -1.0
        return np.diag(d)
    if spec.startswith("diag:"):
        return np.diag(_parse_floats(spec[len("diag:") :]))
    m = _json_matrix(json.loads(spec), "matrix JSON")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix JSON must be square, got shape {m.shape}")
    return m


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_chart(opts: dict, grid: int):
    if opts.get("chart"):
        doc = _load_json_file(opts["chart"])
        return chart_from_doc(doc, grid=grid)
    if opts.get("builtin"):
        params = json.loads(opts["params"]) if opts.get("params") else None
        return builtin_chart(opts["builtin"], n=opts.get("n"), params=params, grid=grid)
    raise ValueError("need either --builtin or --chart")


def _envelope(config: RunConfig, input_doc: dict, payload: dict) -> dict:
    doc = {
        "tool": "rigidity-lab",
        "tool_version": TOOL_VERSION,
        "command": config.command,
        "seed": config.seed,
        "grid": config.grid,
        "tolerances": {"kernel_tol": config.tol, "gap_threshold": GAP_VERDICT_THRESHOLD},
        "input": input_doc,
        "input_hash": reportio.input_hash(input_doc),
    }
    doc.update(payload)
    return doc


# -- command handlers --------------------------------------------------------


def _run_certify(config: RunConfig) -> dict:
    opts = config.options
    chart = _resolve_chart(opts, config.grid)
    if isinstance(chart, LightlikeChart):
        raise ValueError("certify expects a curve-of-metrics chart; use the lightlike command")
    point = _parse_floats(opts["point"]) if opts.get("point") else [0.0] * chart.n
    if opts.get("r_samples"):
        rs = _parse_floats(opts["r_samples"])
    elif opts.get("r") is not None:
        rs = [float(opts["r"])]
    else:
        raise ValueError("need --r or --r-samples")
    cert = gcs_certificate(chart, point, rs, tol=config.tol, want_basis=config.kernel_basis)
    gen = genericity_report(chart, grid=config.grid, tol=config.tol)
    payload = certificate_doc(cert, include_basis=config.kernel_basis)
    payload["chart_genericity"] = {
        "nowhere_parameter_constant": gen.nowhere_tr,
        "generic": gen.generic,
        "worst_min_abs_eigenvalue": gen.worst_min_abs_eig,
        "worst_point": {"x": gen.worst_point[0], "r": gen.worst_point[1]},
        "grid": gen.grid,
    }
    input_doc = {
        "chart": chart_to_doc(chart),
        "point": point,
        "r_samples": sorted(rs),
        "tol": config.tol,
        "grid": config.grid,
        "seed": config.seed,
    }
    return _envelope(config, input_doc, payload)


def _run_lightlike(config: RunConfig) -> dict:
    opts = config.options
    chart = _resolve_chart(opts, config.grid)
    if not isinstance(chart, LightlikeChart):
        chart = lift_to_lightlike(chart)
    point = _parse_floats(opts["point"]) if opts.get("point") else [0.0] * chart.base_dim
    if opts.get("r") is None:
        raise ValueError("need --r (the kernel-coordinate value)")
    t = float(opts["r"])
    cert = lightlike_subrigidity_certificate(
        chart, point, t, tol=config.tol, want_basis=config.kernel_basis
    )
    payload = certificate_doc(cert, include_basis=config.kernel_basis)
    input_doc = {
        "chart": chart_to_doc(chart),
        "point": point,
        "t": t,
        "tol": config.tol,
        "grid": config.grid,
        "seed": config.seed,
    }
    return _envelope(config, input_doc, payload)


def _run_braid(config: RunConfig) -> dict:
    opts = config.options
    n = opts.get("n")
    variant = opts.get("variant") or "generalized"
    if variant == "symskew":
        if n is None:
            raise ValueError("braid --variant symskew needs --n")
        report = trilinear_symskew_kernel(n, tol=config.tol, want_basis=config.kernel_basis)
        input_doc = {"variant": variant, "n": n, "tol": config.tol}
        return _envelope(config, input_doc, {"report": kernel_report_doc(report, config.kernel_basis)})
    j = _parse_matrix(opts.get("J") or "identity", n)
    if variant == "classical":
        report = classical_braid_kernel(j, tol=config.tol, want_basis=config.kernel_basis)
        input_doc = {"variant": variant, "J": [list(map(float, row)) for row in j], "tol": config.tol}
        return _envelope(config, input_doc, {"report": kernel_report_doc(report, config.kernel_basis)})
    if variant != "generalized":
        raise ValueError(f"unknown braid variant '{variant}'")
    jp = _parse_matrix(opts.get("Jp") or "identity", n)
    report = generalized_braid_kernel(j, jp, tol=config.tol, want_basis=config.kernel_basis)
    input_doc = {
        "variant": variant,
        "J": [list(map(float, row)) for row in j],
        "Jp": [list(map(float, row)) for row in jp],
        "tol": config.tol,
    }
    return _envelope(config, input_doc, {"report": kernel_report_doc(report, config.kernel_basis)})


def _finite_type_doc(result) -> dict:
    if isinstance(result, FiniteType):
        return {
            "kind": "finite",
            "order": result.order,
            "dims": {str(k): v for k, v in sorted(result.dims.items())},
            "verified_next_order": result.verified_next_order,
        }
    if isinstance(result, InfiniteType):
        w = result.witness
        return {
            "kind": "infinite",
            "witness": {
                "matrix": [list(map(float, row)) for row in w.matrix],
                "a": [float(v) for v in w.a],
                "v": [float(v) for v in w.v],
                "sigma_ratio": w.sigma_ratio,
            },
        }
    assert isinstance(result, UnknownBeyond)
    return {
        "kind": "unknown_beyond",
        "max_order": result.max_order,
        "dims": {str(k): v for k, v in sorted(result.dims.items())},
    }


def _run_prolong(config: RunConfig) -> dict:
    opts = config.options
    name = opts.get("algebra") or "custom"
    r_matrix = _json_matrix(json.loads(opts["R"]), "R") if opts.get("R") else None
    generators = None
    if opts.get("generators"):
        generators = [
            _json_matrix(g, f"generator {k}")
            for k, g in enumerate(json.loads(opts["generators"]))
        ]
    algebra = builtin_algebra(name, n=opts.get("n"), r_matrix=r_matrix, generators=generators)
    max_order = opts.get("max_order") or 3
    result = finite_type(
        algebra, max_order=max_order, tol=config.tol, seed=config.seed
    )
    # orders that finite_type solved are not solved again
    solved = {} if isinstance(result, InfiniteType) else result.dims
    dims = {}
    for d in range(1, max_order + 1):
        if prolongation_unknowns(algebra.n, d) > SIZE_CAP:
            break
        if d in solved:
            dims[str(d)] = solved[d]
        else:
            dims[str(d)] = prolongation_space(algebra, d, tol=config.tol).dim
    input_doc = {
        "algebra": name,
        "n": algebra.n,
        "R": None if r_matrix is None else [list(map(float, row)) for row in r_matrix],
        "generators": None
        if generators is None
        else [[list(map(float, row)) for row in g] for g in generators],
        "max_order": max_order,
        "tol": config.tol,
        "seed": config.seed,
    }
    payload = {
        "algebra_dim": algebra.dim,
        "prolongation_dims": dims,
        "type": _finite_type_doc(result),
    }
    return _envelope(config, input_doc, payload)


def _run_symspace(config: RunConfig) -> dict:
    opts = config.options
    if not opts.get("curve"):
        raise ValueError("need --curve FILE with the sampled curve")
    doc = _load_json_file(opts["curve"])
    if not isinstance(doc, dict):
        raise ValueError("curve document must be a JSON object")
    unknown = set(doc) - {"closed", "samples"}
    if unknown:
        raise ValueError(f"unknown curve field(s): {', '.join(sorted(unknown))}")
    closed = doc.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"curve field 'closed' must be true or false, got {json.dumps(closed)}")
    samples = doc.get("samples")
    if not samples:
        raise ValueError("curve document has no samples")
    try:
        ts = np.array([s["t"] for s in samples], dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"curve sample out of float range: {exc}") from exc
    matrices = [s["matrix"] for s in samples]
    try:
        mats = np.array(matrices, dtype=float)
    except (OverflowError, ValueError, TypeError):
        # name the first sample that is no matrix or differs in shape from sample 0
        shapes = [_json_matrix(m, f"sample {k}: matrix").shape for k, m in enumerate(matrices)]
        for k, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise ValueError(
                    f"sample {k}: matrix has shape {shape}, sample 0 has {shapes[0]}"
                ) from None
        raise
    curve = SpdCurve(ts, mats, closed=closed)
    length = curve_length(curve)
    payload = {
        "samples": curve.params.size,
        "dimension": curve.n,
        "closed": curve.closed,
        "length": length,
    }
    if curve.closed:
        payload["mean"] = [list(map(float, row)) for row in circle_mean(curve).matrix]
    if opts.get("resample"):
        m = int(opts["resample"])
        re = arclength_reparam(curve, m)
        payload["resampled"] = {
            "samples": m,
            "length": curve_length(re),
            "params": [float(t) for t in re.params],
        }
    input_doc = {"curve": doc, "tol": config.tol}
    return _envelope(config, input_doc, payload)


def _run_examples(config: RunConfig) -> str:
    action = config.options.get("action")
    if action != "list":
        raise ValueError("usage: examples list")
    lines = ["builtin structures:"]
    width = max(len(k) for k in BUILTIN_DESCRIPTIONS) + 2
    for name in sorted(BUILTIN_DESCRIPTIONS):
        kind, desc = BUILTIN_DESCRIPTIONS[name]
        lines.append(f"  {name.ljust(width)}{kind.ljust(11)}{desc}")
    lines.append("")
    lines.append("builtin algebras:")
    awidth = max(len(k) for k in ALGEBRA_DESCRIPTIONS) + 2
    for name in sorted(ALGEBRA_DESCRIPTIONS):
        lines.append(f"  {name.ljust(awidth)}{ALGEBRA_DESCRIPTIONS[name]}")
    lines.append("")
    return "\n".join(lines)


def run(config: RunConfig) -> bytes:
    """Execute one command and return the canonical report bytes."""
    if config.command == "examples":
        return _run_examples(config).encode("ascii")
    handlers = {
        "certify": _run_certify,
        "lightlike": _run_lightlike,
        "braid": _run_braid,
        "prolong": _run_prolong,
        "symspace": _run_symspace,
    }
    if config.command not in handlers:
        raise ValueError(f"unknown command '{config.command}'")
    return reportio.dump_bytes(handlers[config.command](config))


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-lab",
        description="kernel certificates for rigidity of curve-of-metric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="relative kernel tolerance")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", type=int, default=5, help="validation samples per axis")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument(
            "--kernel-basis", action="store_true", help="include kernel basis vectors"
        )

    p = sub.add_parser("certify", help="rigidity certificate for a chart")
    common(p)
    p.add_argument("--builtin", default=None)
    p.add_argument("--chart", default=None, help="chart JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--point", default=None, help="comma-separated base point")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-samples", dest="r_samples", default=None)
    p.add_argument("--params", default=None, help="builtin parameters as inline JSON")

    p = sub.add_parser("lightlike", help="sub-rigidity certificate for a degenerate metric")
    common(p)
    p.add_argument("--builtin", default=None)
    p.add_argument("--chart", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--params", default=None)

    p = sub.add_parser("braid", help="kernel of a braid-type system")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--J", dest="J", default=None)
    p.add_argument("--Jp", dest="Jp", default=None)
    p.add_argument(
        "--variant", choices=["generalized", "classical", "symskew"], default="generalized"
    )

    p = sub.add_parser("prolong", help="prolongation spaces and finite type")
    common(p)
    p.add_argument("--algebra", default=None, help="so | co | lightlike_orth | one_param | custom")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--R", default=None, help="matrix for one_param, inline JSON")
    p.add_argument("--generators", default=None, help="matrices for custom, inline JSON")
    p.add_argument("--max-order", dest="max_order", type=int, default=3)

    p = sub.add_parser("symspace", help="length and mean of a sampled curve of metrics")
    common(p)
    p.add_argument("--curve", default=None, help="curve JSON file")
    p.add_argument("--resample", type=int, default=None)

    p = sub.add_parser("examples", help="list the builtin catalog")
    common(p)
    p.add_argument("action", choices=["list"])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    tol = args.tol if args.tol is not None else _default_tol()
    if not 0.0 < tol < 1.0:
        raise ValueError(f"--tol must be in (0, 1), got {tol}")
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in {"command", "tol", "seed", "grid", "output", "kernel_basis"}
    }
    return RunConfig(
        command=args.command,
        options=options,
        tol=tol,
        seed=args.seed,
        grid=args.grid,
        output=args.output,
        kernel_basis=args.kernel_basis,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if config.output:
        with open(config.output, "wb") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report.decode("ascii"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
