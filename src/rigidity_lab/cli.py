"""Batch front-end: deterministic JSON reports over the library's operations.

Each command takes only the flags it reads, and each handler reads the
parsed arguments; every default lives in the argument parser.  One envelope
writes every report's metadata: the tool version and the command, then the
seed, grid and resolved tolerances of the commands that take ``--seed``,
``--grid`` and ``--tol``, then the canonical ``input`` document and
``input_hash``, the sha256 of that document's canonical bytes, so a report
can be reproduced, and checked, from its own metadata.  Byte-identical
output for identical inputs is a contract covered by golden-file tests.
Exit status 0 means the run completed (verdicts live in the report, not the
exit code), 2 flags invalid input and 3 a numerical failure: a
decomposition that did not converge or an arithmetic error the input
checks did not anticipate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, reportio
from .braid import (
    GAP_VERDICT_THRESHOLD,
    classical_braid_kernel,
    generalized_braid_kernel,
    trilinear_symskew_kernel,
)
from .certifier import (
    certificate_doc,
    gcs_certificate,
    kernel_report_doc,
    lightlike_subrigidity_certificate,
)
from .gcs import (
    BUILTINS,
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

#: The Python types of JSON numbers; bool subclasses int, but a JSON true or
#: false is no number, so entries are tested with ``type(v) in``.
_JSON_NUMBERS = (int, float)


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
    array; every refusal names ``what``, and a ragged row or an entry that
    is no number also its row."""
    if isinstance(value, list) and all(isinstance(row, list) for row in value):
        for k, row in enumerate(value):
            if len(row) != len(value[0]):
                raise ValueError(
                    f"{what} row {k} has {len(row)} entries, row 0 has {len(value[0])}"
                )
            for entry in row:
                if type(entry) not in _JSON_NUMBERS:
                    raise ValueError(
                        f"{what} row {k} has an entry that is no number: {json.dumps(entry)}"
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
        d[:1] = -1.0  # n = 0 leaves an empty form, which braid refuses
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


def _resolve_chart(args: argparse.Namespace):
    if args.chart:
        return chart_from_doc(_load_json_file(args.chart), grid=args.grid)
    if args.builtin:
        params = json.loads(args.params) if args.params else None
        return builtin_chart(args.builtin, n=args.n, params=params, grid=args.grid)
    raise ValueError("need either --builtin or --chart")


def _envelope(args: argparse.Namespace, input_doc: dict, payload: dict) -> dict:
    """The report: its metadata, ``input_doc`` with its hash, then ``payload``;
    seed, grid and tolerances only of the commands that take those flags."""
    flags = vars(args)
    doc = {"tool": "rigidity-lab", "tool_version": __version__, "command": args.command}
    if "seed" in flags:
        doc["seed"] = args.seed
    if "grid" in flags:
        doc["grid"] = args.grid
    if "tol" in flags:
        doc["tolerances"] = {"kernel_tol": args.tol, "gap_threshold": GAP_VERDICT_THRESHOLD}
    doc["input"] = input_doc
    doc["input_hash"] = reportio.input_hash(input_doc)
    doc.update(payload)
    return doc


# -- command handlers --------------------------------------------------------


def _run_certify(args: argparse.Namespace) -> dict:
    chart = _resolve_chart(args)
    if isinstance(chart, LightlikeChart):
        raise ValueError("certify expects a curve-of-metrics chart; use the lightlike command")
    point = _parse_floats(args.point) if args.point else [0.0] * chart.n
    if args.r_samples:
        rs = _parse_floats(args.r_samples)
    elif args.r is not None:
        rs = [args.r]
    else:
        raise ValueError("need --r or --r-samples")
    cert = gcs_certificate(chart, point, rs, tol=args.tol, want_basis=args.kernel_basis)
    gen = genericity_report(chart, tol=args.tol)
    payload = certificate_doc(cert, include_basis=args.kernel_basis)
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
        "tol": args.tol,
        "grid": args.grid,
    }
    return _envelope(args, input_doc, payload)


def _run_lightlike(args: argparse.Namespace) -> dict:
    chart = _resolve_chart(args)
    if not isinstance(chart, LightlikeChart):
        chart = lift_to_lightlike(chart)
    point = _parse_floats(args.point) if args.point else [0.0] * chart.base_dim
    if args.r is None:
        raise ValueError("need --r (the kernel-coordinate value)")
    cert = lightlike_subrigidity_certificate(
        chart, point, args.r, tol=args.tol, want_basis=args.kernel_basis
    )
    input_doc = {
        "chart": chart_to_doc(chart),
        "point": point,
        "t": args.r,
        "tol": args.tol,
        "grid": args.grid,
    }
    return _envelope(args, input_doc, certificate_doc(cert, include_basis=args.kernel_basis))


def _run_braid(args: argparse.Namespace) -> dict:
    if args.variant == "symskew":
        if args.n is None:
            raise ValueError("braid --variant symskew needs --n")
        report = trilinear_symskew_kernel(args.n, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "n": args.n, "tol": args.tol}
    elif args.variant == "classical":
        j = _parse_matrix(args.J, args.n)
        report = classical_braid_kernel(j, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "J": j, "tol": args.tol}
    else:
        j, jp = _parse_matrix(args.J, args.n), _parse_matrix(args.Jp, args.n)
        report = generalized_braid_kernel(j, jp, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "J": j, "Jp": jp, "tol": args.tol}
    return _envelope(args, input_doc, {"report": kernel_report_doc(report, args.kernel_basis)})


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
            "witness": {"matrix": w.matrix, "a": w.a, "v": w.v, "sigma_ratio": w.sigma_ratio},
        }
    assert isinstance(result, UnknownBeyond)
    return {
        "kind": "unknown_beyond",
        "max_order": result.max_order,
        "dims": {str(k): v for k, v in sorted(result.dims.items())},
    }


def _run_prolong(args: argparse.Namespace) -> dict:
    r_matrix = _json_matrix(json.loads(args.R), "R") if args.R else None
    generators = None
    if args.generators:
        generators = [
            _json_matrix(g, f"generator {k}")
            for k, g in enumerate(json.loads(args.generators))
        ]
    algebra = builtin_algebra(args.algebra, n=args.n, r_matrix=r_matrix, generators=generators)
    # unknowns grow with the order, so the highest order bounds them all
    unknowns = prolongation_unknowns(algebra.n, args.max_order)
    if unknowns > SIZE_CAP:
        raise ValueError(
            f"prolongation order {args.max_order} would have {unknowns} unknowns "
            f"(cap {SIZE_CAP}); reduce --n or --max-order"
        )
    result = finite_type(algebra, max_order=args.max_order, tol=args.tol, seed=args.seed)
    # orders that finite_type solved are not solved again
    solved = {} if isinstance(result, InfiniteType) else result.dims
    dims = {}
    for d in range(1, args.max_order + 1):
        if d in solved:
            dims[str(d)] = solved[d]
        else:
            dims[str(d)] = prolongation_space(algebra, d, tol=args.tol).dim
    input_doc = {
        "algebra": args.algebra,
        "n": algebra.n,
        "R": r_matrix,
        "generators": generators,
        "max_order": args.max_order,
        "tol": args.tol,
        "seed": args.seed,
    }
    payload = {
        "algebra_dim": algebra.dim,
        "prolongation_dims": dims,
        "type": _finite_type_doc(result),
    }
    return _envelope(args, input_doc, payload)


def _run_symspace(args: argparse.Namespace) -> dict:
    if not args.curve:
        raise ValueError("need --curve FILE with the sampled curve")
    doc = _load_json_file(args.curve)
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
    ts = []
    for k, s in enumerate(samples):
        t = s["t"]
        if type(t) not in _JSON_NUMBERS:
            raise ValueError(f"sample {k}: parameter is no number: {json.dumps(t)}")
        ts.append(t)
    try:
        ts = np.array(ts, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"curve sample out of float range: {exc}") from exc
    matrices = [s["matrix"] for s in samples]
    try:
        # the float conversion alone would also read numeric strings and booleans
        numbers = all(type(v) in _JSON_NUMBERS for m in matrices for row in m for v in row)
        mats = np.array(matrices, dtype=float)
    except (OverflowError, ValueError, TypeError):
        numbers = False
    if not numbers:
        # name the first sample that is no matrix of numbers or differs in shape from sample 0
        checked = [_json_matrix(m, f"sample {k}: matrix") for k, m in enumerate(matrices)]
        for k, m in enumerate(checked):
            if m.shape != checked[0].shape:
                raise ValueError(
                    f"sample {k}: matrix has shape {m.shape}, sample 0 has {checked[0].shape}"
                )
        mats = np.array(checked)
    curve = SpdCurve(ts, mats, closed=closed)
    length = curve_length(curve)
    payload = {
        "samples": curve.params.size,
        "dimension": curve.n,
        "closed": curve.closed,
        "length": length,
    }
    if curve.closed:
        payload["mean"] = circle_mean(curve).matrix
    if args.resample is not None:
        re = arclength_reparam(curve, args.resample)
        payload["resampled"] = {
            "samples": args.resample,
            "length": curve_length(re),
            "params": re.params,
        }
    return _envelope(args, {"curve": doc}, payload)


def _run_examples() -> str:
    lines = ["builtin structures:"]
    width = max(len(k) for k in BUILTINS) + 2
    for name, spec in sorted(BUILTINS.items()):
        lines.append(f"  {name.ljust(width)}{spec.kind.ljust(11)}{spec.description}")
    lines.append("")
    lines.append("builtin algebras:")
    awidth = max(len(k) for k in ALGEBRA_DESCRIPTIONS) + 2
    for name in sorted(ALGEBRA_DESCRIPTIONS):
        lines.append(f"  {name.ljust(awidth)}{ALGEBRA_DESCRIPTIONS[name]}")
    lines.append("")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> bytes:
    """Execute the parsed command, its ``tol`` (if it takes one) resolved, and
    return the canonical report bytes."""
    if args.command == "examples":
        return _run_examples().encode("ascii")
    handlers = {
        "certify": _run_certify,
        "lightlike": _run_lightlike,
        "braid": _run_braid,
        "prolong": _run_prolong,
        "symspace": _run_symspace,
    }
    return reportio.dump_bytes(handlers[args.command](args))


# -- argument parsing ---------------------------------------------------------


#: The flags that several commands read; each command names those it takes.
_SHARED_FLAGS = {
    "tol": ("--tol", {"type": float, "default": None, "help": "relative kernel tolerance"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "grid": ("--grid", {"type": int, "default": 5, "help": "validation samples per axis"}),
    "kernel_basis": (
        "--kernel-basis", {"action": "store_true", "help": "include kernel basis vectors"}
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-lab",
        description="kernel certificates for rigidity of curve-of-metric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            option, kwargs = _SHARED_FLAGS[flag]
            p.add_argument(option, **kwargs)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        return p

    p = command("certify", "rigidity certificate for a chart", "tol", "grid", "kernel_basis")
    p.add_argument("--builtin", default=None)
    p.add_argument("--chart", default=None, help="chart JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--point", default=None, help="comma-separated base point")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-samples", dest="r_samples", default=None)
    p.add_argument("--params", default=None, help="builtin parameters as inline JSON")

    p = command(
        "lightlike", "sub-rigidity certificate for a degenerate metric",
        "tol", "grid", "kernel_basis",
    )
    p.add_argument("--builtin", default=None)
    p.add_argument("--chart", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--params", default=None)

    p = command("braid", "kernel of a braid-type system", "tol", "kernel_basis")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--J", dest="J", default="identity")
    p.add_argument("--Jp", dest="Jp", default="identity")
    p.add_argument(
        "--variant", choices=["generalized", "classical", "symskew"], default="generalized"
    )

    p = command("prolong", "prolongation spaces and finite type", "tol", "seed")
    p.add_argument(
        "--algebra", default="custom", help="so | co | lightlike_orth | one_param | custom"
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--R", default=None, help="matrix for one_param, inline JSON")
    p.add_argument("--generators", default=None, help="matrices for custom, inline JSON")
    p.add_argument("--max-order", dest="max_order", type=int, default=3)

    p = command("symspace", "length and mean of a sampled curve of metrics")
    p.add_argument("--curve", default=None, help="curve JSON file")
    p.add_argument("--resample", type=int, default=None)

    p = command("examples", "list the builtin catalog")
    p.add_argument("action", choices=["list"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "tol" in vars(args):
            if args.tol is None:
                args.tol = _default_tol()
            if not 0.0 < args.tol < 1.0:
                raise ValueError(f"--tol must be in (0, 1), got {args.tol}")
        report = run(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    # LinAlgError subclasses ValueError, so it is caught before invalid input
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report.decode("ascii"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
