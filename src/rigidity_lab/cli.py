"""Batch front-end: deterministic JSON reports over the library's operations.

Each command takes only the flags it reads, and each handler reads the
parsed arguments; every default lives in the argument parser.  One envelope
writes every report's metadata: the tool version and the command, then the
grid and resolved tolerances of the commands that take ``--grid`` and
``--tol``, then the canonical ``input`` document and ``input_hash``, the
sha256 of that document's canonical bytes (written once: the report embeds
the bytes it hashes), so a report can be reproduced, and checked, from its
own metadata.  Byte-identical output for identical inputs is a contract
covered by golden-file tests.
Exit status 0 means the run completed (verdicts live in the report, not the
exit code), 2 flags invalid input or an ``--output`` path that cannot be
written, and 3 a numerical failure: a
decomposition that did not converge or an arithmetic error the input
checks did not anticipate.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, reportio
from .braid import (
    GAP_VERDICT_THRESHOLD,
    check_unknowns,
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
    DEFAULT_GRID,
    LightlikeChart,
    builtin_chart,
    chart_from_doc,
    chart_to_doc,
    genericity_report,
    lift_to_lightlike,
)
from .multilinear import SPECTRAL_TOL
from .prolongation import (
    ALGEBRAS,
    FiniteType,
    InfiniteType,
    builtin_algebra,
    check_max_order,
    finite_type,
)
from .symspace import SpdCurve, arclength_reparam, circle_mean, curve_length

#: The Python types of JSON numbers; bool subclasses int, but a JSON true or
#: false is no number, so entries are tested with ``type(v) in``, and a pass
#: over many entries with ``set(map(type, entries)) <=``.
_JSON_NUMBERS = frozenset((int, float))


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise ValueError(f"cannot parse float list from {text!r}") from exc


def _json_matrix(value, what: str) -> np.ndarray:
    """A JSON square matrix, a list of equally long rows of numbers, as a
    float array; every refusal names ``what``, and a ragged row or an entry
    that is no number also its row."""
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
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def _parse_matrix(spec: str, n: int | None, flag: str) -> np.ndarray:
    """The matrix of ``flag``: 'identity', 'minkowski', 'diag:a,b,c', or
    inline JSON; a given ``n`` must be its dimension."""
    if spec in ("identity", "minkowski"):
        if n is None:
            raise ValueError(f"matrix spec {spec!r} needs --n")
        if n < 1:
            raise ValueError(f"--n {n}: form has dimension {n}, need at least 1")
        m = np.eye(n)
        if spec == "minkowski":
            m[0, 0] = -1.0
    elif spec.startswith("diag:"):
        m = np.diag(_parse_floats(spec[len("diag:") :]))
    else:
        m = _json_matrix(json.loads(spec), "matrix JSON")
    if n is not None and len(m) != n:
        raise ValueError(f"--n {n} differs from the dimension {len(m)} of {flag}")
    return m


def _load_json_file(path: str, object_hook=None):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=object_hook)


def _resolve_chart(args: argparse.Namespace):
    if args.chart:
        for flag in ("builtin", "n", "params"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is not read next to --chart")
        return chart_from_doc(_load_json_file(args.chart), grid=args.grid)
    if args.builtin:
        params = json.loads(args.params) if args.params else None
        return builtin_chart(args.builtin, n=args.n, params=params, grid=args.grid)
    raise ValueError("need either --builtin or --chart")


def _envelope(args: argparse.Namespace, input_doc: dict, payload: dict) -> dict:
    """The report: its metadata, ``input_doc`` with its hash, then ``payload``;
    grid and tolerances only of the commands that take those flags."""
    flags = vars(args)
    doc = {"tool": "rigidity-lab", "tool_version": __version__, "command": args.command}
    if "grid" in flags:
        doc["grid"] = args.grid
    if "tol" in flags:
        doc["tolerances"] = {"kernel_tol": args.tol, "gap_threshold": GAP_VERDICT_THRESHOLD}
    # written once: the report embeds these canonical bytes and hashes them
    embedded = reportio.Embedded(input_doc)
    doc["input"] = embedded
    doc["input_hash"] = embedded.sha256()
    doc.update(payload)
    return doc


# -- command handlers --------------------------------------------------------


def _run_certify(args: argparse.Namespace) -> dict:
    if args.r is not None and args.r_samples is not None:
        raise ValueError("--r is not read next to --r-samples")
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
    payload = certificate_doc(cert)
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
    return _envelope(args, input_doc, certificate_doc(cert))


def _run_braid(args: argparse.Namespace) -> dict:
    # the forms default to identity only in the variants that read them
    read = {"symskew": (), "classical": ("J",), "generalized": ("J", "Jp")}[args.variant]
    for flag in ("J", "Jp"):
        if getattr(args, flag) is None:
            setattr(args, flag, "identity")
        elif flag not in read:
            raise ValueError(f"--{flag} is not read by braid --variant {args.variant}")
    if args.n is not None:  # before --n builds an identity form
        check_unknowns(args.variant, args.n)
    if args.variant == "symskew":
        if args.n is None:
            raise ValueError("braid --variant symskew needs --n")
        report = trilinear_symskew_kernel(args.n, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "n": args.n, "tol": args.tol}
    elif args.variant == "classical":
        j = _parse_matrix(args.J, args.n, "--J")
        report = classical_braid_kernel(j, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "J": j, "tol": args.tol}
    else:
        j, jp = _parse_matrix(args.J, args.n, "--J"), _parse_matrix(args.Jp, args.n, "--Jp")
        report = generalized_braid_kernel(j, jp, tol=args.tol, want_basis=args.kernel_basis)
        input_doc = {"variant": args.variant, "J": j, "Jp": jp, "tol": args.tol}
    return _envelope(args, input_doc, {"report": kernel_report_doc(report)})


def _finite_type_doc(result) -> dict:
    if isinstance(result, InfiniteType):
        w = result.witness
        return {
            "kind": "infinite",
            "witness": {"matrix": w.matrix, "a": w.a, "v": w.v, "sigma_ratio": w.sigma_ratio},
        }
    dims = {str(k): v for k, v in sorted(result.dims.items())}
    if isinstance(result, FiniteType):
        return {"kind": "finite", "order": result.order, "dims": dims}
    return {"kind": "unknown_beyond", "max_order": result.max_order, "dims": dims}


def _run_prolong(args: argparse.Namespace) -> dict:
    for name, spec in ALGEBRAS.items():
        if spec.reads != "n" and getattr(args, spec.reads) is not None and args.algebra != name:
            raise ValueError(f"--{spec.reads} is read only by --algebra {name}, not {args.algebra}")
    r_matrix = _json_matrix(json.loads(args.R), "R") if args.R else None
    generators = None
    if args.generators:
        generators = json.loads(args.generators)
        if not isinstance(generators, list):
            raise ValueError("--generators must be a JSON list of matrices")
        generators = [_json_matrix(g, f"generator {k}") for k, g in enumerate(generators)]
    spec = ALGEBRAS.get(args.algebra)
    if spec and spec.reads == "n" and args.n is not None and args.n >= 1:
        # --n alone sets the size: refuse an oversized run before the basis is built
        check_max_order(args.n, args.max_order)
    algebra = builtin_algebra(args.algebra, n=args.n, r_matrix=r_matrix, generators=generators)
    if args.n is not None and args.n != algebra.n:
        raise ValueError(f"--n {args.n} differs from the dimension {algebra.n} of the algebra")
    result = finite_type(algebra, max_order=args.max_order, tol=args.tol)
    # a finite type stops at its first vanishing order: g^(d) = 0 forces every
    # higher prolongation to vanish, so the orders above it read 0 unsolved
    dims = {str(d): result.dims.get(d, 0) for d in range(1, args.max_order + 1)}
    input_doc = {
        "algebra": args.algebra,
        "n": algebra.n,
        "R": r_matrix,
        "generators": generators,
        "max_order": args.max_order,
        "tol": args.tol,
    }
    payload = {
        "algebra_dim": algebra.dim,
        "prolongation_dims": dims,
        "type": _finite_type_doc(result),
    }
    return _envelope(args, input_doc, payload)


#: The keys of a curve sample.
_SAMPLE_KEYS = frozenset(("t", "matrix"))


class _CurveSamples:
    """A ``json.load`` object hook that reads curve samples into float
    arrays while the file is parsed, so the parsed tree of a curve never
    exists whole.

    Each object with exactly the keys ``t`` and ``matrix`` is replaced in
    the document by the marker ``SAMPLE``; its parameter and matrix are
    held until ``BATCH`` samples are pending.  Each batch is then checked
    in passes over all its samples, rows and entries at once: every ``t`` a
    number, every matrix n lists of n numbers (n from the first sample),
    floats that do not overflow; and appended to the arrays.  Once a batch
    fails, :meth:`arrays` reads no curve from the document.
    """

    SAMPLE = object()

    #: Samples whose parsed parameter and matrix are held at once.
    BATCH = 64

    def __init__(self):
        from array import array  # loaded by this command alone

        self.params = array("d")
        self.entries = array("d")
        self.n = None
        self.refused = False
        self._ts, self._matrices = [], []

    def __call__(self, obj: dict):
        if obj.keys() != _SAMPLE_KEYS:
            return obj
        self._ts.append(obj["t"])
        self._matrices.append(obj["matrix"])
        if len(self._ts) == self.BATCH:
            self._flush()
        return self.SAMPLE

    def _flush(self) -> None:
        ts, matrices = self._ts, self._matrices
        self._ts, self._matrices = [], []
        if ts and not self.refused:
            self.refused = not self._append(ts, matrices)

    def _append(self, ts: list, matrices: list) -> bool:
        """Append a batch of samples to the arrays; False if one is no
        well-formed sample."""
        if not set(map(type, ts)) <= _JSON_NUMBERS or set(map(type, matrices)) != {list}:
            return False
        n = len(matrices[0]) if self.n is None else self.n
        rows = list(chain.from_iterable(matrices))
        if set(map(len, matrices)) != {n} or set(map(type, rows)) != {list}:
            return False
        # the float conversion alone would also read booleans
        flat = list(chain.from_iterable(rows))
        if set(map(len, rows)) != {n} or not set(map(type, flat)) <= _JSON_NUMBERS:
            return False
        try:
            self.entries.fromlist(flat)
            self.params.fromlist(ts)
        except OverflowError:  # an integer beyond the float range, named by the walk
            return False
        self.n = n
        return True

    def arrays(self, samples) -> tuple[np.ndarray, np.ndarray] | None:
        """The parameters and the matrices, as given, when ``samples`` is a
        list of every sample read, in order, and each is well formed; else
        None."""
        self._flush()
        count = len(self.params)
        if self.refused or type(samples) is not list:
            return None
        if not 0 < len(samples) == count == samples.count(self.SAMPLE):
            return None
        matrices = np.frombuffer(self.entries, dtype=float).reshape(count, self.n, self.n)
        return np.frombuffer(self.params, dtype=float), matrices


def _curve_params(ts: list) -> np.ndarray:
    try:
        return np.array(ts, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"curve sample out of float range: {exc}") from exc


def _walk_curve(samples: list) -> tuple[np.ndarray, np.ndarray]:
    """The curve's samples read one at a time, for a document that
    :class:`_CurveSamples` did not read: the first sample that is no object
    with a numeric ``t`` and a matrix of numbers, or whose matrix differs in
    shape from sample 0's, is named."""
    ts = []
    for k, s in enumerate(samples):
        if not isinstance(s, dict):
            raise ValueError(f"sample {k} must be an object with fields 't' and 'matrix'")
        odd = sorted({"t", "matrix"} ^ set(s))  # missing or unknown fields
        if odd:
            what = "unknown" if odd[0] in s else "missing"
            raise ValueError(f"sample {k}: {what} field '{odd[0]}'")
        t = s["t"]
        if type(t) not in _JSON_NUMBERS:
            raise ValueError(f"sample {k}: parameter is no number: {json.dumps(t)}")
        ts.append(t)
    params = _curve_params(ts)
    checked = [_json_matrix(s["matrix"], f"sample {k}: matrix") for k, s in enumerate(samples)]
    for k, m in enumerate(checked):
        if m.shape != checked[0].shape:
            raise ValueError(
                f"sample {k}: matrix has shape {m.shape}, sample 0 has {checked[0].shape}"
            )
    return params, np.array(checked)


def _read_curve(path: str) -> tuple[bool, np.ndarray, np.ndarray]:
    """``closed`` and the parameters and matrices, as given, of a curve file.

    The samples are read into arrays as they are parsed; a document that is
    not a well-formed curve is read again as a tree, which is checked field
    by field and sample by sample to name the first offender.
    """
    samples = _CurveSamples()
    doc = _load_json_file(path, samples)
    if type(doc) is dict and doc.keys() <= {"closed", "samples"}:
        closed = doc.get("closed", False)
        arrays = samples.arrays(doc.get("samples"))
        if type(closed) is bool and arrays is not None:
            return (closed, *arrays)
    del doc, samples
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise ValueError("curve document must be a JSON object")
    unknown = set(doc) - {"closed", "samples"}
    if unknown:
        raise ValueError(f"unknown curve field(s): {', '.join(sorted(unknown))}")
    closed = doc.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"curve field 'closed' must be true or false, got {json.dumps(closed)}")
    samples = doc.get("samples")
    if not samples or not isinstance(samples, list):
        raise ValueError("curve field 'samples' must be a nonempty list of samples")
    return (closed, *_walk_curve(samples))


def _run_symspace(args: argparse.Namespace) -> dict:
    if not args.curve:
        raise ValueError("need --curve FILE with the sampled curve")
    closed, params, matrices = _read_curve(args.curve)
    curve = SpdCurve(params, matrices, closed=closed)
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
    # the resolved curve: its samples as read, before SpdCurve symmetrizes them
    resolved = {"closed": closed, "samples": reportio.Records({"t": params, "matrix": matrices})}
    return _envelope(args, {"curve": resolved}, payload)


def _run_examples() -> str:
    lines = ["builtin structures:"]
    width = max(len(k) for k in BUILTINS) + 2
    for name, spec in sorted(BUILTINS.items()):
        lines.append(f"  {name.ljust(width)}{spec.kind.ljust(11)}{spec.description}")
    lines.append("")
    lines.append("builtin algebras:")
    awidth = max(len(k) for k in ALGEBRAS) + 2
    for name, spec in sorted(ALGEBRAS.items()):
        lines.append(f"  {name.ljust(awidth)}{spec.description}")
    lines.append("")
    return "\n".join(lines)


def run(args: argparse.Namespace, fh) -> None:
    """Execute the parsed command, its ``tol`` (if it takes one) resolved, and
    write the canonical report bytes to the binary sink ``fh``."""
    if args.command == "examples":
        fh.write(_run_examples().encode("ascii"))
        return
    handlers = {
        "certify": _run_certify,
        "lightlike": _run_lightlike,
        "braid": _run_braid,
        "prolong": _run_prolong,
        "symspace": _run_symspace,
    }
    reportio.dump_bytes(handlers[args.command](args), fh)


# -- argument parsing ---------------------------------------------------------


#: The flags that several commands read; each command names those it takes.
_SHARED_FLAGS = {
    "tol": (
        "--tol", {"type": float, "default": SPECTRAL_TOL, "help": "relative kernel tolerance"}
    ),
    "grid": (
        "--grid", {"type": int, "default": DEFAULT_GRID, "help": "validation samples per axis"}
    ),
    "kernel_basis": (
        "--kernel-basis", {"action": "store_true", "help": "include kernel basis vectors"}
    ),
}


@lru_cache(maxsize=None)
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
    p.add_argument("--J", dest="J", default=None, help="form J (default identity)")
    p.add_argument("--Jp", dest="Jp", default=None, help="form Jp (default identity)")
    p.add_argument(
        "--variant", choices=["generalized", "classical", "symskew"], default="generalized"
    )

    p = command("prolong", "prolongation spaces and finite type", "tol")
    p.add_argument("--algebra", default="custom", help=" | ".join(ALGEBRAS))
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


class _WriteFailed(Exception):
    """A write of the report to its ``--output`` file failed."""


class _Stdout:
    """The binary sink of a report written to standard output."""

    @staticmethod
    def write(data: bytes) -> None:
        sys.stdout.write(data.decode("ascii"))


class _ReportFile:
    """The binary sink of a report written to ``--output``.

    The file is created at the first write, which comes after the whole
    report is rendered, so a run that fails before then leaves an existing
    file as it was.  A write that fails raises :class:`_WriteFailed`.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    def write(self, data: bytes) -> None:
        try:
            if self._fh is None:
                self._fh = open(self.path, "wb")
            self._fh.write(data)
        except OSError as exc:
            raise _WriteFailed(exc.strerror) from exc

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError as exc:
                raise _WriteFailed(exc.strerror) from exc

    def discard(self) -> None:
        """Close and remove the file, if this run created it."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            if os.path.isfile(self.path):
                os.remove(self.path)


@contextmanager
def _report_sink(path: str | None):
    """The sink a run writes its report to: standard output, or the file
    ``path``, which is removed when the run fails after creating it."""
    if path is None:
        yield _Stdout
        return
    sink = _ReportFile(path)
    try:
        yield sink
        sink.close()
    except BaseException:
        sink.discard()
        raise


@lru_cache(maxsize=None)
def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or None
    when numpy was built against another BLAS.  The library is only looked
    up among those already loaded, never loaded a second time."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the old count (no
    call at all when it is one already): a threaded BLAS splits its sums
    differently, so the last bits of a dense decomposition, and so a
    report's bytes, would depend on the count."""
    get, set_ = _openblas_threads() or (lambda: 1, None)
    old = get()
    if old == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(old)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "tol" in vars(args) and not 0.0 < args.tol < 1.0:
            raise ValueError(f"--tol must be in (0, 1), got {args.tol}")
        with _one_blas_thread(), _report_sink(args.output) as sink:
            run(args, sink)
    except _WriteFailed as exc:
        print(f"error: cannot write report to {args.output}: {exc}", file=sys.stderr)
        return 2
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
    except MemoryError as exc:  # an input that passed the size checks
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
