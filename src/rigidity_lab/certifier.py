"""Jet-level rigidity certificates as kernel computations at a point.

For a chart of scalar products J(x, r), triviality of the next jet of a
point-fixing map is equivalent to the vanishing of the kernel of an
explicit homogeneous linear system in the unpinned jet data:

* level 1 (jets of order 2, base level trivial): the unknowns are the
  symmetric second derivative phi2 and the shift gradient dk, subject to

      dk(w) J01(u, v) + J(phi2(u, w), v) + J(u, phi2(v, w)) = 0;

  its kernel dimension is the residual second-order freedom, which is n for
  a ray of conformally flat metrics and never asserted to vanish.

* level 2 (jets of order 3, order-2 data trivial): the system over
  (phi3, d2k) is exactly the generalized braid system with forms J and
  -J01; it has zero kernel whenever J01 is nondegenerate and n >= 3.
  With the braid module's sign convention the K-block of a kernel element
  equals minus the shift Hessian.

The lightlike path runs the same program for a degenerate metric in one
dimension more: a first step pins the second derivative of the base map,
and the joint step over (phi3, delta2) pins the remaining order-2 data --
the (3,1) sub-rigidity of generic lightlike metrics in total dimension at
least 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reportio
from .braid import (
    GAP_VERDICT_THRESHOLD,
    KernelReport,
    LinearSystem,
    _braid_rows,
    generalized_braid_kernel,
    solve_kernel,
)
from .gcs import GcsChart, LightlikeChart, chart_to_doc
from .multilinear import SPECTRAL_TOL, BilinForm, sym_index_count

TOOL_VERSION = "0.1.0"

#: Jet components the lightlike certificate never constrains.
LIGHTLIKE_UNCONSTRAINED = [
    "third and higher derivatives of the fiber shift delta",
    "fourth and higher derivatives of the base map phi",
]


def _point_genericity(j: np.ndarray, j01: np.ndarray, tol: float) -> dict:
    scale = max(float(np.max(np.abs(j))), 1.0)
    eigs = np.linalg.eigvalsh((j01 + j01.T) / 2.0)
    abs_eigs = np.abs(eigs)
    nonzero = bool(np.max(np.abs(j01)) > tol * scale)
    nondegenerate = bool(nonzero and abs_eigs.min() > tol * max(abs_eigs.max(), 0.0))
    return {
        "nonzero": nonzero,
        "nondegenerate": nondegenerate,
        "min_abs_eigenvalue": float(abs_eigs.min()),
        "eigenvalues": [float(e) for e in eigs],
    }


def level1_system(
    c: GcsChart, p, r, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the order-2 jet constraints with trivial base level.

    The kernel dimension counts the second-order jet freedoms compatible
    with the chart at (p, r); it is reported, not asserted zero.  Requires
    the parameter derivative J01 to be nonzero at the point.
    """
    return _level1_report(
        c.eval_metric(p, r).matrix, c.eval_partials(p, r, 0, 1), tol, want_basis
    )


def _level1_report(
    jm: np.ndarray, j01: np.ndarray, tol: float, want_basis: bool
) -> KernelReport:
    scale = max(float(np.max(np.abs(jm))), 1.0)
    if float(np.max(np.abs(j01))) <= tol * scale:
        raise ValueError(
            "the parameter derivative vanishes at this point; the shift "
            "gradient cannot be constrained there"
        )
    system = _level1_linear_system(jm, j01, jm.shape[0])
    return solve_kernel(system, tol=tol, want_basis=want_basis, split_blocks=system.blocks)


def _level1_linear_system(jm: np.ndarray, j01: np.ndarray, n: int) -> LinearSystem:
    # rows over w (outer) and (u, v) (inner):
    #   J(phi2(u, w), v) + J(phi2(v, w), u) + dk(w) J01(u, v) = 0
    return _braid_rows(jm, 2, j01, names=("phi2", "dk"))


def level2_system(
    c: GcsChart, p, r, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the order-3 jet constraints with trivial order-2 data.

    Delegates to the generalized braid kernel with forms J(p, r) and
    -J01(p, r); a zero kernel here is the content of a pointwise rigidity
    certificate.
    """
    return _level2_report(
        c.eval_metric(p, r).matrix, c.eval_partials(p, r, 0, 1), tol, want_basis
    )


def _level2_report(
    jm: np.ndarray, j01: np.ndarray, tol: float, want_basis: bool
) -> KernelReport:
    return generalized_braid_kernel(
        BilinForm(jm), BilinForm(-j01), tol=tol, want_basis=want_basis
    )


@dataclass
class PointReport:
    r: float
    genericity: dict
    level1: KernelReport
    level2: KernelReport
    verdict: str


@dataclass
class Certificate:
    """Pointwise rigidity certificate over one or more parameter samples.

    The aggregate verdict certifies rigidity as soon as one sampled
    parameter value has both a nondegenerate parameter derivative and a
    vanishing level-2 kernel; it never claims more than the sampled points.
    """

    kind: str
    structure: str
    input_hash: str
    x: list[float]
    dimension: int
    samples: list[PointReport]
    verdict: str
    tolerances: dict
    unconstrained: list[str] = field(default_factory=list)


def _gcs_point_verdict(n: int, genericity: dict, level2: KernelReport) -> str:
    if n < 3:
        return "indeterminate-by-hypothesis"
    if level2.verdict == "indeterminate":
        return "indeterminate"
    if level2.kernel_dim == 0 and genericity["nondegenerate"]:
        return "2-rigid"
    if level2.kernel_dim > 0:
        return "non-rigid"
    return "indeterminate-by-hypothesis"


def _aggregate(verdicts: list[str], rigid_name: str) -> str:
    if any(v == rigid_name for v in verdicts):
        return rigid_name
    if all(v == "indeterminate-by-hypothesis" for v in verdicts):
        return "indeterminate-by-hypothesis"
    if any(v == "indeterminate" for v in verdicts):
        return "indeterminate"
    if any(v == "non-rigid" for v in verdicts) or any(v == "non-sub-rigid" for v in verdicts):
        return "non-rigid" if rigid_name == "2-rigid" else "non-sub-rigid"
    return "indeterminate-by-hypothesis"


def gcs_certificate(
    c: GcsChart,
    p,
    r_samples,
    tol: float = SPECTRAL_TOL,
    want_basis: bool = False,
) -> Certificate:
    """Run the genericity check and both jet levels at each sampled r.

    The level-1 kernel dimension is informational second-order freedom; the
    verdict rests on the level-2 kernel and the pointwise genericity of the
    parameter derivative.
    """
    rs = sorted(float(r) for r in np.atleast_1d(np.asarray(r_samples, dtype=float)))
    if not rs:
        raise ValueError("need at least one parameter sample")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    samples = []
    for r in rs:
        jm = c.eval_metric(p, r).matrix
        j01 = c.eval_partials(p, r, 0, 1)
        genericity = _point_genericity(jm, j01, tol)
        lvl1 = _level1_report(jm, j01, tol, want_basis)
        lvl2 = _level2_report(jm, j01, tol, want_basis)
        samples.append(
            PointReport(
                r=r,
                genericity=genericity,
                level1=lvl1,
                level2=lvl2,
                verdict=_gcs_point_verdict(c.n, genericity, lvl2),
            )
        )
    verdict = _aggregate([s.verdict for s in samples], "2-rigid")
    doc = {
        "chart": chart_to_doc(c),
        "x": [float(v) for v in p],
        "r_samples": rs,
        "tol": tol,
    }
    return Certificate(
        kind="gcs",
        structure=c.name,
        input_hash=reportio.input_hash(doc),
        x=[float(v) for v in p],
        dimension=c.n,
        samples=samples,
        verdict=verdict,
        tolerances={"kernel_tol": tol, "gap_threshold": GAP_VERDICT_THRESHOLD},
    )


# -- lightlike path --------------------------------------------------------


def lightlike_step1_system(
    lc: LightlikeChart, p, t, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the order-2 constraints on the base map of a fiber-preserving map.

    The unknown is the symmetric second derivative of the base component:
    arguments range over all directions of the total space, values lie in
    the base, and the pairing is the degenerate metric itself.  A
    positive-definite base restriction forces the kernel to vanish; no
    genericity is needed at this step.
    """
    return _step1_report(lc, lc.eval_base_metric(p, t).matrix, tol, want_basis)


def _step1_report(
    lc: LightlikeChart, h: np.ndarray, tol: float, want_basis: bool
) -> KernelReport:
    # g(phi2(u, w), v) pairs through the base block only
    system = _braid_rows(_padded(h, lc.base_dim, lc.n), 2, names=("phi2", None))
    return solve_kernel(system, tol=tol, want_basis=want_basis)


def _padded(form: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``form`` in the top-left corner of a zero rows x cols matrix."""
    out = np.zeros((rows, cols))
    out[: form.shape[0], : form.shape[1]] = form
    return out


def _lightlike_step2_linear_system(
    h: np.ndarray, h01: np.ndarray, nt: int, nb: int
) -> LinearSystem:
    system = _braid_rows(
        _padded(h, nb, nt), 3, _padded(h01, nt, nt), names=("phi3", "delta2")
    )
    # the assembler runs (w1, w2) outer; these rows run (u, v) outer
    npairs = sym_index_count(nt, 2)
    rows = system.rows.reshape(npairs, npairs, -1).swapaxes(0, 1).reshape(npairs**2, -1)
    return LinearSystem(system.unknown_labels, rows, system.blocks)


def lightlike_step2_system(
    lc: LightlikeChart, p, t, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Joint kernel over (phi3, delta2) of the degenerate braid-type system.

    Rows, over symmetric pairs (u, v) and (w1, w2) of all coordinate
    directions:

        g(phi3(u,w1,w2), v) + g(u, phi3(v,w1,w2)) + delta2(w1,w2) g01(u,v) = 0

    where g pairs through the base block and g01 is its t-derivative.  For
    a nondegenerate g01 and base dimension >= 3 the kernel is zero.
    """
    return _step2_report(
        lc, lc.eval_base_metric(p, t).matrix, lc.eval_base_partials(p, t, 0, 1), tol, want_basis
    )


def _step2_report(
    lc: LightlikeChart, h: np.ndarray, h01: np.ndarray, tol: float, want_basis: bool
) -> KernelReport:
    system = _lightlike_step2_linear_system(h, h01, lc.n, lc.base_dim)
    return solve_kernel(system, tol=tol, want_basis=want_basis, split_blocks=system.blocks)


def lightlike_subrigidity_certificate(
    lc: LightlikeChart,
    p,
    t,
    tol: float = SPECTRAL_TOL,
    want_basis: bool = False,
) -> Certificate:
    """Certify (3,1) sub-rigidity of a lightlike chart at a point.

    Both kernels (step 1 over phi2, joint step over (phi3, delta2)) must
    vanish and the t-derivative of the base block must be nondegenerate;
    the theorem-level verdict additionally needs total dimension >= 4,
    smaller charts still get their kernels reported.  The certificate
    names the jet components it leaves unconstrained, which is what makes
    this sub-rigidity rather than rigidity.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    t = float(t)
    h = lc.eval_base_metric(p, t).matrix
    h01 = lc.eval_base_partials(p, t, 0, 1)
    genericity = _point_genericity(h, h01, tol)
    step1 = _step1_report(lc, h, tol, want_basis)
    step2 = _step2_report(lc, h, h01, tol, want_basis)

    if lc.n < 4:
        verdict = "indeterminate-by-hypothesis"
    elif step1.verdict == "indeterminate" or step2.verdict == "indeterminate":
        verdict = "indeterminate"
    elif step1.kernel_dim == 0 and step2.kernel_dim == 0 and genericity["nondegenerate"]:
        verdict = "(3,1) sub-rigid"
    elif step1.kernel_dim > 0 or step2.kernel_dim > 0:
        verdict = "non-sub-rigid"
    else:
        verdict = "indeterminate-by-hypothesis"

    doc = {
        "chart": chart_to_doc(lc),
        "x": [float(v) for v in p],
        "t": t,
        "tol": tol,
    }
    sample = PointReport(
        r=t, genericity=genericity, level1=step1, level2=step2, verdict=verdict
    )
    return Certificate(
        kind="lightlike",
        structure=lc.name,
        input_hash=reportio.input_hash(doc),
        x=[float(v) for v in p],
        dimension=lc.n,
        samples=[sample],
        verdict=verdict,
        tolerances={"kernel_tol": tol, "gap_threshold": GAP_VERDICT_THRESHOLD},
        unconstrained=list(LIGHTLIKE_UNCONSTRAINED),
    )


# -- report documents -------------------------------------------------------


def kernel_report_doc(report: KernelReport, include_basis: bool = False) -> dict:
    doc = {
        "unknowns": report.unknowns,
        "equations": report.equations,
        "kernel_dim": report.kernel_dim,
        "singular_values": [float(s) for s in report.singular_values],
        "tol": report.tol,
        "gap_ratio": report.gap_ratio,
        "verdict": report.verdict,
    }
    if report.split is not None:
        doc["projection_dims"] = dict(sorted(report.split.items()))
    if include_basis and report.kernel_basis is not None:
        doc["kernel_basis"] = [[float(v) for v in vec] for vec in report.kernel_basis]
        doc["unknown_labels"] = [
            [name, list(idx), out] for name, idx, out in report.unknown_labels
        ]
    return doc


def certificate_doc(cert: Certificate, include_basis: bool = False) -> dict:
    """Certificate document with a fixed field order for golden-file tests."""
    sample_docs = []
    for s in cert.samples:
        key1 = "level1" if cert.kind == "gcs" else "step1"
        key2 = "level2" if cert.kind == "gcs" else "step2"
        sample_docs.append(
            {
                "r": s.r,
                "genericity": s.genericity,
                key1: kernel_report_doc(s.level1, include_basis),
                key2: kernel_report_doc(s.level2, include_basis),
                "verdict": s.verdict,
            }
        )
    doc = {
        "tool_version": TOOL_VERSION,
        "kind": cert.kind,
        "structure": cert.structure,
        "input_hash": cert.input_hash,
        "point": {"x": cert.x, "r": cert.samples[0].r if len(cert.samples) == 1 else None},
        "dimension": cert.dimension,
        "samples": sample_docs,
        "verdict": cert.verdict,
        "tolerances": cert.tolerances,
    }
    if cert.kind == "lightlike":
        doc["unconstrained_jet_components"] = cert.unconstrained
    return doc
