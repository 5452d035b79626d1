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

from .braid import KernelReport, _braid_rows, solve_kernel
from .gcs import GcsChart, LightlikeChart
from .multilinear import SPECTRAL_TOL, sym_index_count

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


def _jet_kernel(
    h: np.ndarray,
    degree: int,
    coupling: np.ndarray | None,
    names: tuple[str, str | None],
    tol: float,
    want_basis: bool,
    dim: int | None = None,
) -> KernelReport:
    """Assemble and solve one jet level: the braid-type system of ``degree``
    with pairing ``h`` and, when given, the coupling form (see
    :func:`rigidity_lab.braid._braid_rows`).

    A lightlike level passes its total dimension ``dim``: ``h`` is then the
    base block, pairing and coupling are padded with zeros to ``dim``
    directions, and the coupled step lists its rows with the pair (u, v)
    outer.  The coupled order-2 level needs a nonzero coupling, since
    otherwise nothing constrains its shift gradient.
    """
    nb = len(h)
    dim = dim or nb
    pairing = np.zeros((nb, dim))
    pairing[:, :nb] = h
    if coupling is not None:
        scale = max(float(np.max(np.abs(h))), 1.0)
        if degree == 2 and float(np.max(np.abs(coupling))) <= tol * scale:
            raise ValueError(
                "the parameter derivative vanishes at this point; the shift "
                "gradient cannot be constrained there"
            )
        coupling, padded = np.zeros((dim, dim)), coupling
        coupling[:nb, :nb] = padded
    system = _braid_rows(pairing, degree, coupling, names)
    if coupling is not None and dim > nb:
        # the assembler runs (w1, w2) outer; step 2 lists (u, v) outer
        npairs = sym_index_count(dim, 2)
        system.row_ids = system.row_ids % npairs * npairs + system.row_ids // npairs
    return solve_kernel(system, tol=tol, want_basis=want_basis)


def level1_system(
    c: GcsChart, p, r, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the order-2 jet constraints with trivial base level.

    Rows run over w (outer) and (u, v) (inner):
    ``J(phi2(u, w), v) + J(phi2(v, w), u) + dk(w) J01(u, v) = 0``.  The
    kernel dimension counts the second-order jet freedoms compatible with
    the chart at (p, r); it is reported, not asserted zero.  Requires the
    parameter derivative J01 to be nonzero at the point.
    """
    jm, j01 = c.eval_metric(p, r).matrix, c.eval_partials(p, r, 0, 1)
    return _jet_kernel(jm, 2, j01, ("phi2", "dk"), tol, want_basis)


def level2_system(
    c: GcsChart, p, r, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the order-3 jet constraints with trivial order-2 data.

    This is the generalized braid system with forms J(p, r) and -J01(p, r);
    a zero kernel here is the content of a pointwise rigidity certificate.
    """
    jm, j01 = c.eval_metric(p, r).matrix, c.eval_partials(p, r, 0, 1)
    return _jet_kernel(jm, 3, -j01, ("A", "K"), tol, want_basis)


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
    x: list[float]
    dimension: int
    samples: list[PointReport]
    verdict: str
    unconstrained: list[str] = field(default_factory=list)


#: Certificate kind -> (least dimension the theorem covers, rigid verdict,
#: non-rigid verdict, jet components left unconstrained).
_KINDS = {
    "gcs": (3, "2-rigid", "non-rigid", []),
    "lightlike": (4, "(3,1) sub-rigid", "non-sub-rigid", LIGHTLIKE_UNCONSTRAINED),
}


def _point_verdict(
    kind: str, dimension: int, genericity: dict, deciding: list[KernelReport]
) -> str:
    """The theorem-level verdict at one point from the kernels that decide it."""
    least, rigid, non_rigid, _ = _KINDS[kind]
    if dimension < least:
        return "indeterminate-by-hypothesis"
    if any(k.verdict == "indeterminate" for k in deciding):
        return "indeterminate"
    if all(k.kernel_dim == 0 for k in deciding) and genericity["nondegenerate"]:
        return rigid
    if any(k.kernel_dim > 0 for k in deciding):
        return non_rigid
    return "indeterminate-by-hypothesis"


def _certificate(kind: str, chart, p, samples: list[PointReport]) -> Certificate:
    """A certificate over per-point reports: rigid as soon as one point is,
    else indeterminate, non-rigid or indeterminate-by-hypothesis, in that
    order."""
    _, rigid, non_rigid, unconstrained = _KINDS[kind]
    verdicts = [s.verdict for s in samples]
    verdict = next(
        (v for v in (rigid, "indeterminate", non_rigid) if v in verdicts),
        "indeterminate-by-hypothesis",
    )
    return Certificate(
        kind=kind,
        structure=chart.name,
        x=[float(v) for v in p],
        dimension=chart.n,
        samples=samples,
        verdict=verdict,
        unconstrained=list(unconstrained),
    )


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
        lvl1 = _jet_kernel(jm, 2, j01, ("phi2", "dk"), tol, want_basis)
        lvl2 = _jet_kernel(jm, 3, -j01, ("A", "K"), tol, want_basis)
        verdict = _point_verdict("gcs", c.n, genericity, [lvl2])
        samples.append(PointReport(r, genericity, lvl1, lvl2, verdict))
    return _certificate("gcs", c, p, samples)


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
    h = lc.eval_base_metric(p, t).matrix
    return _jet_kernel(h, 2, None, ("phi2", None), tol, want_basis, lc.n)


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
    h, h01 = lc.eval_base_metric(p, t).matrix, lc.eval_base_partials(p, t, 0, 1)
    return _jet_kernel(h, 3, h01, ("phi3", "delta2"), tol, want_basis, lc.n)


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
    step1 = _jet_kernel(h, 2, None, ("phi2", None), tol, want_basis, lc.n)
    step2 = _jet_kernel(h, 3, h01, ("phi3", "delta2"), tol, want_basis, lc.n)
    verdict = _point_verdict("lightlike", lc.n, genericity, [step1, step2])
    sample = PointReport(t, genericity, step1, step2, verdict)
    return _certificate("lightlike", lc, p, [sample])


# -- report documents -------------------------------------------------------


def kernel_report_doc(report: KernelReport, include_basis: bool = False) -> dict:
    doc = {
        "unknowns": report.unknowns,
        "equations": report.equations,
        "kernel_dim": report.kernel_dim,
        "singular_values": report.singular_values,
        "tol": report.tol,
        "gap_ratio": report.gap_ratio,
        "verdict": report.verdict,
    }
    if report.split is not None:
        doc["projection_dims"] = dict(sorted(report.split.items()))
    if report.pencil is not None:
        doc["pencil"] = report.pencil
    if include_basis and report.kernel_basis is not None:
        doc["kernel_basis"] = report.kernel_basis
        doc["unknown_labels"] = report.unknown_labels
    return doc


def certificate_doc(cert: Certificate, include_basis: bool = False) -> dict:
    """Certificate document with a fixed field order for golden-file tests;
    the report envelope adds the tool version, input hash and tolerances."""
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
        "kind": cert.kind,
        "structure": cert.structure,
        "point": {"x": cert.x, "r": cert.samples[0].r if len(cert.samples) == 1 else None},
        "dimension": cert.dimension,
        "samples": sample_docs,
        "verdict": cert.verdict,
    }
    if cert.kind == "lightlike":
        doc["unconstrained_jet_components"] = cert.unconstrained
    return doc
