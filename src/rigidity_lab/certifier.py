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

The lightlike path runs the same program for a degenerate metric g in one
dimension more, pairing through its base block and the block's
t-derivative g01.  Step 1 pins the second derivative phi2 of the base map
(arguments in every direction, values in the base); a positive-definite
base block forces its kernel to vanish without any genericity.  The joint
step 2 over (phi3, delta2), with rows over symmetric pairs (u, v) and
(w1, w2) of all directions,

    g(phi3(u,w1,w2), v) + g(u, phi3(v,w1,w2)) + delta2(w1,w2) g01(u,v) = 0,

pins the remaining order-2 data when g01 is nondegenerate and the base has
dimension at least 3 -- the (3,1) sub-rigidity of generic lightlike metrics
in total dimension at least 4.

One table (``_KINDS``) holds each kind's two levels and verdict words, and
one point function runs genericity, level 1, level 2 and the verdict for
both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


class _Level(NamedTuple):
    """One jet level: its report key, the degree of its braid-type system,
    the sign with which the parameter derivative couples into it (None: it
    does not), and the names of its two unknown blocks."""

    key: str
    degree: int
    coupling: int | None
    names: tuple[str, str | None]


class _Kind(NamedTuple):
    """A certificate kind: the least dimension its theorem covers, its rigid
    and non-rigid verdicts, the jet components it leaves unconstrained, its
    two levels, and the first level whose kernel decides the verdict."""

    least: int
    rigid: str
    non_rigid: str
    unconstrained: list[str]
    levels: tuple[_Level, _Level]
    deciding: int


_KINDS = {
    "gcs": _Kind(
        3, "2-rigid", "non-rigid", [],
        (_Level("level1", 2, 1, ("phi2", "dk")), _Level("level2", 3, -1, ("A", "K"))),
        1,
    ),
    "lightlike": _Kind(
        4, "(3,1) sub-rigid", "non-sub-rigid", LIGHTLIKE_UNCONSTRAINED,
        (_Level("step1", 2, None, ("phi2", None)), _Level("step2", 3, 1, ("phi3", "delta2"))),
        0,
    ),
}


def _jet_kernel(
    h: np.ndarray, h01: np.ndarray, level: _Level, dim: int, tol: float, want_basis: bool
) -> KernelReport:
    """Assemble and solve one jet level in total dimension ``dim``: the
    braid-type system of the level's degree with pairing ``h`` and, when the
    level couples, the form ``level.coupling * h01`` (see
    :func:`rigidity_lab.braid._braid_rows`).

    A lightlike ``h`` is the base block, of fewer than ``dim`` directions:
    pairing and coupling are then padded with zeros to ``dim`` directions,
    and the coupled step lists its rows with the pair (u, v) outer.  A
    vanishing coupling is refused by :func:`_point_report`, not here.
    """
    nb = len(h)
    pairing = np.zeros((nb, dim))
    pairing[:, :nb] = h
    coupling = None
    if level.coupling is not None:
        coupling = np.zeros((dim, dim))
        coupling[:nb, :nb] = level.coupling * h01
    system = _braid_rows(pairing, level.degree, coupling, level.names)
    if coupling is not None and dim > nb:
        # the assembler runs (w1, w2) outer; step 2 lists (u, v) outer
        npairs = sym_index_count(dim, 2)
        system.row_ids = system.row_ids % npairs * npairs + system.row_ids // npairs
    return solve_kernel(system, tol=tol, want_basis=want_basis)


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


def _point_verdict(
    spec: _Kind, dimension: int, genericity: dict, deciding: list[KernelReport]
) -> str:
    """The theorem-level verdict at one point from the kernels that decide it."""
    if dimension < spec.least:
        return "indeterminate-by-hypothesis"
    if any(k.verdict == "indeterminate" for k in deciding):
        return "indeterminate"
    if all(k.kernel_dim == 0 for k in deciding) and genericity["nondegenerate"]:
        return spec.rigid
    if any(k.kernel_dim > 0 for k in deciding):
        return spec.non_rigid
    return "indeterminate-by-hypothesis"


def _point_report(
    kind: str, dim: int, r: float, h: np.ndarray, h01: np.ndarray, tol: float, want_basis: bool
) -> PointReport:
    """Genericity, then both jet levels, then the verdict at one point, from
    the metric (a lightlike chart's base block) ``h`` and its parameter
    derivative ``h01`` in total dimension ``dim``.  When the kind's first
    level couples, a vanishing ``h01`` (genericity ``nonzero`` false) is
    refused, since nothing then constrains the shift gradient."""
    spec = _KINDS[kind]
    genericity = _point_genericity(h, h01, tol)
    if spec.levels[0].coupling is not None and not genericity["nonzero"]:
        raise ValueError(
            "the parameter derivative vanishes at this point; the shift "
            "gradient cannot be constrained there"
        )
    levels = [_jet_kernel(h, h01, level, dim, tol, want_basis) for level in spec.levels]
    verdict = _point_verdict(spec, dim, genericity, levels[spec.deciding :])
    return PointReport(r, genericity, *levels, verdict)


def _certificate(kind: str, chart, p, samples: list[PointReport]) -> Certificate:
    """A certificate over per-point reports: rigid as soon as one point is,
    else indeterminate, non-rigid or indeterminate-by-hypothesis, in that
    order."""
    spec = _KINDS[kind]
    verdicts = [s.verdict for s in samples]
    verdict = next(
        (v for v in (spec.rigid, "indeterminate", spec.non_rigid) if v in verdicts),
        "indeterminate-by-hypothesis",
    )
    return Certificate(
        kind=kind,
        structure=chart.name,
        x=[float(v) for v in p],
        dimension=chart.n,
        samples=samples,
        verdict=verdict,
        unconstrained=list(spec.unconstrained),
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
    parameter derivative.  Level 1 refuses a point where the parameter
    derivative vanishes.
    """
    rs = sorted(float(r) for r in np.atleast_1d(np.asarray(r_samples, dtype=float)))
    if not rs:
        raise ValueError("need at least one parameter sample")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    samples = [
        _point_report(
            "gcs", c.n, r, c.eval_metric(p, r).matrix, c.eval_partials(p, r, 0, 1),
            tol, want_basis,
        )
        for r in rs
    ]
    return _certificate("gcs", c, p, samples)


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
    sample = _point_report(
        "lightlike", lc.n, t, lc.eval_base_metric(p, t).matrix,
        lc.eval_base_partials(p, t, 0, 1), tol, want_basis,
    )
    return _certificate("lightlike", lc, p, [sample])


# -- report documents -------------------------------------------------------


def kernel_report_doc(report: KernelReport) -> dict:
    """A kernel report's document, with its basis exactly when it has one."""
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
    if report.kernel_basis is not None:
        doc["kernel_basis"] = report.kernel_basis
        doc["unknown_labels"] = report.unknown_labels
    return doc


def certificate_doc(cert: Certificate) -> dict:
    """Certificate document with a fixed field order for golden-file tests;
    the report envelope adds the tool version, input hash and tolerances.
    A level's kernel basis is written exactly when its report carries one."""
    key1, key2 = (level.key for level in _KINDS[cert.kind].levels)
    sample_docs = [
        {
            "r": s.r,
            "genericity": s.genericity,
            key1: kernel_report_doc(s.level1),
            key2: kernel_report_doc(s.level2),
            "verdict": s.verdict,
        }
        for s in cert.samples
    ]
    doc = {
        "kind": cert.kind,
        "structure": cert.structure,
        "point": {"x": cert.x, "r": cert.samples[0].r if len(cert.samples) == 1 else None},
        "dimension": cert.dimension,
        "samples": sample_docs,
        "verdict": cert.verdict,
    }
    if cert.unconstrained:
        doc["unconstrained_jet_components"] = cert.unconstrained
    return doc
