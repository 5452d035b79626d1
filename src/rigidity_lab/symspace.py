"""Canonical Riemannian geometry of the cone of positive-definite forms.

The tangent space at a positive form b is the space of symmetric matrices,
carrying the inner product

    <X, Y>_b = trace(b^-1 X b^-1 Y),

which is invariant under every congruence b -> M^T b M, X -> M^T X M.  For
n = 1 this is the metric dx^2/x^2 on the positive half-line.

A sampled curve is one read-only (K, n, n) stack of symmetrized samples
over read-only parameters, validated in one pass: every sample finite and
positive definite (by an elimination, or by eigvalsh where that proves
nothing), every parameter finite and strictly increasing.  Tangents are
central differences over the stack (one-sided at the ends of an open
curve, wrapped around the period of a closed one).  The speeds come from
one stacked solve, are computed once per curve and are shared by the
length, the arc-length reparameterization and the mean.  Lengths are
trapezoidal quadratures of the speed; closed curves additionally carry a
canonical mean: the average of the curve against its arc-length measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .multilinear import SPECTRAL_TOL, positive_pivots

#: Hard cap on the matrix entries, m n^2, of a curve resampled at m points.
RESAMPLE_CAP = 10**7


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slice of a stack scaled by 2^-e, with e the exponent of its
    largest |entry| (which then lies in [1/2, 1)), and the exponents e.  The
    scaling is exact unless it moves an entry below the normal range."""
    e = np.frexp(np.abs(m).max(axis=(1, 2)))[1]
    return np.ldexp(m, -e[:, None, None]), e


def _spd_stack(mats, label: str = "sample {}") -> np.ndarray:
    """Symmetrized read-only copy of a (K, n, n) stack of positive-definite matrices.

    Every slice must be finite, and its eigenvalues must be positive, the
    smallest above SPECTRAL_TOL times the largest.  Each slice is tested at
    its unit scale (:func:`_unit_scale`), so a subnormal slice is decided
    as its normal multiples are: a slice m where eliminating m - s I,
    s = 2 SPECTRAL_TOL ||m||_inf, keeps every pivot positive passes by
    twice that (the largest eigenvalue is at most ||m||_inf); one batched
    ``eigvalsh`` decides the others.  The ValueError names the first
    failing slice by ``label.format(k)``, with its eigenvalue range scaled
    back.
    """
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
        raise ValueError(f"expected square matrices, got shape {m.shape[1:]}")
    with np.errstate(all="ignore"):  # overflow and inf - inf are refused below
        m = (m + m.swapaxes(1, 2)) / 2.0
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"{label.format(bad[0])} has a non-finite entry")
    unit, e = _unit_scale(m)
    shift = 2.0 * SPECTRAL_TOL * np.linalg.norm(unit, np.inf, axis=(1, 2))
    rest = np.flatnonzero(~positive_pivots(unit, shift))
    if rest.size:
        eigs = np.linalg.eigvalsh(unit[rest])
        lo, hi = eigs[:, 0], eigs[:, -1]
        bad = np.flatnonzero(~((hi > 0.0) & (lo > SPECTRAL_TOL * hi)))
        if bad.size:
            k = bad[0]
            lo, hi = np.ldexp([lo[k], hi[k]], e[rest[k]])
            raise ValueError(
                f"{label.format(rest[k])} is not positive definite (eigenvalue range "
                f"[{lo:.3e}, {hi:.3e}])"
            )
    m.setflags(write=False)
    return m


@dataclass
class SpdPoint:
    """A symmetric positive-definite n x n matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _spd_stack([self.matrix], "matrix")[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SpdCurve:
    """Sampled curve of positive-definite forms: ``matrices[k]`` sits at ``params[k]``.

    Both arrays are read-only.  Parameters must be finite and strictly
    increasing, with finite steps; a closed curve repeats its first sample
    as the last, to 1e-10 of the endpoints' largest |entry|, and has at
    least 4 samples.
    """

    params: np.ndarray
    matrices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        mats = _spd_stack(self.matrices, "sample {}: matrix")
        t = np.array(self.params, dtype=float)
        if t.ndim != 1 or t.size != len(mats):
            raise ValueError("params and matrices must have matching lengths")
        bad = np.flatnonzero(~np.isfinite(t))
        if bad.size:
            raise ValueError(f"sample {bad[0]}: parameter is not finite")
        with np.errstate(over="ignore"):  # an infinite step is refused below
            steps = np.diff(t)
        bad = np.flatnonzero(steps <= 0.0)
        if bad.size:
            raise ValueError(f"sample {bad[0] + 1}: curve parameters must be strictly increasing")
        bad = np.flatnonzero(np.isinf(steps))
        if bad.size:
            raise ValueError(f"sample {bad[0] + 1}: parameter step overflows the float range")
        if self.closed:
            gap = np.max(np.abs(mats[0] - mats[-1]))
            tol = 1e-10 * np.max(np.abs(mats[[0, -1]]))
            if gap > tol:
                raise ValueError(f"closed curve endpoints differ by {gap:.3e} (> {tol:.3e})")
            if t.size < 4:
                # fewer samples wrap every central difference to zero
                raise ValueError(f"a closed curve needs at least 4 samples, got {t.size}")
        t.setflags(write=False)
        object.__setattr__(self, "params", t)
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def speeds(self) -> np.ndarray:
        """Canonical speed at every sample, computed on first use."""
        return _speeds(self)

    def pushforward(self, m: np.ndarray) -> "SpdCurve":
        """Congruence image of the whole curve by an invertible map."""
        m = np.asarray(m, dtype=float)
        return SpdCurve(self.params, m.T @ self.matrices @ m, self.closed)


def spd_inner(b: SpdPoint | np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Canonical inner product trace(b^-1 X b^-1 Y) of symmetric tangents at b."""
    bm = b.matrix if isinstance(b, SpdPoint) else SpdPoint(b).matrix
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for t in (x, y):
        if t.shape != bm.shape:
            raise ValueError(f"tangent of shape {t.shape}, expected {bm.shape}")
        if np.max(np.abs(t - t.T), initial=0.0) > 1e-12 * np.max(np.abs(t), initial=0.0):
            raise ValueError("tangent matrices must be symmetric")
    return float(np.trace(np.linalg.solve(bm, x) @ np.linalg.solve(bm, y)))


def _tangents(curve: SpdCurve) -> np.ndarray:
    """Central-difference tangents; closed curves wrap around the period."""
    mats, t = curve.matrices, curve.params
    if curve.closed:
        # the last sample duplicates the first; differentiate on the period
        dts = np.diff(t)
        k = np.arange(dts.size)
        ahead, behind = (k + 1) % k.size, (k - 1) % k.size
        out = (mats[ahead] - mats[behind]) / (dts + dts[behind])[:, None, None]
        return np.concatenate([out, out[:1]])
    k = np.arange(t.size)
    ahead, behind = np.minimum(k + 1, t.size - 1), np.maximum(k - 1, 0)
    return (mats[ahead] - mats[behind]) / (t[ahead] - t[behind])[:, None, None]


@np.errstate(all="ignore")  # a speed that leaves the float range is refused below
def _speeds(curve: SpdCurve) -> np.ndarray:
    """Read-only speeds sqrt(tr((b^-1 x)^2)) from one stacked solve.

    Each sample b and its tangent x are solved at b's unit scale
    (:func:`_unit_scale`), so a subnormal b solves as its normal multiples
    do; each y = b^-1 x is scaled to its own unit scale 2^-e and its root by
    2^e, so the square neither underflows nor overflows.  In the normal
    range both scalings are exact."""
    if curve.params.size < 2:
        raise ValueError("need at least two samples to measure a speed")
    b, e = _unit_scale(curve.matrices)
    y, e = _unit_scale(np.linalg.solve(b, np.ldexp(_tangents(curve), -e[:, None, None])))
    speeds = np.ldexp(np.sqrt(np.maximum(np.trace(y @ y, axis1=1, axis2=2), 0.0)), e)
    bad = np.flatnonzero(~np.isfinite(speeds))
    if bad.size:
        raise ValueError(f"sample {bad[0]}: speed overflows the float range")
    speeds.setflags(write=False)
    return speeds


def _arclength(curve: SpdCurve) -> np.ndarray:
    """Accumulated trapezoidal arc length at every sample, starting from 0."""
    seg = 0.5 * (curve.speeds[1:] + curve.speeds[:-1]) * np.diff(curve.params)
    return np.concatenate([[0.0], np.cumsum(seg)])


@np.errstate(over="ignore")  # an overflowing length is refused below
def curve_length(curve: SpdCurve) -> float:
    """Trapezoidal length of the curve under the canonical metric."""
    length = float(np.trapezoid(curve.speeds, curve.params))
    if not np.isfinite(length):
        raise ValueError("curve length overflows the float range")
    return length


def arclength_reparam(curve: SpdCurve, m: int) -> SpdCurve:
    """Resample the curve at m points equally spaced in accumulated arc length."""
    if m < 2:
        raise ValueError(f"need at least two output samples, got {m}")
    entries = m * curve.n**2
    if entries > RESAMPLE_CAP:
        raise ValueError(
            f"{m} samples of {curve.n} x {curve.n} matrices would hold {entries} entries "
            f"(cap {RESAMPLE_CAP}); resample at fewer points"
        )
    t, mats = curve.params, curve.matrices
    s = _arclength(curve)
    if s[-1] <= 0.0:
        raise ValueError("curve has zero length; cannot reparameterize")
    target = np.linspace(0.0, s[-1], m)
    # invert s(t) by piecewise-linear interpolation, then interpolate samples
    t_of_s = np.interp(target, s, t)
    j = np.clip(np.searchsorted(t, t_of_s) - 1, 0, t.size - 2)
    w = ((t_of_s - t[j]) / (t[j + 1] - t[j]))[:, None, None]
    return SpdCurve(target, (1.0 - w) * mats[j] + w * mats[j + 1], curve.closed)


def circle_mean(curve: SpdCurve) -> SpdPoint:
    """Arc-length average of a closed curve of positive forms.

    Computed as the quotient of the trapezoidal integrals of f ds and ds
    over one period, so the mean of a constant curve is that constant, and
    rotating the sample list changes nothing beyond float roundoff.  The
    result is a convex combination of positive forms, hence positive.
    """
    if not curve.closed:
        raise ValueError("the canonical mean is defined for closed curves only")
    mats = curve.matrices
    spread = float(np.max(np.abs(mats - mats[0])))
    if spread <= 1e-12 * float(np.max(np.abs(mats[0]))):
        return SpdPoint(mats[0])  # constant curve: the mean is the point itself
    den = _arclength(curve)[-1]
    if den <= 0.0:
        raise ValueError("curve has zero length; the mean is undefined")
    weighted = curve.speeds[:, None, None] * mats
    dt = np.diff(curve.params)[:, None, None]
    # summed segment by segment in order, as accumulate does; np.sum and
    # np.add.reduce sum pairwise (at n = 1 too), which moves the last bits
    num = np.add.accumulate(0.5 * (weighted[:-1] + weighted[1:]) * dt, axis=0)[-1]
    return SpdPoint(num / den)
