"""Concrete charts for generalized conformal structures and lightlike metrics.

A chart represents a field ``(x, r) -> a_ij(x, r)`` of exact
rational-function coefficients on a box domain: for each parameter value r
the symmetric matrix a(x, r) is a positive scalar product on the x-slice,
and the parameter traces out a curve of such products over every base
point.  The r-derivative field decides everything downstream: the structure
is *nowhere transversally Riemannian* when that derivative never vanishes
and *generic* when it is nondegenerate.

A chart is validated by one scan of its own sample grid, which also
summarizes the r-derivative field.  A lightlike chart is the degenerate
companion: a validated chart read in one more dimension, a positive
semi-definite metric on dimension base+1 whose kernel is exactly the last
coordinate direction.  Lifting a chart to its tautological lightlike metric
and quotienting back are exact inverse operations on the coefficient data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .multilinear import SPECTRAL_TOL, BilinForm, _distinct_arrangements, _sym_indices
from .ratfield import Poly, RationalField, _as_fraction, _as_int

DEFAULT_GRID = 5

#: Maximum orders of exact differentiation offered by charts.
MAX_X_ORDER = 2
MAX_R_ORDER = 1


class TransversallyRiemannianError(ValueError):
    """The coefficient field does not depend on the parameter at all."""


def _finite_end(value, what: str) -> float:
    """An end of a domain side or of the parameter interval: a finite number,
    not a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what} is out of float range") from exc
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {out}")
    return out


def _check_box(box) -> list[tuple[float, float]]:
    out = []
    for k, (lo, hi) in enumerate(box):
        lo, hi = (_finite_end(v, f"domain side {k} end") for v in (lo, hi))
        if not lo < hi:
            raise ValueError(f"degenerate box side [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def _check_interval(iv) -> tuple[float, float]:
    if len(iv) != 2:
        raise ValueError(f"interval must be a pair, got {iv}")
    lo, hi = (_finite_end(v, "interval end") for v in iv)
    if not lo < hi:
        raise ValueError(f"degenerate parameter interval {(lo, hi)}")
    return lo, hi


def _axis_samples(lo: float, hi: float, count: int) -> list[Fraction]:
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if count < 2:
        raise ValueError(f"grid must have at least 2 samples per axis, got {count}")
    step = (hi_f - lo_f) / (count - 1)
    return [lo_f + k * step for k in range(count)]


def _eval_entry_matrix(entries, point) -> np.ndarray:
    dim = len(entries)
    out = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v = float(entries[i][j].eval(point))
            out[i, j] = v
            out[j, i] = v
    return out


# -- grid scan ----------------------------------------------------------------

#: Grid points evaluated per numpy block.  A scan holds a few arrays of this
#: many rows at a time, so its peak memory does not depend on the grid size.
GRID_BLOCK = 1024

#: Most grid points (samples per axis to the power n+1) a chart may request.
GRID_POINT_CAP = 10_000_000

#: A grid denominator vanishes when |den| <= DEN_VANISH_ULPS * eps * sum|terms|,
#: a bound on the rounding error of its float evaluation.
DEN_VANISH_ULPS = 64


@dataclass(frozen=True)
class _GridProgram:
    """The chart's nonzero metric entries, then its nonzero r-derivative
    entries, compiled for float evaluation at many points at once.

    ``exps`` lists the distinct monomials of every numerator and
    denominator; ``coefs[:, 2k]`` and ``coefs[:, 2k + 1]`` hold the
    coefficients of field k's numerator and denominator on them.  Field k
    sits at ``(rows[k], cols[k])`` of its matrix; the first ``n_metric``
    fields are metric entries.
    """

    exps: np.ndarray
    coefs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    n_metric: int


def _compile_grid_program(chart: "GcsChart") -> _GridProgram:
    n = chart.n
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    metric = [(i, j, chart.entries[i][j]) for i, j in upper]
    deriv = [(i, j, chart._derived_entry(i, j, (0,) * n, 1)) for i, j in upper]
    fields = [item for item in metric + deriv if not item[2].is_zero]
    n_metric = sum(1 for i, j, f in metric if not f.is_zero)
    monomials: dict[tuple[int, ...], int] = {}
    terms = []
    for k, (i, j, f) in enumerate(fields):
        for col, poly in ((2 * k, f.num), (2 * k + 1, f.den)):
            for exps, c in poly.terms.items():
                try:
                    value = float(c)
                except OverflowError as exc:
                    what = "entry" if k < n_metric else "r-derivative of entry"
                    raise ValueError(
                        f"{what} ({i}, {j}) has a coefficient out of float range"
                    ) from exc
                terms.append((monomials.setdefault(exps, len(monomials)), col, value))
    coefs = np.zeros((len(monomials), 2 * len(fields)))
    for row, col, c in terms:
        coefs[row, col] = c
    try:
        exps = np.array(list(monomials), dtype=np.int64).reshape(len(monomials), n + 1)
    except OverflowError as exc:
        raise ValueError("a chart exponent is out of the 64-bit integer range") from exc
    return _GridProgram(
        exps=exps,
        coefs=coefs,
        rows=np.array([i for i, _, _ in fields], dtype=np.int64),
        cols=np.array([j for _, j, _ in fields], dtype=np.int64),
        n_metric=n_metric,
    )


@dataclass(frozen=True)
class GridSummary:
    """Tolerance-free result of one grid scan of the r-derivative field d.

    With ``scale = max(max|a|, 1)`` at each point, the ratios are the minima
    over the grid of ``min|eig(d)| / scale`` and ``max|d| / scale``; a
    tolerance turns them into the verdicts of :class:`GenericityReport`.
    """

    worst_min_abs_eig: float
    worst_point: tuple[list[float], float]
    min_norm: float
    min_norm_point: tuple[list[float], float]
    min_eig_ratio: float
    min_norm_ratio: float


def _check_grid_cap(n: int, per_axis: int) -> None:
    """Refuses a grid above GRID_POINT_CAP points on the n+1 axes x_1 .. x_n, r;
    called before any coefficient is built."""
    # from 2 samples per axis, 64 axes are already above the cap
    if per_axis > 1 and per_axis ** min(n + 1, 64) > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {per_axis}^{n + 1} points over {n + 1} axes is above the cap "
            f"of {GRID_POINT_CAP}"
        )


def _grid_point(axes, digits, k) -> tuple[list[float], float]:
    """Point k of a block as (x, r) floats."""
    point = [float(axis[d[k]]) for axis, d in zip(axes, digits)]
    return point[:-1], point[-1]


# an overflow in the scan is refused as a value that is not finite
@np.errstate(over="ignore", invalid="ignore")
def _scan_grid(chart: "GcsChart") -> GridSummary:
    """Evaluate the metric and its r-derivative over the chart's grid, block
    by block.

    Points run in lexicographic order, the last axis (r) fastest; the first
    point with a vanishing denominator, a metric or derivative value that
    is not finite or a metric that is not positive definite raises
    ValueError.  Ties in the minima keep the first point.
    """
    per_axis = chart.grid
    axes = [
        np.array([float(v) for v in _axis_samples(lo, hi, per_axis)])
        for lo, hi in [*chart.domain, chart.interval]
    ]
    prog = chart._grid_program
    n, na = chart.n, prog.n_metric
    shape = (per_axis,) * (n + 1)
    # powers of each axis's samples for every monomial: (per_axis, monomials)
    tables = [axis[:, None] ** prog.exps[:, k] for k, axis in enumerate(axes)]
    den_abs = np.abs(prog.coefs[:, 1 : 2 * na : 2])
    vanish_tol = DEN_VANISH_ULPS * np.finfo(float).eps
    worst = min_norm = min_eig_ratio = min_norm_ratio = np.inf
    worst_point = min_norm_point = None
    # metric entries go to slot 0 of a point's matrix pair, derivatives to 1
    slot = (np.arange(len(prog.rows)) >= na).astype(np.int64)
    total = per_axis ** (n + 1)
    for start in range(0, total, GRID_BLOCK):
        digits = np.unravel_index(np.arange(start, min(start + GRID_BLOCK, total)), shape)
        mono = tables[0][digits[0]]
        for table, d in zip(tables[1:], digits[1:]):
            mono *= table[d]
        parts = mono @ prog.coefs
        num, den = parts[:, 0::2], parts[:, 1::2]
        vanished = np.any(np.abs(den[:, :na]) <= vanish_tol * (np.abs(mono) @ den_abs), axis=1)
        vals = num / np.where(vanished[:, None], 1.0, den)
        # a row maximum is not finite exactly when the row holds such a value
        metric_max = np.abs(vals[:, :na]).max(axis=1, initial=0.0)
        norm = np.abs(vals[:, na:]).max(axis=1, initial=0.0)
        nonfinite = ~(np.isfinite(metric_max) & np.isfinite(norm))
        vals[nonfinite] = 0.0  # refused below; keeps LAPACK off them
        mats = np.zeros((len(vals), 2, n, n))
        mats[:, slot, prog.rows, prog.cols] = vals
        mats[:, slot, prog.cols, prog.rows] = vals
        eigs = np.linalg.eigvalsh(mats[:, 0])
        lo, hi = eigs[:, 0], eigs[:, -1]
        bad = vanished | nonfinite | (lo <= SPECTRAL_TOL * np.maximum(np.abs(hi), 1.0))
        bad |= hi <= 0.0
        if bad.any():
            k = int(np.argmax(bad))
            where = tuple(float(axis[d[k]]) for axis, d in zip(axes, digits))
            if nonfinite[k]:
                raise ValueError(
                    f"metric or r-derivative value is not finite at grid point {where}"
                )
            if vanished[k]:
                raise ValueError(f"denominator vanishes at grid point {where}")
            raise ValueError(
                f"coefficient matrix is not positive definite at grid point "
                f"{where} (min eigenvalue {lo[k]:.3e})"
            )
        scale = np.maximum(metric_max, 1.0)
        min_eig = np.abs(np.linalg.eigvalsh(mats[:, 1])).min(axis=1)
        k = int(np.argmin(min_eig))
        if min_eig[k] < worst:
            worst, worst_point = float(min_eig[k]), _grid_point(axes, digits, k)
        k = int(np.argmin(norm))
        if norm[k] < min_norm:
            min_norm, min_norm_point = float(norm[k]), _grid_point(axes, digits, k)
        min_eig_ratio = min(min_eig_ratio, float(np.min(min_eig / scale)))
        min_norm_ratio = min(min_norm_ratio, float(np.min(norm / scale)))
    return GridSummary(
        worst_min_abs_eig=worst,
        worst_point=worst_point,
        min_norm=min_norm,
        min_norm_point=min_norm_point,
        min_eig_ratio=min_eig_ratio,
        min_norm_ratio=min_norm_ratio,
    )


@dataclass
class GcsChart:
    """Field of scalar products ``(x, r) -> sum a_ij(x, r) dx^i dx^j``.

    ``entries`` is the full symmetric matrix of rational-function
    coefficients in the variables (x_1, ..., x_n, r); construction verifies
    positive definiteness on ``grid`` samples per axis of the box domain
    times the parameter interval (a heuristic whose resolution every
    certificate records).  That one scan also summarizes the r-derivative
    field for :func:`genericity_report`.
    """

    n: int
    domain: list[tuple[float, float]]
    interval: tuple[float, float]
    entries: list[list[RationalField]]
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)
    grid: int = DEFAULT_GRID
    _deriv_cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _grid_summary: GridSummary = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid_cap(self.n, self.grid)
        if self.n < 1:
            raise ValueError(f"chart needs base dimension >= 1, got {self.n}")
        self.domain = _check_box(self.domain)
        if len(self.domain) != self.n:
            raise ValueError(f"domain has {len(self.domain)} sides, expected {self.n}")
        self.interval = _check_interval(self.interval)
        nv = self.n + 1
        for row in self.entries:
            for f in row:
                if f.nvars != nv:
                    raise ValueError(
                        f"entry uses {f.nvars} variables, expected {nv} (x_1..x_n, r)"
                    )
        for i in range(self.n):
            for j in range(self.n):
                if self.entries[i][j] is not self.entries[j][i] and not (
                    self.entries[i][j].num == self.entries[j][i].num
                    and self.entries[i][j].den == self.entries[j][i].den
                ):
                    raise ValueError(f"entries are not symmetric at ({i}, {j})")
        self._grid_summary = _scan_grid(self)

    @cached_property
    def _grid_program(self) -> _GridProgram:
        return _compile_grid_program(self)

    # -- exact evaluation ------------------------------------------------

    def _check_point(self, x, r) -> tuple[Fraction, ...]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        for k, (lo, hi) in enumerate(self.domain):
            slack = 1e-9 * (1.0 + hi - lo)
            if not (lo - slack <= x[k] <= hi + slack):
                raise ValueError(f"coordinate x[{k}] = {x[k]} outside [{lo}, {hi}]")
        lo, hi = self.interval
        slack = 1e-9 * (1.0 + hi - lo)
        if not (lo - slack <= float(r) <= hi + slack):
            raise ValueError(f"parameter r = {r} outside [{lo}, {hi}]")
        return tuple(Fraction(float(v)) for v in x) + (Fraction(float(r)),)

    def _derived_entry(self, i, j, xorders: tuple[int, ...], l: int) -> RationalField:
        key = (min(i, j), max(i, j), xorders, l)
        cached = self._deriv_cache.get(key)
        if cached is not None:
            return cached
        f = self.entries[i][j]
        for var, count in enumerate(xorders):
            for _ in range(count):
                f = f.diff(var)
        for _ in range(l):
            f = f.diff(self.n)
        self._deriv_cache[key] = f
        return f

    def _eval_matrix(self, entries, point, what: str) -> np.ndarray:
        """``_eval_entry_matrix``; a vanishing denominator or a value beyond
        the float range raises ValueError."""
        try:
            return _eval_entry_matrix(entries, point)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from exc
        except OverflowError as exc:
            where = tuple(map(float, point))
            raise ValueError(f"{what} is out of float range at {where}") from exc

    def eval_metric(self, x, r) -> BilinForm:
        """Exact evaluation of the scalar product at (x, r)."""
        point = self._check_point(x, r)
        form = BilinForm(self._eval_matrix(self.entries, point, "metric"))
        if form.signature != (self.n, 0, 0):
            raise ValueError(
                f"metric is not positive definite at the requested point "
                f"(signature {form.signature})"
            )
        return form

    def eval_partials(self, x, r, m: int, l: int) -> np.ndarray:
        """Exact derivative tensors of the coefficient field.

        Returns an array of shape (n,)*m + (n, n): m symmetric slots for the
        base directions of differentiation, then the two form slots.  Orders
        are limited to m <= 2, l <= 1.
        """
        if not (0 <= m <= MAX_X_ORDER) or not (0 <= l <= MAX_R_ORDER):
            raise ValueError(f"derivative orders (m={m}, l={l}) out of range")
        point = self._check_point(x, r)
        n = self.n
        out = np.zeros((n,) * (m + 2))
        for idx in _sym_indices(n, m):
            orders = tuple(idx.count(k) for k in range(n))
            rows = [[self._derived_entry(i, j, orders, l) for j in range(n)] for i in range(n)]
            block = self._eval_matrix(rows, point, "derivative")
            for arr in _distinct_arrangements(idx):
                out[arr] = block
        return out


@dataclass
class LightlikeChart:
    """Degenerate metric ``sum a_ij(x, t) dx^i dx^j`` on dimension base+1.

    ``base`` is a validated chart read in one more dimension: its parameter
    r becomes the coordinate t, and its coefficient matrix, a function of
    (x_1, ..., x_{n-1}, t), is the base block.  The kernel is exactly the
    t-direction by construction: the coefficient matrix only pairs base
    directions.
    """

    base: GcsChart

    def __post_init__(self):
        if not isinstance(self.base, GcsChart):
            raise TypeError(f"lightlike chart needs a GcsChart, got {type(self.base).__name__}")

    @property
    def n(self) -> int:
        """Total dimension, base + 1."""
        return self.base.n + 1

    @property
    def base_dim(self) -> int:
        return self.base.n

    @property
    def name(self) -> str:
        return self.base.name

    def eval_base_metric(self, x, t) -> BilinForm:
        """The positive-definite restriction to the base directions."""
        return self.base.eval_metric(x, t)

    def eval_base_partials(self, x, t, m: int, l: int) -> np.ndarray:
        return self.base.eval_partials(x, t, m, l)

    def eval_metric(self, x, t) -> BilinForm:
        """The full degenerate matrix, padded with the zero kernel row/column."""
        base = self.eval_base_metric(x, t).matrix
        full = np.zeros((self.n, self.n))
        full[: self.base_dim, : self.base_dim] = base
        return BilinForm(full)


@dataclass
class GenericityReport:
    """Grid diagnostics of the parameter-derivative field.

    ``nowhere_tr`` holds when the r-derivative is nonzero at every sampled
    point; ``generic`` additionally requires it to be nondegenerate there.
    The minimum absolute eigenvalue over the grid and the point attaining it
    witness the verdicts.
    """

    nowhere_tr: bool
    generic: bool
    worst_min_abs_eig: float
    worst_point: tuple[list[float], float]
    min_norm: float
    min_norm_point: tuple[list[float], float]
    grid: int
    tol: float


def genericity_report(
    chart: GcsChart | LightlikeChart, tol: float = SPECTRAL_TOL
) -> GenericityReport:
    """Classify the r-derivative field over the chart's box from the summary
    of the chart's construction scan, on its own grid."""
    base = chart.base if isinstance(chart, LightlikeChart) else chart
    summary = base._grid_summary
    return GenericityReport(
        nowhere_tr=summary.min_norm_ratio > tol,
        generic=summary.min_eig_ratio > tol,
        worst_min_abs_eig=summary.worst_min_abs_eig,
        worst_point=(list(summary.worst_point[0]), summary.worst_point[1]),
        min_norm=summary.min_norm,
        min_norm_point=(list(summary.min_norm_point[0]), summary.min_norm_point[1]),
        grid=base.grid,
        tol=tol,
    )


def lift_to_lightlike(chart: GcsChart) -> LightlikeChart:
    """Tautological lightlike metric of a chart: same coefficients, one more
    dimension, with the parameter promoted to the kernel coordinate."""
    return LightlikeChart(chart)


def quotient_to_gcs(lc: LightlikeChart) -> GcsChart:
    """Read the kernel coordinate of a lightlike chart as a curve parameter.

    Exact inverse of :func:`lift_to_lightlike` on the coefficient data: the
    result is the lightlike chart's validated base chart, so its grid is
    not scanned again.  Refuses charts whose coefficients do not depend on
    t at all: those are transversally Riemannian and the projected family
    of scalar products degenerates to a point.
    """
    nb, entries = lc.base_dim, lc.base.entries
    if all(entries[i][j].diff(nb).is_zero for i in range(nb) for j in range(i, nb)):
        raise TransversallyRiemannianError(
            "all coefficients are independent of t: the chart is transversally "
            "Riemannian and projects to a single scalar product, not a curve"
        )
    return lc.base


def pullback_chart(chart: GcsChart, m, domain: list | None = None) -> GcsChart:
    """Pull the chart back along the linear base change x = M y.

    The new coefficient matrix is M^T (a o M) M, computed exactly; M must
    have rational entries.  When ``domain`` is omitted the box is shrunk so
    that its image stays inside the original domain.
    """
    n = chart.n
    mrows = [[_as_fraction(m[i][j]) for j in range(n)] for i in range(n)]
    nv = n + 1
    subst = [[Fraction(0)] * nv for _ in range(nv)]
    for i in range(n):
        for j in range(n):
            subst[i][j] = mrows[i][j]
    subst[n][n] = Fraction(1)
    composed = [[chart.entries[i][j].subst_linear(subst) for j in range(n)] for i in range(n)]
    zero = RationalField.const(nv, 0)
    new_entries = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = zero
            for k in range(n):
                for l in range(n):
                    c = mrows[k][i] * mrows[l][j]
                    if c != 0:
                        acc = acc + composed[k][l].scale(c)
            new_entries[i][j] = acc
            new_entries[j][i] = acc
    if domain is None:
        row_sums = [sum(abs(mrows[i][j]) for j in range(n)) for i in range(n)]
        amp = max(float(max(s, 1)) for s in row_sums)
        widths = [min(abs(lo), abs(hi)) for lo, hi in chart.domain]
        if any(lo > 0 or hi < 0 for lo, hi in chart.domain):
            raise ValueError("automatic domain shrinking needs 0 in the domain box")
        half = min(widths) / amp
        domain = [(-half, half)] * n
    return GcsChart(
        n=n,
        domain=domain,
        interval=chart.interval,
        entries=new_entries,
        name=f"{chart.name}:pullback",
        params=dict(chart.params),
        grid=chart.grid,
    )


# -- builtin catalog ------------------------------------------------------


def _conformal_flat(n: int, params: dict, interval) -> list[list[RationalField]]:
    nv = n + 1
    r = RationalField.from_poly(Poly.var(nv, n))
    zero = RationalField.const(nv, 0)
    return [[r if i == j else zero for j in range(n)] for i in range(n)]


def _product_nonrigid(n: int, params: dict, interval) -> list[list[RationalField]]:
    eps = _as_fraction(params.get("epsilon", 0))
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    nv = n + 1
    r = RationalField.from_poly(Poly.var(nv, n))
    one = RationalField.const(nv, 1)
    zero = RationalField.const(nv, 0)
    off_diag = one + r.scale(eps) if eps != 0 else one
    return [
        [(r if i == 0 else off_diag) if i == j else zero for j in range(n)]
        for i in range(n)
    ]


def _linear_hyperbolic(n: int, params: dict, interval) -> list[list[RationalField]]:
    nv = n + 1
    shift = _as_fraction(params.get("shift", 1))
    coeffs = [_as_fraction(c) for c in params.get("f_coeffs", [1, 0, 1])]
    # f is supplied in a shifted variable: f_used(r) = f(r + shift), the
    # shift keeping f and f' positive over the interval
    r_poly = Poly.var(nv, n)
    shifted = Poly.from_terms(nv, [(shift, (0,) * nv)]) + r_poly
    f_used = Poly.const(nv, 0)
    power = Poly.const(nv, 1)
    for c in coeffs:
        f_used = f_used + power.scale(c)
        power = power * shifted
    f_field = RationalField.from_poly(f_used)
    f_prime = RationalField.from_poly(f_used.diff(n))
    for rv in _axis_samples(interval[0], interval[1], 33):
        point = (Fraction(0),) * n + (rv,)
        if f_field.eval(point) <= 0:
            raise ValueError(f"f must be positive on the interval; fails at r = {float(rv)}")
        if f_prime.eval(point) <= 0:
            raise ValueError(
                f"f must be strictly increasing on the interval; f' fails at r = {float(rv)}"
            )
    one = Poly.const(nv, 1)
    one_plus_r = one + r_poly
    zero = RationalField.const(nv, 0)
    entries = [[zero for _ in range(n)] for _ in range(n)]
    entries[0][0] = RationalField(one, one_plus_r)
    entries[1][1] = RationalField.from_poly(one_plus_r)
    entries[2][2] = RationalField.from_poly(one + f_used)
    return entries


def _lightcone(nb: int, params: dict, interval) -> list[list[RationalField]]:
    nv = nb + 1
    # base block 4 t^2 / (1 + |x|^2)^2 * Id in stereographic coordinates
    t = Poly.var(nv, nb)
    norm2 = Poly.const(nv, 1)
    for k in range(nb):
        xk = Poly.var(nv, k)
        norm2 = norm2 + xk * xk
    den = norm2 * norm2
    num = (t * t).scale(4)
    diag = RationalField(num, den)
    zero = RationalField.const(nv, 0)
    return [[diag if i == j else zero for j in range(nb)] for i in range(nb)]


@dataclass(frozen=True)
class _Builtin:
    """A catalog entry: ``build(coefficient dimension, params, interval)``
    returns the coefficient matrix, ``params`` names the parameters read
    besides ``interval`` and ``domain``, ``n`` is the default dimension (the
    only one when ``fixed_n``) and ``box`` the default side of the domain."""

    kind: str
    description: str
    build: Callable[[int, dict, tuple[float, float]], list]
    params: tuple[str, ...]
    n: int
    box: tuple[float, float]
    interval: tuple[float, float]
    fixed_n: bool = False


BUILTINS = {
    "conformal_flat": _Builtin(
        "gcs",
        "ray of flat metrics a = r * Id; parameter derivative is the identity, "
        "so the structure is generic in every dimension",
        _conformal_flat, (), 3, (-1.0, 1.0), (0.5, 2.0),
    ),
    "product_nonrigid": _Builtin(
        "gcs",
        "a = diag(r, 1+eps*r, ..., 1+eps*r); at eps = 0 the parameter only "
        "scales the first axis, the derivative has rank one and rigidity fails",
        _product_nonrigid, ("epsilon",), 3, (-1.0, 1.0), (0.5, 2.0),
    ),
    "linear_hyperbolic": _Builtin(
        "gcs",
        "metrics transported by the linear hyperbolic flow diag(e^s, e^-s) on a "
        "2-plane plus a flow direction weighted by an increasing positive f; "
        "a = diag(1/(1+r), 1+r, 1+f(r)), generic whenever f' > 0",
        _linear_hyperbolic, ("f_coeffs", "shift"), 3, (-1.0, 1.0), (0.0, 1.0),
        fixed_n=True,
    ),
    "lightcone": _Builtin(
        "lightlike",
        "cone of the quadratic form -x_1^2 + x_2^2 + ... in one dimension up, in "
        "stereographic coordinates: b = 4 t^2 / (1+|x|^2)^2 * Id on the base, "
        "degenerate along the ray direction t",
        _lightcone, (), 4, (-0.5, 0.5), (0.5, 2.0),
    ),
}

def builtin_chart(
    name: str, n: int | None = None, params: dict | None = None, grid: int = DEFAULT_GRID
):
    """Construct a chart from the builtin catalog, validated on ``grid``
    samples per axis; each chart satisfies the genericity profile stated in
    its catalog description.  Invalid input raises ValueError: an unknown
    name, a dimension the builtin lacks or a grid above the cap before any
    coefficient is built."""
    spec = BUILTINS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown builtin '{name}'; available: {', '.join(sorted(BUILTINS))}"
        )
    n = spec.n if n is None else n
    if spec.fixed_n and n != spec.n:
        raise ValueError(f"builtin '{name}' has dimension {spec.n} only, got n = {n}")
    coeff_n = n - 1 if spec.kind == "lightlike" else n
    if coeff_n < 1:
        raise ValueError(f"builtin '{name}' needs n >= {n - coeff_n + 1}, got {n}")
    _check_grid_cap(coeff_n, grid)
    params = dict(params or {})
    unknown = set(params) - {"interval", "domain", *spec.params}
    if unknown:
        raise ValueError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
    interval = _check_interval(params.get("interval", spec.interval))
    chart = GcsChart(
        n=coeff_n,
        domain=params.get("domain", [spec.box] * coeff_n),
        interval=interval,
        entries=spec.build(coeff_n, params, interval),
        name=name,
        params=params,
        grid=grid,
    )
    return LightlikeChart(chart) if spec.kind == "lightlike" else chart


# -- JSON chart schema -----------------------------------------------------

_CHART_KEYS = {"kind", "n", "domain", "interval", "entries", "builtin", "params"}


def chart_from_doc(doc: dict, grid: int = DEFAULT_GRID) -> GcsChart | LightlikeChart:
    """Build a chart from its JSON document form, validated on ``grid``
    samples per axis.

    Either a builtin reference ``{"builtin": name, "n": ..., "params": ...}``,
    which reads only those three fields, or an explicit coefficient listing;
    unknown fields are rejected.  Coefficients are decimal or fraction
    strings, parsed exactly.  A grid above the cap is refused before any
    coefficient is read.
    """
    if not isinstance(doc, dict):
        raise ValueError("chart document must be a JSON object")
    unknown = set(doc) - _CHART_KEYS
    if unknown:
        raise ValueError(f"unknown chart field(s): {', '.join(sorted(unknown))}")
    n = None if doc.get("n") is None else _as_int(doc["n"], "chart n")
    if doc.get("builtin") is not None and "entries" not in doc:
        ignored = ", ".join(sorted(set(doc) - {"builtin", "n", "params"}))
        if ignored:
            raise ValueError(f"a builtin reference reads only builtin, n and params, not {ignored}")
        return builtin_chart(doc["builtin"], n=n, params=doc.get("params"), grid=grid)
    for key in ("n", "domain", "interval", "entries"):
        if key not in doc:
            raise ValueError(f"chart document is missing '{key}'")
    kind = doc.get("kind", "gcs")
    if kind not in ("gcs", "lightlike"):
        raise ValueError(f"unknown chart kind '{kind}'")
    coeff_dim = n - 1 if kind == "lightlike" else n
    _check_grid_cap(coeff_dim, grid)
    nv = coeff_dim + 1
    upper: dict[tuple[int, int], RationalField] = {}
    for item in doc["entries"]:
        extra = set(item) - {"i", "j", "num", "den"}
        if extra:
            raise ValueError(f"unknown entry field(s): {', '.join(sorted(extra))}")
        i, j = _as_int(item["i"], "entry index i"), _as_int(item["j"], "entry index j")
        if not (0 <= i < coeff_dim and 0 <= j < coeff_dim):
            raise ValueError(f"entry index ({i}, {j}) out of range for dimension {coeff_dim}")
        num = Poly.from_terms(nv, [(c, e) for c, e in item["num"]])
        den_terms = item.get("den") or [["1", [0] * nv]]
        den = Poly.from_terms(nv, [(c, e) for c, e in den_terms])
        key = (min(i, j), max(i, j))
        if key in upper:
            raise ValueError(f"duplicate entry for ({i}, {j})")
        try:
            upper[key] = RationalField(num, den)
        except ZeroDivisionError as exc:  # a denominator that is identically zero
            raise ValueError(f"entry ({i}, {j}): {exc}") from exc
    zero = RationalField.const(nv, 0)
    chart = GcsChart(
        n=coeff_dim,
        domain=[tuple(side) for side in doc["domain"]],
        interval=tuple(doc["interval"]),
        entries=[
            [upper.get((min(i, j), max(i, j)), zero) for j in range(coeff_dim)]
            for i in range(coeff_dim)
        ],
        name=doc.get("builtin") or "custom",
        grid=grid,
    )
    return LightlikeChart(chart) if kind == "lightlike" else chart


def chart_to_doc(chart: GcsChart | LightlikeChart) -> dict:
    """Serialize a chart to its JSON document form (exact coefficients)."""
    kind = "lightlike" if isinstance(chart, LightlikeChart) else "gcs"
    base = chart.base if isinstance(chart, LightlikeChart) else chart
    entries = [
        {"i": i, "j": j, "num": f.num.to_json_terms(), "den": f.den.to_json_terms()}
        for i in range(base.n)
        for j in range(i, base.n)
        if not (f := base.entries[i][j]).is_zero
    ]
    return {
        "kind": kind,
        "n": chart.n,
        "domain": [[lo, hi] for lo, hi in base.domain],
        "interval": [base.interval[0], base.interval[1]],
        "entries": entries,
        "builtin": chart.name if chart.name in BUILTINS else None,
        "params": {k: str(v) for k, v in sorted(base.params.items())},
    }
