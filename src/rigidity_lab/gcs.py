"""Concrete charts for generalized conformal structures and lightlike metrics.

A chart represents a field ``(x, r) -> a_ij(x, r)`` of exact
rational-function coefficients on a box domain: for each parameter value r
the symmetric matrix a(x, r) is a positive scalar product on the x-slice,
and the parameter traces out a curve of such products over every base
point.  The r-derivative field decides everything downstream: the structure
is *nowhere transversally Riemannian* when that derivative never vanishes
and *generic* when it is nondegenerate.

A chart's coefficients are compiled once into one program, evaluated in
floats over the chart's sample grid and exactly at a point.  A chart is
validated by one scan of that grid, which also summarizes the r-derivative
field.  A lightlike chart is the degenerate companion: a validated chart
read in one more dimension, a positive semi-definite metric on dimension
base+1 whose kernel is exactly the last coordinate direction.  Lifting a
chart to its tautological lightlike metric keeps its coefficient data
exactly, and the lifted chart's ``base`` is the chart itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .multilinear import (
    SPECTRAL_TOL,
    BilinForm,
    _full_positions,
    _sym_indices,
    positive_pivots,
)
from .ratfield import Poly, RationalField, _as_fraction, _as_int

DEFAULT_GRID = 5

#: Maximum orders of exact differentiation offered by charts.
MAX_X_ORDER = 2
MAX_R_ORDER = 1


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


def _check_pair(value, what: str) -> None:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{what} must be a pair [lo, hi], got {value!r}")


def _check_box(box) -> list[tuple[float, float]]:
    if not isinstance(box, (list, tuple)):
        raise ValueError(f"domain must be a list of sides, got {box!r}")
    out = []
    for k, side in enumerate(box):
        _check_pair(side, f"domain side {k}")
        lo, hi = (_finite_end(v, f"domain side {k} end") for v in side)
        if not lo < hi:
            raise ValueError(f"degenerate box side [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def _check_interval(iv) -> tuple[float, float]:
    _check_pair(iv, "interval")
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


# -- the chart program ----------------------------------------------------------

#: Grid points evaluated per numpy block.  A scan holds a few arrays of this
#: many rows at a time, so its peak memory does not depend on the grid size.
GRID_BLOCK = 1024

#: Most grid points (samples per axis to the power n+1) a chart may request.
GRID_POINT_CAP = 10_000_000

#: A grid denominator vanishes when |den| <= DEN_VANISH_ULPS * eps * sum|terms|,
#: a bound on the rounding error of its float evaluation.
DEN_VANISH_ULPS = 64


def _jet_divide(num: dict, den: dict, alphas: list) -> dict:
    """The partials of a quotient f = N / D from those of N and D.

    ``alphas`` lists multi-indices, each after every index below it;
    ``num[a]`` is the value of the partial of N of index a and ``den[a]``
    that of D, absent where that partial is identically zero, and the
    partials of f below a that the rule reads for a must be listed too.
    Leibniz applied to f D = N gives, for each a in turn,

        f_a = (N_a - sum over b < a of C(a, b) f_b D_(a-b)) / D,

    with C(a, b) the product of the componentwise binomials, so no
    denominator is ever raised to a power.  The values may be Fractions,
    floats or float arrays; a term whose partial of D is absent is skipped.
    """
    out = {}
    for a in alphas:
        acc = num[a]
        for b, fb in out.items():
            d = den.get(tuple(x - y for x, y in zip(a, b)))
            if d is not None:
                c = math.prod(math.comb(x, y) for x, y in zip(a, b))
                acc = acc - c * fb * d
        out[a] = acc / den[(0,) * len(a)]
    return out


@dataclass(frozen=True)
class _ChartProgram:
    """The chart's coefficient field, compiled once; a point (exactly) and
    the grid (in floats) both evaluate it and divide by :func:`_jet_divide`.

    ``entries`` lists the nonzero upper entries (i, j); ``jets[k][l]``
    holds the l-th r-partials (N, D) of entry k's numerator and
    denominator for l <= MAX_R_ORDER, and ``varying[k]`` is true when the
    entry depends on r (N_r D - N D_r is not zero).  For the grid, ``exps``
    lists the distinct monomials of N, D, N_r and D_r, ``coefs`` holds
    their float coefficients, and ``columns[l, 0, k]`` and
    ``columns[l, 1, k]`` name the columns of entry k's N and D at r-order
    l (the last column, all zero, for a zero polynomial); ``diagonal`` is
    true when every entry lies on the diagonal.
    """

    entries: tuple[tuple[int, int], ...]
    jets: tuple[tuple[tuple[Poly, Poly], ...], ...]
    varying: tuple[bool, ...]
    exps: np.ndarray
    coefs: np.ndarray
    columns: np.ndarray
    diagonal: bool


def _compile_program(chart: "GcsChart") -> _ChartProgram:
    n = chart.n
    entries = [(i, j) for i, j in _sym_indices(n, 2) if not chart.entries[i][j].is_zero]
    jets, varying = [], []
    for i, j in entries:
        f = chart.entries[i][j]
        jet = [(f.num, f.den)]
        for _ in range(MAX_R_ORDER):
            jet.append((jet[-1][0].diff(n), jet[-1][1].diff(n)))
        num_r, den_r = jet[1]
        varying.append(not (num_r if den_r.is_zero else num_r * f.den - f.num * den_r).is_zero)
        jets.append(tuple(jet))
    # columns: every N and D, then their first r-partials; a zero polynomial
    # reads the last column, which is zero
    monomials: dict[tuple[int, ...], int] = {}
    column: dict[int, int] = {}
    terms = []
    for l, what in ((0, "entry"), (1, "r-derivative of entry")):
        for (i, j), jet in zip(entries, jets):
            for poly in jet[l]:
                if id(poly) in column or poly.is_zero:
                    continue
                column[id(poly)] = len(column)
                for exps, c in poly.terms.items():
                    try:
                        value = float(c)
                    except OverflowError as exc:
                        raise ValueError(
                            f"{what} ({i}, {j}) has a coefficient out of float range"
                        ) from exc
                    row = monomials.setdefault(exps, len(monomials))
                    terms.append((row, len(column) - 1, value))
    coefs = np.zeros((len(monomials), len(column) + 1))
    for row, col, c in terms:
        coefs[row, col] = c
    try:
        exps = np.array(list(monomials), dtype=np.int64).reshape(len(monomials), n + 1)
    except OverflowError as exc:
        raise ValueError("a chart exponent is out of the 64-bit integer range") from exc
    columns = [[[column.get(id(jet[l][k]), len(column)) for jet in jets] for k in (0, 1)]
               for l in (0, 1)]
    return _ChartProgram(
        entries=tuple(entries),
        jets=tuple(jets),
        varying=tuple(varying),
        exps=exps,
        coefs=coefs,
        columns=np.array(columns, dtype=np.int64).reshape(2, 2, len(jets)),
        diagonal=all(i == j for i, j in entries),
    )


def _point_jets(prog: _ChartProgram, point: tuple[Fraction, ...], wanted: list) -> list[dict]:
    """Every entry's exact partials at the point of the multi-indices
    ``wanted`` (x-orders, then the r-order): the partials of N and D from
    ``Poly.diff``, evaluated exactly and divided by :func:`_jet_divide`.
    Where D's value is its only nonzero partial, f_a = N_a / D and only the
    wanted indices are evaluated; elsewhere every index up to the wanted
    orders, which the Leibniz rule reads."""
    n = len(point) - 1
    m, l = max(sum(a[:n]) for a in wanted), max(a[n] for a in wanted)
    alphas = sorted(
        (tuple(idx.count(v) for v in range(n)) + (k,)
         for d in range(m + 1) for idx in _sym_indices(n, d) for k in range(l + 1)),
        key=sum,
    )
    # an index with an x-order is one x-partial (v) of an index listed before it
    below = {
        a: next(((v, a[:v] + (a[v] - 1,) + a[v + 1 :]) for v in range(n) if a[v]), None)
        for a in alphas
    }
    out = []
    for jet in prog.jets:
        polys = {}
        for a in alphas:
            step = below[a]
            polys[a] = jet[a[n]] if step is None else tuple(p.diff(step[0]) for p in polys[step[1]])
        dens = {a: p for a, (_, p) in polys.items() if not p.is_zero}
        need = alphas if len(dens) > 1 else wanted
        den = {a: p.eval(point) for a, p in dens.items()}
        if den[alphas[0]] == 0:
            raise ValueError(f"denominator vanishes at {tuple(map(float, point))}")
        num = {a: polys[a][0].eval(point) for a in need}
        out.append(_jet_divide(num, den, need))
    return out


# -- grid scan ----------------------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    """Grid diagnostics of the r-derivative field d from one scan.

    With ``scale = max(max|a|, 1)`` at each point, the ratios are the minima
    over the grid of ``min|eig(d)| / scale`` and ``max|d| / scale``; read at
    ``tol``, they give ``nowhere_tr`` (d nonzero at every sampled point) and
    ``generic`` (d also nondegenerate there).
    """

    worst_min_abs_eig: float
    worst_point: tuple[list[float], float]
    min_norm: float
    min_norm_point: tuple[list[float], float]
    min_eig_ratio: float
    min_norm_ratio: float
    grid: int
    tol: float = SPECTRAL_TOL

    @property
    def nowhere_tr(self) -> bool:
        return self.min_norm_ratio > self.tol

    @property
    def generic(self) -> bool:
        return self.min_eig_ratio > self.tol


def _check_grid_cap(n: int, per_axis: int) -> None:
    """Refuses a grid above GRID_POINT_CAP points on the n+1 axes x_1 .. x_n, r;
    called before any coefficient is built, so it counts every axis, also
    those that the scan leaves out because no coefficient reads them."""
    # from 2 samples per axis, 64 axes are already above the cap
    if per_axis > 1 and per_axis ** min(n + 1, 64) > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {per_axis}^{n + 1} points over {n + 1} axes is above the cap "
            f"of {GRID_POINT_CAP}"
        )


def _first_least(values: np.ndarray, kept: float) -> int | None:
    """Index of the first of ``values`` (all >= 0) within DEN_VANISH_ULPS
    ulps of their least, or None when that value is not below ``kept`` by
    more than that: ties keep the first point, whatever the last bits say."""
    tie = DEN_VANISH_ULPS * np.finfo(float).eps
    k = int(np.argmax(values <= values.min() * (1.0 + tie)))
    return k if values[k] < kept * (1.0 - tie) else None


def _metric_range(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and largest eigenvalue of each metric J of a stack, which
    the scan's positivity test and refusal read.  A metric that an
    elimination proves positive past twice the cut, J - s I positive
    definite for s = 2 SPECTRAL_TOL max(||J||_inf, 1) (and |hi| <=
    ||J||_inf), reads NaN, which fails no test; ``eigvalsh`` takes the
    others."""
    norm = np.linalg.norm(mats, np.inf, axis=(1, 2))
    lo, hi = np.full((2, len(mats)), np.nan)
    rest = np.flatnonzero(~positive_pivots(mats, 2.0 * SPECTRAL_TOL * np.maximum(norm, 1.0)))
    if rest.size:
        eigs = np.linalg.eigvalsh(mats[rest])
        lo[rest], hi[rest] = eigs[:, 0], eigs[:, -1]
    return lo, hi


#: Relative margin above its block's probes that a derivative's spectrum
#: must clear to be left out of eigvalsh; about 7e7 widths of the 64-ulp tie.
PROBE_MARGIN = 1e-6


def _least_abs_eigs(d: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """min |eig| of each derivative d of a stack wherever it can be the
    stack's least value or least ratio to ``scale``; +inf elsewhere.

    ``eigvalsh`` first takes the probes: the point of least min |d_ii| and
    that of least min |d_ii| / scale.  When every probe eigenvalue has one
    strict sign, a point where eliminating +-d - t I (that sign) keeps its
    pivots positive, with t = (1 + PROBE_MARGIN) max(least probe value,
    least probe ratio * scale) at the point, has every |eig| above t and so
    is neither least.  ``eigvalsh`` takes every other point, and every point
    when the probes' signs differ.  A point with ||d||_inf above
    t / PROBE_MARGIN, or with t below the normal range, is not eliminated:
    the rounding could approach the margin there.
    """
    least = np.abs(np.diagonal(d, axis1=1, axis2=2)).min(axis=1)
    probes = np.array(sorted({int(np.argmin(least)), int(np.argmin(least / scale))}))
    eigs = np.linalg.eigvalsh(d[probes])
    out = np.full(len(d), np.inf)
    values = np.abs(eigs).min(axis=1)
    out[probes] = values
    rest = np.ones(len(d), dtype=bool)
    rest[probes] = False
    sign = 1.0 if (eigs > 0.0).all() else -1.0 if (eigs < 0.0).all() else 0.0
    if sign:
        t = (1.0 + PROBE_MARGIN) * np.maximum(values.min(), (values / scale[probes]).min() * scale)
        norm = np.linalg.norm(d, np.inf, axis=(1, 2))
        tried = (norm <= t / PROBE_MARGIN) & (t >= np.finfo(float).tiny)
        rest &= ~(tried & positive_pivots(sign * d, t))
    rest = np.flatnonzero(rest)
    if rest.size:
        out[rest] = np.abs(np.linalg.eigvalsh(d[rest])).min(axis=1)
    return out


def _grid_point(axes, digits, k) -> tuple[list[float], float]:
    """Point k of a block as (x, r) floats."""
    point = [float(axis[d[k]]) for axis, d in zip(axes, digits)]
    return point[:-1], point[-1]


# an overflow in the scan is refused as a value that is not finite
@np.errstate(over="ignore", invalid="ignore")
def _scan_grid(chart: "GcsChart") -> GenericityReport:
    """Evaluate the metric and its r-derivative over the chart's grid, in
    blocks of points, and take their eigenvalues: a diagonal chart's are its
    diagonal values (a diagonal entry without a field is 0), any other
    chart's come from ``eigvalsh`` wherever a refusal or the summary reads
    them, and an elimination proves the rest (:func:`_metric_range`,
    :func:`_least_abs_eigs`).

    The scan walks the grid of the axes that some monomial of the compiled
    coefficients reads; the values do not change along any other axis, and
    a point is named with every such axis at its first sample, where the
    full grid's order first meets its values.  Points run in lexicographic
    order, the last axis (r) fastest; the first point with a vanishing
    denominator, a metric or derivative value that is not finite or a
    metric that is not positive definite raises ValueError.  Values within
    ``DEN_VANISH_ULPS`` ulps of the minimum of a block of scanned points tie
    with it, and ties keep the first point; the two ratios are exact minima.
    """
    per_axis = chart.grid
    axes = [
        np.array([float(v) for v in _axis_samples(lo, hi, per_axis)])
        for lo, hi in [*chart.domain, chart.interval]
    ]
    prog = chart._program
    n, na = chart.n, len(prog.entries)
    # an axis that no monomial reads contributes x^0 = 1.0 to every value;
    # the scan walks the grid of the read axes, every other axis at index 0
    read = [k for k in range(n + 1) if prog.exps[:, k].any()]
    shape = (per_axis,) * len(read)
    # powers of each read axis's samples for every monomial: (per_axis, monomials)
    tables = [axes[k][:, None] ** prog.exps[:, k] for k in read]
    den_abs = np.abs(prog.coefs[:, prog.columns[0, 1]])
    vanish_tol = DEN_VANISH_ULPS * np.finfo(float).eps
    worst = min_norm = min_eig_ratio = min_norm_ratio = np.inf
    worst_point = min_norm_point = None
    # fields: every entry in the metric (slot 0), then those that vary with r
    # in the r-derivative (slot 1), in the order of the values below
    varying = np.array(prog.varying, dtype=bool)
    entries = np.array(prog.entries, dtype=np.int64).reshape(na, 2)
    rows, cols = np.concatenate([entries, entries[varying]]).T
    slots = np.repeat([0, 1], [na, int(varying.sum())])
    alphas = [(0,) * (n + 1), (0,) * n + (1,)]
    total = per_axis ** len(read)
    for start in range(0, total, GRID_BLOCK):
        index = np.arange(start, min(start + GRID_BLOCK, total))
        digits = [np.zeros_like(index)] * (n + 1)
        mono = np.ones((len(index), len(prog.exps)))
        for k, table, d in zip(read, tables, np.unravel_index(index, shape) if read else ()):
            digits[k] = d
            mono *= table[d]
        # column-major (columns, points): reductions over entries run along rows
        parts = np.ascontiguousarray((mono @ prog.coefs).T)
        bound = vanish_tol * (np.abs(mono) @ den_abs).T
        den = parts[prog.columns[0, 1]]
        vanished = np.any(np.abs(den) <= bound, axis=0)
        num = dict(zip(alphas, parts[prog.columns[:, 0]]))
        # an r-partial of D that is zero reads the zero column, which adds 0
        dens = {alphas[0]: np.where(vanished, 1.0, den), alphas[1]: parts[prog.columns[1, 1]]}
        jet = _jet_divide(num, dens, alphas)
        vals = np.concatenate([jet[alphas[0]], jet[alphas[1]][varying]])
        # a column maximum is not finite exactly when the column holds such a value
        metric_max = np.abs(vals[:na]).max(axis=0, initial=0.0)
        norm = np.abs(vals[na:]).max(axis=0, initial=0.0)
        nonfinite = ~(np.isfinite(metric_max) & np.isfinite(norm))
        vals[:, nonfinite] = 0.0  # refused below; keeps LAPACK off them
        if prog.diagonal:
            diag = np.zeros((2, n, len(nonfinite)))
            diag[slots, rows] = vals
            # the first least value in diagonal order, where eigvalsh would
            # put it: a zero keeps its sign in the refusal message
            lo = np.take_along_axis(diag[0], diag[0].argmin(axis=0)[None], axis=0)[0]
            hi = diag[0].max(axis=0)
        else:
            # each matrix entry is one contiguous row over the points, which
            # the spectra's reductions and eliminations run along; they read
            # it through a (2, points, n, n) view
            mats = np.zeros((2, n, n, len(nonfinite)))
            mats[slots, rows, cols] = vals
            mats[slots, cols, rows] = vals
            mats = np.moveaxis(mats, -1, 1)
            lo, hi = _metric_range(mats[0])
        cut = SPECTRAL_TOL * np.maximum(np.abs(hi), 1.0)
        bad = vanished | nonfinite | (lo <= cut) | (hi <= 0.0)
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
                f"{where} (eigenvalue range [{lo[k]:.3e}, {hi[k]:.3e}], cut {cut[k]:.3e})"
            )
        scale = np.maximum(metric_max, 1.0)
        if prog.diagonal:
            min_eig = np.abs(diag[1]).min(axis=0)
        else:
            min_eig = _least_abs_eigs(mats[1], scale)
        k = _first_least(min_eig, worst)
        if k is not None:
            worst, worst_point = float(min_eig[k]), _grid_point(axes, digits, k)
        k = _first_least(norm, min_norm)
        if k is not None:
            min_norm, min_norm_point = float(norm[k]), _grid_point(axes, digits, k)
        min_eig_ratio = min(min_eig_ratio, float(np.min(min_eig / scale)))
        min_norm_ratio = min(min_norm_ratio, float(np.min(norm / scale)))
    return GenericityReport(
        worst_min_abs_eig=worst,
        worst_point=worst_point,
        min_norm=min_norm,
        min_norm_point=min_norm_point,
        min_eig_ratio=min_eig_ratio,
        min_norm_ratio=min_norm_ratio,
        grid=per_axis,
    )


@dataclass
class GcsChart:
    """Field of scalar products ``(x, r) -> sum a_ij(x, r) dx^i dx^j``.

    ``entries`` is the full symmetric matrix of rational-function
    coefficients in the variables (x_1, ..., x_n, r); construction verifies
    positive definiteness on ``grid`` samples per axis of the box domain
    times the parameter interval (a heuristic whose resolution every
    certificate records).  The scan walks only the axes that the compiled
    coefficients read, and names a point with every other axis at its
    first sample.  That one scan also summarizes the r-derivative field for
    :func:`genericity_report`.
    """

    n: int
    domain: list[tuple[float, float]]
    interval: tuple[float, float]
    entries: list[list[RationalField]]
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)
    grid: int = DEFAULT_GRID
    _program: _ChartProgram = dc_field(init=False, repr=False, compare=False)
    _grid_summary: GenericityReport = dc_field(init=False, repr=False, compare=False)

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
        self._program = _compile_program(self)
        self._grid_summary = _scan_grid(self)

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

    def _partials(self, x, r, m: int, l: int) -> np.ndarray:
        """The exact partials of x-order m and r-order l at (x, r), one n x n
        block per sorted index tuple of ``_sym_indices(n, m)``, each value
        rounded to float once; a vanishing denominator or a value beyond the
        float range raises ValueError."""
        point = self._check_point(x, r)
        prog, n = self._program, self.n
        wanted = [tuple(idx.count(k) for k in range(n)) + (l,) for idx in _sym_indices(n, m)]
        jets = _point_jets(prog, point, wanted)
        blocks = np.zeros((len(wanted), n, n))
        for block, alpha in zip(blocks, wanted):
            for (i, j), jet in zip(prog.entries, jets):
                try:
                    block[i, j] = block[j, i] = float(jet[alpha])
                except OverflowError as exc:
                    what = "metric" if m == l == 0 else "derivative"
                    where = tuple(map(float, point))
                    raise ValueError(f"{what} is out of float range at {where}") from exc
        return blocks

    def eval_metric(self, x, r) -> BilinForm:
        """Exact evaluation of the scalar product at (x, r)."""
        form = BilinForm(self._partials(x, r, 0, 0)[0])
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
        are limited to m <= 2, l <= 1.  The chart program's numerators and
        denominators are differentiated as polynomials and evaluated, and
        their quotients divided by :func:`_jet_divide`, all in exact
        rationals, so each value is rounded to float once.
        """
        if not (0 <= m <= MAX_X_ORDER) or not (0 <= l <= MAX_R_ORDER):
            raise ValueError(f"derivative orders (m={m}, l={l}) out of range")
        return np.take(self._partials(x, r, m, l), _full_positions(self.n, m), axis=0)


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


def genericity_report(
    chart: GcsChart | LightlikeChart, tol: float = SPECTRAL_TOL
) -> GenericityReport:
    """The report of the chart's construction scan, on its own grid, with
    its verdicts read at ``tol``; the chart's own record is not shared."""
    own = (chart.base if isinstance(chart, LightlikeChart) else chart)._grid_summary
    return replace(
        own,
        tol=tol,
        worst_point=(list(own.worst_point[0]), own.worst_point[1]),
        min_norm_point=(list(own.min_norm_point[0]), own.min_norm_point[1]),
    )


def lift_to_lightlike(chart: GcsChart) -> LightlikeChart:
    """Tautological lightlike metric of a chart: same coefficients, one more
    dimension, with the parameter promoted to the kernel coordinate."""
    return LightlikeChart(chart)


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
    coeffs = params.get("f_coeffs", [1, 0, 1])
    if not isinstance(coeffs, list):
        raise ValueError(f"parameter f_coeffs must be a list of coefficients, got {coeffs!r}")
    coeffs = [_as_fraction(c) for c in coeffs]
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


def _builtin_spec(name) -> _Builtin:
    """The catalog entry of ``name``; any other value, a non-string too, is
    refused as an unknown builtin."""
    spec = BUILTINS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ValueError(
            f"unknown builtin '{name}'; available: {', '.join(sorted(BUILTINS))}"
        )
    return spec


def builtin_chart(
    name: str, n: int | None = None, params: dict | None = None, grid: int = DEFAULT_GRID
):
    """Construct a chart from the builtin catalog, validated on ``grid``
    samples per axis; each chart satisfies the genericity profile stated in
    its catalog description.  Invalid input raises ValueError: an unknown
    name, a dimension the builtin lacks, a grid above the cap or ``params``
    neither a dict nor None, before any coefficient is built."""
    spec = _builtin_spec(name)
    n = spec.n if n is None else n
    if spec.fixed_n and n != spec.n:
        raise ValueError(f"builtin '{name}' has dimension {spec.n} only, got n = {n}")
    coeff_n = n - 1 if spec.kind == "lightlike" else n
    if coeff_n < 1:
        raise ValueError(f"builtin '{name}' needs n >= {n - coeff_n + 1}, got {n}")
    _check_grid_cap(coeff_n, grid)
    if params is not None and not isinstance(params, dict):
        raise ValueError(
            f"params must be a JSON object of parameter names to values, got {params!r}"
        )
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

#: Largest exponent a chart document may use; exact evaluation of a higher
#: power costs time and memory that grow with the exponent.
MAX_EXPONENT = 64


def chart_from_doc(doc: dict, grid: int = DEFAULT_GRID) -> GcsChart | LightlikeChart:
    """Build a chart from its JSON document form, validated on ``grid``
    samples per axis.

    Either a builtin reference ``{"builtin": name, "n": ..., "params": ...}``,
    which reads only those three fields, or an explicit coefficient listing;
    unknown fields are rejected.  An explicit listing that names a builtin
    (as :func:`chart_to_doc` writes one) is that builtin with its params,
    or its lift when a lightlike listing names a gcs builtin, and must
    match it in kind, domain, interval and entries; ``params`` other than
    ``{}`` or null is refused without ``builtin``.  Coefficients are decimal
    or fraction strings, parsed exactly.  A malformed ``n``, ``domain``,
    ``interval`` or ``entries`` field and a grid above the cap are refused,
    naming the field, before any coefficient is read, and an exponent above
    ``MAX_EXPONENT`` before any coefficient is built.
    """
    if not isinstance(doc, dict):
        raise ValueError("chart document must be a JSON object")
    unknown = set(doc) - _CHART_KEYS
    if unknown:
        raise ValueError(f"unknown chart field(s): {', '.join(sorted(unknown))}")
    if doc.get("builtin") is None and doc.get("params") not in (None, {}):
        raise ValueError(f"chart params are read only next to builtin, got {doc['params']!r}")
    if doc.get("builtin") is not None and "entries" not in doc:
        ignored = ", ".join(sorted(set(doc) - {"builtin", "n", "params"}))
        if ignored:
            raise ValueError(f"a builtin reference reads only builtin, n and params, not {ignored}")
        n = None if doc.get("n") is None else _as_int(doc["n"], "chart n")
        return builtin_chart(doc["builtin"], n=n, params=doc.get("params"), grid=grid)
    for key in ("n", "domain", "interval", "entries"):
        if key not in doc:
            raise ValueError(f"chart document is missing '{key}'")
    domain, interval = _check_box(doc["domain"]), _check_interval(doc["interval"])
    if not isinstance(doc["entries"], list):
        raise ValueError(f"chart entries must be a list, got {doc['entries']!r}")
    kind = doc.get("kind", "gcs")
    if kind not in ("gcs", "lightlike"):
        raise ValueError(f"unknown chart kind '{kind}'")
    n = _as_int(doc["n"], "chart n")
    coeff_dim = n - 1 if kind == "lightlike" else n
    if coeff_dim < 1:
        raise ValueError(f"chart n must be at least {n - coeff_dim + 1} for a {kind} chart, got {n}")
    _check_grid_cap(coeff_dim, grid)
    entries = _doc_entries(doc["entries"], coeff_dim)
    if doc.get("builtin") is not None:
        return _named_chart(doc, kind, n, domain, interval, entries, grid)
    chart = GcsChart(n=coeff_dim, domain=domain, interval=interval, entries=entries, grid=grid)
    return LightlikeChart(chart) if kind == "lightlike" else chart


def _doc_entries(items, dim: int) -> list[list[RationalField]]:
    """The full symmetric coefficient matrix of a document's entry list;
    every entry's fields and terms are checked, naming the entry, and every
    exponent against ``MAX_EXPONENT``, before any coefficient is built."""
    nv = dim + 1
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"chart entry must be a JSON object, got {item!r}")
        extra = set(item) - {"i", "j", "num", "den"}
        if extra:
            raise ValueError(f"unknown entry field(s): {', '.join(sorted(extra))}")
        for key in ("i", "j", "num"):
            if key not in item:
                raise ValueError(f"chart entry {k} is missing '{key}'")
        for key, terms in (("num", item["num"]), ("den", item.get("den") or [])):
            if not isinstance(terms, list):
                raise ValueError(
                    f"chart entry {k}: '{key}' must be a list of terms, got {terms!r}"
                )
            for term in terms:
                if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], list)):
                    raise ValueError(
                        f"chart entry {k}: a '{key}' term must be a pair "
                        f"[coefficient, exponents], got {term!r}"
                    )
                for e in term[1]:
                    if _as_int(e, "exponent") > MAX_EXPONENT:
                        raise ValueError(f"exponent {e} is above the cap of {MAX_EXPONENT}")
    upper: dict[tuple[int, int], RationalField] = {}
    for item in items:
        i, j = _as_int(item["i"], "entry index i"), _as_int(item["j"], "entry index j")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"entry index ({i}, {j}) out of range for dimension {dim}")
        num = Poly.from_terms(nv, [(c, e) for c, e in item["num"]])
        den_terms = [["1", [0] * nv]] if item.get("den") is None else item["den"]
        den = Poly.from_terms(nv, [(c, e) for c, e in den_terms])
        key = (min(i, j), max(i, j))
        if key in upper:
            raise ValueError(f"duplicate entry for ({i}, {j})")
        try:
            upper[key] = RationalField(num, den)
        except ZeroDivisionError as exc:  # a denominator that is identically zero
            raise ValueError(f"entry ({i}, {j}): {exc}") from exc
    zero = RationalField.const(nv, 0)
    return [[upper.get((min(i, j), max(i, j)), zero) for j in range(dim)] for i in range(dim)]


def _named_chart(doc: dict, kind: str, n: int, domain, interval, entries, grid: int):
    """The builtin an explicit document names, with the document's params,
    or its lift (the builtin at dimension n - 1) for a lightlike document
    naming a gcs builtin; the document must list exactly that chart."""
    name = doc["builtin"]
    lifted = kind == "lightlike" and _builtin_spec(name).kind == "gcs"
    chart = builtin_chart(name, n=n - 1 if lifted else n, params=doc.get("params"), grid=grid)
    if lifted:
        chart = LightlikeChart(chart)
    base = chart.base if isinstance(chart, LightlikeChart) else chart
    for what, differs in (
        ("kind", kind != ("lightlike" if isinstance(chart, LightlikeChart) else "gcs")),
        ("domain", domain != base.domain),
        ("interval", interval != base.interval),
        ("entries", entries != base.entries),
    ):
        if differs:
            raise ValueError(f"chart document names builtin '{name}' but does not match it in {what}")
    return chart


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
        "params": {k: _param_doc(v) for k, v in sorted(base.params.items())},
    }


def _param_doc(value):
    """A builtin parameter as a document holds it, readable back to the same
    value: lists item by item, strings and numbers as they are, any other
    value (an exact ``Fraction``) as its string."""
    if isinstance(value, (list, tuple)):
        return [_param_doc(v) for v in value]
    return value if isinstance(value, (str, int, float)) else str(value)
