import dataclasses
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from rigidity_lab import gcs
from rigidity_lab.gcs import (
    GcsChart,
    LightlikeChart,
    TransversallyRiemannianError,
    builtin_chart,
    chart_from_doc,
    chart_to_doc,
    genericity_report,
    lift_to_lightlike,
    pullback_chart,
    quotient_to_gcs,
)
from rigidity_lab.multilinear import SPECTRAL_TOL
from rigidity_lab.ratfield import Poly, RationalField


class TestRatField:
    def test_exact_derivative(self):
        # d/dx of x^2 y / (1 + y) at (1/2, 1/3)
        p = Poly.from_terms(2, [(1, (2, 1))])
        den = Poly.from_terms(2, [(1, (0, 0)), (1, (0, 1))])
        f = RationalField(p, den)
        d = f.diff(0)
        val = d.eval((Fraction(1, 2), Fraction(1, 3)))
        assert val == Fraction(2, 1) * Fraction(1, 2) * Fraction(1, 3) / Fraction(4, 3)

    def test_quotient_rule(self):
        x = Poly.var(1, 0)
        one = Poly.const(1, 1)
        f = RationalField(one, one + x)  # 1/(1+x)
        d = f.diff(0)
        assert d.eval((Fraction(1),)) == Fraction(-1, 4)

    def test_decimal_string_coefficients_exact(self):
        p = Poly.from_terms(1, [("0.1", (1,))])
        assert p.eval((Fraction(1),)) == Fraction(1, 10)

    def test_subst_linear(self):
        # x^2 with x -> 2x + 3y
        p = Poly.from_terms(2, [(1, (2, 0))])
        q = p.subst_linear([[2, 3], [0, 1]])
        assert q.eval((Fraction(1), Fraction(1))) == 25

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalField(Poly.const(1, 1), Poly.const(1, 0))


class TestEvalMetric:
    def test_product_nonrigid_at_r2(self):
        chart = builtin_chart("product_nonrigid", 4)
        m = chart.eval_metric([0.3, -0.2, 0.0, 0.9], 2.0).matrix
        assert np.allclose(m, np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_conformal_flat_identity(self):
        chart = builtin_chart("conformal_flat", 3)
        assert np.allclose(chart.eval_metric([0.1, 0.2, 0.3], 1.0).matrix, np.eye(3))

    def test_lightcone_round_factor(self):
        lc = builtin_chart("lightcone", 4)
        x = [0.25, -0.125, 0.5]
        s = 1.0
        m = lc.eval_base_metric(x, s).matrix
        factor = 4.0 * s * s / (1.0 + sum(v * v for v in x)) ** 2
        assert np.allclose(m, factor * np.eye(3), atol=1e-15)
        # at the origin with s = 1 the factor is exactly 4
        assert np.array_equal(
            lc.eval_base_metric([0.0, 0.0, 0.0], 1.0).matrix, 4.0 * np.eye(3)
        )

    def test_out_of_domain_rejected(self):
        chart = builtin_chart("conformal_flat", 2)
        with pytest.raises(ValueError, match="outside"):
            chart.eval_metric([3.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="outside"):
            chart.eval_metric([0.0, 0.0], 17.0)


class TestEvalPartials:
    def test_conformal_flat_r_derivative(self):
        chart = builtin_chart("conformal_flat", 3)
        d = chart.eval_partials([0.0, 0.0, 0.0], 1.0, 0, 1)
        assert np.allclose(d, np.eye(3))

    def test_product_nonrigid_r_derivative(self):
        chart = builtin_chart("product_nonrigid", 3)
        d = chart.eval_partials([0.2, 0.0, -0.5], 1.5, 0, 1)
        assert np.allclose(d, np.diag([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("name,n", [("lightcone", 4), ("linear_hyperbolic", None)])
    def test_finite_difference_oracle(self, name, n):
        built = builtin_chart(name, n)
        chart = quotient_to_gcs(built) if isinstance(built, LightlikeChart) else built
        x = np.array([0.11, -0.07, 0.23])
        r = 0.8
        exact = chart.eval_partials(x, r, 1, 0)
        h = 1e-4
        for w in range(chart.n):
            e = np.zeros(chart.n)
            e[w] = 1.0
            fd = (
                chart.eval_metric(x + h * e, r).matrix
                - chart.eval_metric(x - h * e, r).matrix
            ) / (2.0 * h)
            scale = max(np.max(np.abs(exact[w])), 1e-3)
            assert np.max(np.abs(fd - exact[w])) < 1e-6 * max(scale, 1.0)

    def test_richardson_order_two(self):
        lc = builtin_chart("lightcone", 4)
        chart = quotient_to_gcs(lc)
        x = np.array([0.11, -0.07, 0.23])
        r = 0.8
        e = np.zeros(3)
        e[0] = 1.0
        exact = chart.eval_partials(x, r, 2, 0)[0, 0]

        def fd(h):
            plus = chart.eval_metric(x + h * e, r).matrix
            minus = chart.eval_metric(x - h * e, r).matrix
            mid = chart.eval_metric(x, r).matrix
            return (plus - 2.0 * mid + minus) / (h * h)

        err3 = np.max(np.abs(fd(1e-3) - exact))
        err4 = np.max(np.abs(fd(1e-4) - exact))
        # second-order scheme: shrinking h by 10 divides the error by ~100,
        # until float cancellation takes over
        assert err3 < 1e-4
        assert err4 < max(10.0 * err3 / 100.0, 1e-7)

    def test_mixed_derivative(self):
        lc = builtin_chart("lightcone", 4)
        chart = quotient_to_gcs(lc)
        x = np.array([0.11, -0.07, 0.23])
        r = 0.8
        exact = chart.eval_partials(x, r, 1, 1)
        h = 1e-4
        e = np.zeros(3)
        e[1] = 1.0
        fd = (
            chart.eval_partials(x + h * e, r, 0, 1)
            - chart.eval_partials(x - h * e, r, 0, 1)
        ) / (2.0 * h)
        assert np.max(np.abs(fd - exact[1])) < 1e-6

    def test_order_bounds(self):
        chart = builtin_chart("conformal_flat", 2)
        with pytest.raises(ValueError):
            chart.eval_partials([0.0, 0.0], 1.0, 3, 0)
        with pytest.raises(ValueError):
            chart.eval_partials([0.0, 0.0], 1.0, 0, 2)


class TestGenericity:
    def test_conformal_flat_generic(self):
        report = genericity_report(builtin_chart("conformal_flat", 3))
        assert report.generic and report.nowhere_tr
        assert report.worst_min_abs_eig == pytest.approx(1.0)

    def test_product_nonrigid_not_generic(self):
        report = genericity_report(builtin_chart("product_nonrigid", 3))
        assert report.nowhere_tr
        assert not report.generic
        assert report.worst_min_abs_eig == pytest.approx(0.0, abs=1e-14)

    def test_linear_hyperbolic_generic(self):
        report = genericity_report(builtin_chart("linear_hyperbolic"))
        assert report.generic

    def test_epsilon_perturbation_restores_genericity(self):
        report = genericity_report(
            builtin_chart("product_nonrigid", 3, {"epsilon": 0.01})
        )
        assert report.generic


class TestLiftQuotient:
    def test_lift_structure(self):
        chart = builtin_chart("conformal_flat", 3)
        lc = lift_to_lightlike(chart)
        assert lc.n == 4 and lc.base_dim == 3
        full = lc.eval_metric([0.0, 0.0, 0.0], 1.5).matrix
        assert np.allclose(full[:3, :3], 1.5 * np.eye(3))
        assert np.allclose(full[3, :], 0.0) and np.allclose(full[:, 3], 0.0)

    def test_round_trip_exact(self):
        chart = builtin_chart("linear_hyperbolic")
        back = quotient_to_gcs(lift_to_lightlike(chart))
        for i in range(3):
            for j in range(3):
                assert back.entries[i][j].num == chart.entries[i][j].num
                assert back.entries[i][j].den == chart.entries[i][j].den

    def test_lift_of_nonrigid_matches_genericity(self):
        chart = builtin_chart("product_nonrigid", 3)
        lc = lift_to_lightlike(chart)
        report = genericity_report(lc)
        assert report.nowhere_tr and not report.generic

    def test_lightcone_quotient_is_generic(self):
        q = quotient_to_gcs(builtin_chart("lightcone", 4))
        assert genericity_report(q).generic

    def test_quotient_reuses_the_validated_chart(self, monkeypatch):
        lc = builtin_chart("lightcone", 4)

        def no_scan(*args, **kwargs):
            raise AssertionError("grid scanned again")

        monkeypatch.setattr(gcs, "_scan_grid", no_scan)
        assert quotient_to_gcs(lc) is lc.base

    def test_t_independent_chart_refused(self):
        nv = 3  # two base coordinates + t
        one = RationalField.const(nv, 1)
        zero = RationalField.const(nv, 0)
        entries = [[one, zero], [zero, one]]
        lc = LightlikeChart(
            GcsChart(n=2, domain=[(-1.0, 1.0)] * 2, interval=(0.5, 2.0), entries=entries)
        )
        with pytest.raises(TransversallyRiemannianError):
            quotient_to_gcs(lc)


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_chart("noname")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            builtin_chart("conformal_flat", 3, {"bogus": 1})

    def test_linear_hyperbolic_rejects_decreasing_f(self):
        with pytest.raises(ValueError, match="increasing"):
            builtin_chart(
                "linear_hyperbolic", params={"f_coeffs": [1, -4, 1], "shift": 0}
            )

    def test_linear_hyperbolic_rejects_nonpositive_f(self):
        with pytest.raises(ValueError, match="positive"):
            builtin_chart(
                "linear_hyperbolic", params={"f_coeffs": [-10, 0, 1], "shift": 0}
            )

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            builtin_chart("product_nonrigid", 3, {"epsilon": -0.5})

    def test_non_positive_chart_rejected(self):
        # interval crossing zero makes r*Id indefinite somewhere
        with pytest.raises(ValueError, match="positive definite"):
            builtin_chart("conformal_flat", 2, {"interval": [-1.0, 1.0]})


class TestChartEquality:
    def test_derivative_cache_does_not_affect_equality(self):
        a = builtin_chart("conformal_flat", 3)
        b = builtin_chart("conformal_flat", 3)
        assert a == b
        a.eval_partials([0.0, 0.0, 0.0], 1.0, 2, 1)
        assert a == b


class TestChartJson:
    def test_round_trip_through_doc(self):
        chart = builtin_chart("product_nonrigid", 3, {"epsilon": 0.25})
        doc = chart_to_doc(chart)
        text = json.dumps(doc)
        loaded = chart_from_doc(json.loads(text))
        assert isinstance(loaded, GcsChart)
        for x, r in [((0.1, -0.4, 0.9), 0.75), ((0.0, 0.0, 0.0), 2.0)]:
            assert np.allclose(
                loaded.eval_metric(x, r).matrix, chart.eval_metric(x, r).matrix
            )

    def test_lightlike_round_trip(self):
        lc = builtin_chart("lightcone", 4)
        loaded = chart_from_doc(json.loads(json.dumps(chart_to_doc(lc))))
        assert isinstance(loaded, LightlikeChart)
        assert np.allclose(
            loaded.eval_base_metric([0.1, 0.2, 0.0], 1.2).matrix,
            lc.eval_base_metric([0.1, 0.2, 0.0], 1.2).matrix,
        )

    def test_unknown_fields_rejected(self):
        doc = chart_to_doc(builtin_chart("conformal_flat", 2))
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown chart field"):
            chart_from_doc(doc)

    def test_builtin_reference_doc(self):
        chart = chart_from_doc({"builtin": "conformal_flat", "n": 2})
        assert chart.name == "conformal_flat"
        assert chart.n == 2

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            chart_from_doc({"n": 2, "domain": [[-1, 1], [-1, 1]]})


class TestPullback:
    def test_linear_change_preserves_genericity_verdicts(self, rng):
        for name in ("conformal_flat", "product_nonrigid"):
            chart = builtin_chart(name, 3)
            base = genericity_report(chart)
            for _ in range(3):
                m = np.eye(3, dtype=int) + np.diag([1, 0, 0]) @ rng.integers(
                    -1, 2, size=(3, 3)
                )
                if abs(np.linalg.det(m.astype(float))) < 0.5:
                    continue
                moved = pullback_chart(chart, [[int(v) for v in row] for row in m])
                report = genericity_report(moved)
                assert report.generic == base.generic
                assert report.nowhere_tr == base.nowhere_tr

    def test_pullback_matches_congruence_pointwise(self):
        chart = builtin_chart("conformal_flat", 2)
        m = [[1, 1], [0, 1]]
        moved = pullback_chart(chart, m)
        mm = np.array([[1.0, 1.0], [0.0, 1.0]])
        y = np.array([0.2, -0.1])
        lhs = moved.eval_metric(y, 1.3).matrix
        rhs = mm.T @ chart.eval_metric(mm @ y, 1.3).matrix @ mm
        assert np.allclose(lhs, rhs, atol=1e-14)


# -- exact grid oracle ---------------------------------------------------------


def _exact_grid(domain, interval, per_axis):
    """Grid points as exact rationals, last axis (r) fastest."""
    axes = [gcs._axis_samples(lo, hi, per_axis) for lo, hi in [*domain, interval]]
    return itertools.product(*axes)


def _exact_first_failure(domain, interval, entries, per_axis):
    """Message of the first grid point failing the exact positivity scan."""
    for point in _exact_grid(domain, interval, per_axis):
        where = tuple(map(float, point))
        try:
            m = gcs._eval_entry_matrix(entries, point)
        except ZeroDivisionError:
            return f"denominator vanishes at grid point {where}"
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] <= SPECTRAL_TOL * max(abs(eigs[-1]), 1.0) or eigs[-1] <= 0.0:
            return (
                f"coefficient matrix is not positive definite at grid point "
                f"{where} (min eigenvalue {eigs[0]:.3e})"
            )
    return None


def _exact_genericity(chart, per_axis, tol=SPECTRAL_TOL):
    """The genericity scan in exact Fraction arithmetic, point by point."""
    n = chart.n
    out = {"nowhere_tr": True, "generic": True, "worst": np.inf, "min_norm": np.inf}
    for point in _exact_grid(chart.domain, chart.interval, per_axis):
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                d[i, j] = d[j, i] = float(chart._derived_entry(i, j, (0,) * n, 1).eval(point))
        scale = max(float(np.max(np.abs(gcs._eval_entry_matrix(chart.entries, point)))), 1.0)
        norm = float(np.max(np.abs(d)))
        min_eig = float(np.min(np.abs(np.linalg.eigvalsh(d))))
        floats = ([float(c) for c in point[:-1]], float(point[-1]))
        if norm <= tol * scale:
            out["nowhere_tr"] = False
        if min_eig <= tol * scale:
            out["generic"] = False
        if min_eig < out["worst"]:
            out["worst"], out["worst_point"] = min_eig, floats
        if norm < out["min_norm"]:
            out["min_norm"], out["min_norm_point"] = norm, floats
    return out


def _diag_entries(n, diag):
    """Diagonal entries from polynomials given as ``[(coef, exps), ...]``."""
    nv = n + 1
    zero = RationalField.const(nv, 0)
    entries = [[zero] * n for _ in range(n)]
    for k, terms in enumerate(diag):
        entries[k][k] = RationalField.from_poly(Poly.from_terms(nv, terms))
    return entries


def _diag_chart(n, diag, domain, interval, grid=gcs.DEFAULT_GRID):
    entries = _diag_entries(n, diag)
    return GcsChart(n=n, domain=domain, interval=interval, entries=entries, grid=grid)


def _singular_derivative_chart():
    """a = diag(4+r, 4-r, 4+x_1 r): the derivative diag(1, -1, x_1) is
    indefinite everywhere and singular where x_1 = 0."""
    return _diag_chart(
        3,
        [
            [(4, (0, 0, 0, 0)), (1, (0, 0, 0, 1))],
            [(4, (0, 0, 0, 0)), (-1, (0, 0, 0, 1))],
            [(4, (0, 0, 0, 0)), (1, (1, 0, 0, 1))],
        ],
        [(-1.0, 1.0)] * 3,
        (0.5, 2.0),
    )


def _dense_chart(n=4, grid=4):
    """Every entry a nonzero rational function; positive and generic on
    [-1, 1]^4 x [1/2, 2] by strict diagonal dominance of a and of d."""
    rng = random.Random(2024)
    nv, r = n + 1, n

    def exps(**powers):
        e = [0] * nv
        for var, p in powers.items():
            e[int(var[1:])] += p
        return e

    def eighths(lo, hi, signed=False):
        v = Fraction(rng.randrange(lo | 1, hi + 1, 2), 8)
        return -v if signed and rng.random() < 0.5 else v

    entries = []
    for i in range(n):
        k, m = rng.randrange(n), rng.randrange(n)
        num = [(eighths(57, 71), exps()), (eighths(17, 23), exps(**{f"v{r}": 1})),
               (eighths(1, 7), exps(**{f"v{k}": 2}))]
        den = [(1, exps()), (Fraction(1, 4), exps(**{f"v{m}": 2}))]
        entries.append((i, i, num, den))
    for i in range(n):
        for j in range(i + 1, n):
            p, q = rng.randrange(n), rng.randrange(n)
            num = [(eighths(1, 3, True), exps()), (eighths(1, 3, True), exps(**{f"v{p}": 1})),
                   (eighths(1, 3, True), exps(**{f"v{r}": 1}))]
            den = [(2, exps()), (1, exps(**{f"v{q}": 1}))]
            entries.append((i, j, num, den))
    doc = {
        "kind": "gcs",
        "n": n,
        "domain": [[-1, 1]] * n,
        "interval": [0.5, 2],
        "entries": [
            {"i": i, "j": j, "num": [[str(c), e] for c, e in num],
             "den": [[str(c), e] for c, e in den]}
            for i, j, num, den in entries
        ],
    }
    return chart_from_doc(doc, grid=grid)


def _oracle_cases():
    shear = [[1, 1, 0], [0, 1, 0], [0, -1, 1]]
    return {
        "conformal_flat": lambda: builtin_chart("conformal_flat", 3),
        "product_nonrigid": lambda: builtin_chart("product_nonrigid", 3),
        "product_nonrigid_eps": lambda: builtin_chart(
            "product_nonrigid", 3, {"epsilon": "1/8"}
        ),
        "linear_hyperbolic": lambda: builtin_chart("linear_hyperbolic"),
        "lightcone": lambda: builtin_chart("lightcone", 4),
        "lightcone_quotient": lambda: quotient_to_gcs(builtin_chart("lightcone", 4)),
        "pullback_conformal_flat": lambda: pullback_chart(
            builtin_chart("conformal_flat", 3), shear
        ),
        "pullback_product_nonrigid": lambda: pullback_chart(
            builtin_chart("product_nonrigid", 3), shear
        ),
        "pullback_linear_hyperbolic": lambda: pullback_chart(
            builtin_chart("linear_hyperbolic"), shear
        ),
        "singular_derivative": _singular_derivative_chart,
        "dense_n4": _dense_chart,
    }


class TestGridScanOracle:
    """The vectorized float grid scan against the exact Fraction scan."""

    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    @pytest.mark.parametrize("other_grid", [False, True])
    def test_matches_exact_scan(self, case, other_grid):
        chart = _oracle_cases()[case]()
        base = chart.base if isinstance(chart, LightlikeChart) else chart
        per_axis = base.grid + 1 if other_grid else base.grid
        if other_grid and case == "dense_n4":
            per_axis = 3
        if other_grid:
            chart = dataclasses.replace(base, grid=per_axis)
        exact = _exact_genericity(base, per_axis)
        report = genericity_report(chart)
        assert report.grid == per_axis
        assert report.nowhere_tr == exact["nowhere_tr"]
        assert report.generic == exact["generic"]
        assert report.worst_point == exact["worst_point"]
        assert report.min_norm_point == exact["min_norm_point"]
        assert report.worst_min_abs_eig == pytest.approx(exact["worst"], rel=1e-12, abs=1e-14)
        assert report.min_norm == pytest.approx(exact["min_norm"], rel=1e-12, abs=1e-14)

    def test_singular_indefinite_derivative_is_not_generic(self):
        report = genericity_report(_singular_derivative_chart())
        assert report.nowhere_tr
        assert not report.generic
        assert report.worst_min_abs_eig == 0.0
        assert report.worst_point[0][0] == 0.0

    def test_first_non_positive_point_matches(self):
        # 1 + x_1 r turns negative at x_1 = -1, r = 1.25
        domain, interval = [(-1.0, 1.0)] * 2, (0.5, 2.0)
        entries = _diag_entries(2, [[(1, (0, 0, 0)), (1, (1, 0, 1))], [(1, (0, 0, 0))]])
        expected = _exact_first_failure(domain, interval, entries, 5)
        assert expected.startswith(
            "coefficient matrix is not positive definite at grid point (-1.0, -1.0, 1.25)"
        )
        with pytest.raises(ValueError) as err:
            GcsChart(n=2, domain=domain, interval=interval, entries=entries)
        assert str(err.value) == expected

    def test_first_vanishing_denominator_matches(self):
        # x_1 r / x_1: positive wherever it is defined, undefined at x_1 = 0
        nv = 3
        x1 = Poly.var(nv, 0)
        f = RationalField(x1 * Poly.var(nv, 2), x1)
        zero = RationalField.const(nv, 0)
        one = RationalField.const(nv, 1)
        entries = [[f, zero], [zero, one]]
        domain, interval = [(-1.0, 1.0)] * 2, (0.5, 2.0)
        expected = _exact_first_failure(domain, interval, entries, 5)
        assert expected == "denominator vanishes at grid point (0.0, -1.0, 0.5)"
        with pytest.raises(ValueError) as err:
            GcsChart(n=2, domain=domain, interval=interval, entries=entries)
        assert str(err.value) == expected


class TestGridScanReuse:
    def test_summary_reused_for_own_grid(self, monkeypatch):
        chart = builtin_chart("product_nonrigid", 3)

        def no_scan(*args, **kwargs):
            raise AssertionError("grid scanned again")

        monkeypatch.setattr(gcs, "_scan_grid", no_scan)
        assert genericity_report(chart).grid == chart.grid
        lc = lift_to_lightlike(chart)
        assert lc.base is chart
        assert not genericity_report(lc).generic

    def test_other_grid_scans_without_positivity(self):
        # a = (r - 5/4)^2 vanishes at r = 5/4, a sample of the 5-point grid
        # but not of the 4-point one
        square = [[(1, (0, 2)), ("-5/2", (0, 1)), ("25/16", (0, 0))]]
        args = (1, square, [(-1.0, 1.0)], (0.5, 2.0))
        chart = _diag_chart(*args, grid=4)
        assert genericity_report(chart).generic
        with pytest.raises(ValueError, match="positive definite"):
            _diag_chart(*args, grid=5)

    def test_grid_cap_refused_before_scanning(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("oversized grid was scanned")

        monkeypatch.setattr(gcs, "_compile_grid_program", no_scan)
        with pytest.raises(ValueError, match=r"20\^7 points"):
            builtin_chart("conformal_flat", 6, grid=20)
