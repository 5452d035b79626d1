import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidity_lab import gcs
from rigidity_lab.gcs import (
    GcsChart,
    LightlikeChart,
    builtin_chart,
    chart_from_doc,
    chart_to_doc,
    genericity_report,
    lift_to_lightlike,
)
from rigidity_lab.multilinear import SPECTRAL_TOL
from rigidity_lab.ratfield import Poly, RationalField
from conftest import congruent_chart, full_matrix

TESTS_DIR = Path(__file__).parent


_PARTIAL_CASES = {
    "conformal_flat": lambda: builtin_chart("conformal_flat", 3),
    "product_nonrigid": lambda: builtin_chart("product_nonrigid", 3),
    "product_nonrigid_eps": lambda: builtin_chart("product_nonrigid", 3, {"epsilon": "1/8"}),
    "linear_hyperbolic": lambda: builtin_chart("linear_hyperbolic"),
    "lightcone": lambda: builtin_chart("lightcone", 3),
    "chart_rational": lambda: chart_from_doc(
        json.loads((TESTS_DIR / "data" / "chart_rational.json").read_text())
    ),
    "chart_lightlike": lambda: chart_from_doc(
        json.loads((TESTS_DIR / "data" / "chart_lightlike.json").read_text())
    ),
    "dense_n4": lambda: _dense_chart(),
}


def _assert_partials_match_quotient_rule(chart, points):
    """Every partial of x-order m <= 2 and r-order l <= 1 at each exact
    point, in every arrangement of its x-slots, equals the plain quotient
    rule evaluated by ``RationalField.eval``, to the last bit."""
    n = chart.n
    a = full_matrix(chart.entries, n)
    plain = {}

    def oracle(i, j, variables):
        if variables not in plain.setdefault((i, j), {}):
            f = a[i][j]
            if variables:
                f = quotient_rule(oracle(i, j, variables[:-1]), variables[-1])
            plain[i, j][variables] = f
        return plain[i, j][variables]

    for point in points:
        x, r = [float(v) for v in point[:-1]], float(point[-1])
        for m in range(gcs.MAX_X_ORDER + 1):
            for l in range(gcs.MAX_R_ORDER + 1):
                got = chart.eval_partials(x, r, m, l)
                for idx in itertools.product(range(n), repeat=m):
                    variables = tuple(sorted(idx)) + (n,) * l
                    fields = {(i, j): oracle(i, j, variables)
                              for i, j in itertools.combinations_with_replacement(range(n), 2)}
                    want = _exact_matrix(fields, point)
                    assert got[idx].tobytes() == want.tobytes(), (point, m, l, idx)


def _partial(poly, alpha):
    """The partial of a polynomial of multi-index ``alpha``."""
    for var, count in enumerate(alpha):
        for _ in range(count):
            poly = poly.diff(var)
    return poly


class TestRatField:
    def test_exact_derivative(self):
        # d/dx of x^2 y / (1 + y) at (1/2, 1/3), by jet division
        p = Poly.from_terms(2, [(1, (2, 1))])
        den = Poly.from_terms(2, [(1, (0, 0)), (1, (0, 1))])
        point = (Fraction(1, 2), Fraction(1, 3))
        alphas = [(0, 0), (1, 0)]
        jet = gcs._jet_divide(
            {a: _partial(p, a).eval(point) for a in alphas}, {(0, 0): den.eval(point)}, alphas
        )
        assert jet[1, 0] == Fraction(2, 1) * Fraction(1, 2) * Fraction(1, 3) / Fraction(4, 3)

    def test_quotient_rule(self):
        # 1/(1+x) at x = 1: the denominator's partial enters once, unsquared
        jet = gcs._jet_divide({(0,): Fraction(1), (1,): Fraction(0)},
                              {(0,): Fraction(2), (1,): Fraction(1)}, [(0,), (1,)])
        assert jet[(1,)] == Fraction(-1, 4)

    def test_decimal_string_coefficients_exact(self):
        p = Poly.from_terms(1, [("0.1", (1,))])
        assert p.eval((Fraction(1),)) == Fraction(1, 10)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalField(Poly.const(1, 1), Poly.const(1, 0))

    def test_derivative_keeps_a_denominator_free_of_the_variable(self):
        chart = builtin_chart("lightcone", 4).base
        f = chart.entries[0, 0]  # 4 t^2 / (1 + |x|^2)^2
        prog = chart._program
        assert prog.jets[0] == ((f.num, f.den), (f.num.diff(chart.n), Poly(chart.n + 1, {})))
        # the zero r-partial of D reads the zero column, and the rule skips
        # it: the grid reads N_r / D
        assert prog.columns[1, 1, 0] == prog.coefs.shape[1] - 1
        assert not prog.coefs[:, -1].any()

    def test_point_partials_square_no_denominator(self, monkeypatch):
        # (1 + |x|^2)^8 would be the denominator of the (2, 1) partial by the
        # quotient rule; jet division multiplies no polynomials
        chart = builtin_chart("lightcone", 5).base

        def no_product(*args):
            raise AssertionError("a polynomial product at a point")

        monkeypatch.setattr(Poly, "__mul__", no_product)
        out = chart.eval_partials([0.25, -0.125, 0.5, 0.0], 1.5, 2, 1)
        assert out.shape == (4,) * 4 and np.all(np.isfinite(out))

    @pytest.mark.parametrize("case", sorted(_PARTIAL_CASES))
    def test_derivatives_equal_the_plain_quotient_rule(self, case):
        chart = _PARTIAL_CASES[case]()
        chart = chart.base if isinstance(chart, LightlikeChart) else chart
        rng = random.Random(11)
        points = [
            tuple(Fraction(lo) + Fraction(rng.randint(0, 16), 16) * (Fraction(hi) - Fraction(lo))
                  for lo, hi in [*chart.domain, chart.interval])
            for _ in range(3)
        ]
        _assert_partials_match_quotient_rule(chart, points)

    def test_high_exponents_stay_exact(self):
        # 3 + x_0^45 r and x_1^40 / (4 (2 + x_0^41 x_1)), exponents below
        # MAX_EXPONENT = 64: 3^45 is beyond the 64-bit integer range, so a
        # power with an int64 exponent would silently overflow
        doc = {
            "kind": "gcs", "n": 2, "domain": [[-1, 1]] * 2, "interval": [0.5, 2],
            "entries": [
                {"i": 0, "j": 0, "num": [["3", [0, 0, 0]], ["1", [45, 0, 1]]]},
                {"i": 0, "j": 1, "num": [["1/4", [0, 40, 0]]],
                 "den": [["2", [0, 0, 0]], ["1", [41, 1, 0]]]},
                {"i": 1, "j": 1, "num": [["3", [0, 0, 0]], ["1/2", [0, 0, 1]]]},
            ],
        }
        chart = chart_from_doc(doc)
        point = (Fraction(3, 4), Fraction(-7, 8), Fraction(5, 4))
        metric = chart.eval_metric([0.75, -0.875], 1.25).matrix
        assert metric.tobytes() == _exact_matrix(chart.entries, point).tobytes()
        _assert_partials_match_quotient_rule(chart, [point])


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
        chart = built.base if isinstance(built, LightlikeChart) else built
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

    def test_partials_equal_across_arrangements(self):
        # every arrangement of a differentiation tuple reads the same block
        chart = builtin_chart("linear_hyperbolic")
        exact = chart.eval_partials([0.11, -0.07, 0.23], 0.8, 2, 1)
        assert exact.shape == (3,) * 4
        for a, b in itertools.product(range(3), repeat=2):
            assert exact[a, b].tobytes() == exact[b, a].tobytes()
        assert chart.eval_partials([0.11, -0.07, 0.23], 0.8, 0, 1).shape == (3, 3)

    def test_richardson_order_two(self):
        chart = builtin_chart("lightcone", 4).base
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
        chart = builtin_chart("lightcone", 4).base
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

    def test_tolerance_reads_the_scan_record(self):
        # d = diag(1, 1/8, 1/8): the eigenvalue ratio is 8 times below the norm ratio
        chart = builtin_chart("product_nonrigid", 3, {"epsilon": "1/8"})
        ratio = chart._grid_summary.min_eig_ratio
        below, above = (genericity_report(chart, tol) for tol in (ratio / 2, ratio * 2))
        assert below.generic and not above.generic
        assert below.nowhere_tr and above.nowhere_tr
        assert dataclasses.replace(below, tol=above.tol) == above
        assert chart._grid_summary.tol == SPECTRAL_TOL

    def test_record_points_are_tuples_that_cannot_be_changed(self):
        chart = builtin_chart("product_nonrigid", 3)
        report = genericity_report(chart)
        for x, r in (report.worst_point, report.min_norm_point):
            assert type(x) is tuple and type(r) is float and len(x) == 3
            with pytest.raises(TypeError):
                x[0] = 9.0
        assert report.worst_point is chart._grid_summary.worst_point
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.tol = 0.0


class TestLiftQuotient:
    def test_lift_structure(self):
        chart = builtin_chart("conformal_flat", 3)
        lc = lift_to_lightlike(chart)
        assert lc.n == 4 and lc.base_dim == 3
        full = lc.eval_metric([0.0, 0.0, 0.0], 1.5).matrix
        assert np.allclose(full[:3, :3], 1.5 * np.eye(3))
        assert np.allclose(full[3, :], 0.0) and np.allclose(full[:, 3], 0.0)

    def test_round_trip_exact(self):
        # the lift's base block is the chart's metric at r = t, bit for bit
        chart = builtin_chart("linear_hyperbolic")
        lc = lift_to_lightlike(chart)
        for x, t in (([0.1, -0.2, 0.3], 0.5), ([0.0, 0.0, 0.0], 0.9)):
            want = chart.eval_metric(x, t).matrix
            assert lc.eval_base_metric(x, t).matrix.tobytes() == want.tobytes()
            assert lc.eval_metric(x, t).matrix[:3, :3].tobytes() == want.tobytes()
            got = lc.eval_base_partials(x, t, 1, 1)
            assert got.tobytes() == chart.eval_partials(x, t, 1, 1).tobytes()

    def test_lift_of_nonrigid_matches_genericity(self):
        chart = builtin_chart("product_nonrigid", 3)
        lc = lift_to_lightlike(chart)
        report = genericity_report(lc)
        assert report.nowhere_tr and not report.generic

    def test_lightcone_quotient_is_generic(self):
        assert genericity_report(builtin_chart("lightcone", 4).base).generic

    def test_quotient_reuses_the_validated_chart(self, monkeypatch):
        lc = builtin_chart("lightcone", 4)

        def no_scan(*args, **kwargs):
            raise AssertionError("grid scanned again")

        monkeypatch.setattr(gcs, "_scan_grid", no_scan)
        assert lift_to_lightlike(lc.base).base is lc.base
        with pytest.raises(TypeError, match="needs a GcsChart"):
            LightlikeChart(lc)

    def test_t_independent_chart_is_transversally_riemannian(self):
        nv = 3  # two base coordinates + t
        one = RationalField.const(nv, 1)
        t = Poly.var(nv, 2)
        # (t + t x^2) / t mentions t in both polynomials but equals 1 + x^2;
        # its r-dependence is decided exactly, so no rounding noise is left
        mentions_t = RationalField(t + t * Poly.var(nv, 0) * Poly.var(nv, 0), t)
        for corner in (one, mentions_t):
            entries = {(0, 0): corner, (1, 1): one}
            lc = LightlikeChart(
                GcsChart(n=2, domain=[(-1.0, 1.0)] * 2, interval=(0.5, 2.0), entries=entries)
            )
            report = genericity_report(lc)
            assert not report.nowhere_tr
            assert report.min_norm == 0.0


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


class TestChartEntries:
    """A chart holds the nonzero upper triangle of its coefficient matrix."""

    @staticmethod
    def _chart(entries):
        return GcsChart(n=2, domain=[(-1.0, 1.0)] * 2, interval=(0.5, 2.0), entries=entries)

    @pytest.mark.parametrize(
        "key, nvars, match",
        [
            ((1, 0), 3, r"entry key \(1, 0\) is not \(i, j\) with 0 <= i <= j < 2"),
            ((0, 2), 3, r"entry key \(0, 2\) is not"),
            ((-1, 0), 3, r"entry key \(-1, 0\) is not"),
            ((0, 1), 2, r"entry \(0, 1\) uses 2 variables, expected 3"),
        ],
        ids=["below_diagonal", "out_of_range", "negative", "variable_count"],
    )
    def test_refuses_a_key_off_the_upper_triangle_and_a_wrong_variable_count(
        self, key, nvars, match
    ):
        one = RationalField.const(3, 1)
        with pytest.raises(ValueError, match=match):
            self._chart({(0, 0): one, (1, 1): one, key: RationalField.const(nvars, "1/4")})

    def test_stores_the_nonzero_entries_in_sorted_order(self):
        one, zero = RationalField.const(3, 1), RationalField.const(3, 0)
        chart = self._chart({(1, 1): one, (0, 1): zero, (0, 0): one})
        assert list(chart.entries) == [(0, 0), (1, 1)]
        assert chart == self._chart({(0, 0): one, (1, 1): one})

    def test_document_entry_with_zero_numerator_reads_as_omitted(self):
        doc = chart_to_doc(builtin_chart("conformal_flat", 2))
        zero = {"i": 1, "j": 0, "num": [["0", [0, 0, 0]]], "den": [["2", [0, 0, 0]]]}
        loaded = chart_from_doc({**doc, "entries": [*doc["entries"], zero]})
        assert loaded == builtin_chart("conformal_flat", 2)
        del doc["builtin"]
        assert chart_from_doc({**doc, "entries": [zero, *doc["entries"]]}).entries == loaded.entries


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

    @pytest.mark.parametrize(
        "name, n, params",
        [
            ("product_nonrigid", 3, {"epsilon": "1/8"}),
            ("product_nonrigid", 3, {"epsilon": 0.1}),
            ("linear_hyperbolic", 3, {"f_coeffs": [1, "1/2", 1], "interval": [0.25, 0.75]}),
            ("lightcone", 4, {"domain": [[-0.25, 0.25]] * 3}),
        ],
    )
    def test_builtin_round_trip_keeps_name_and_params(self, name, n, params):
        chart = builtin_chart(name, n, params)
        doc = json.loads(json.dumps(chart_to_doc(chart)))
        loaded = chart_from_doc(doc)
        assert loaded == chart
        assert (loaded.name, getattr(loaded, "base", loaded).params) == (name, params)
        assert chart_to_doc(loaded) == doc

    @pytest.mark.parametrize(
        "field, value",
        [("builtin", "product_nonrigid"), ("interval", [0.5, 3.0]), ("domain", [[-1, 2]] * 3),
         ("entries", [])],
    )
    def test_document_unlike_its_builtin_refused(self, field, value):
        doc = chart_to_doc(builtin_chart("conformal_flat", 3))
        doc[field] = value
        name = doc["builtin"]
        what = "entries" if field == "builtin" else field
        with pytest.raises(ValueError, match=f"names builtin '{name}' but does not match it in {what}"):
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
                moved = congruent_chart(chart, [[int(v) for v in row] for row in m])
                report = genericity_report(moved)
                assert report.generic == base.generic
                assert report.nowhere_tr == base.nowhere_tr

    def test_pullback_matches_congruence_pointwise(self):
        chart = builtin_chart("conformal_flat", 2)
        m = [[1, 1], [0, 1]]
        moved = congruent_chart(chart, m)
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


def quotient_rule(f, var):
    """The plain quotient rule, over the squared denominator where that
    involves the variable: the oracle for every partial of a chart entry."""
    if f.den.diff(var).is_zero:
        return RationalField(f.num.diff(var), f.den)
    num = f.num.diff(var) * f.den - f.num * f.den.diff(var)
    return RationalField(num, f.den * f.den)


def _exact_matrix(entries, point):
    """The symmetric matrix of a chart's ``entries`` at an exact point, each
    value by ``RationalField.eval`` and rounded once."""
    n = len(point) - 1
    entries = full_matrix(entries, n)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = float(entries[i][j].eval(point))
    return out


def _exact_value(f, point):
    """``f`` at an exact point by ``RationalField.eval``, rounded once, or the
    grid scan's refusal of that value."""
    try:
        return float(f.eval(point))
    except ZeroDivisionError:
        return "denominator vanishes"
    except OverflowError:
        return "metric or r-derivative value is not finite"


def _exact_values(f, points):
    """``_exact_value`` at every point, evaluated once per distinct value of
    the coordinates that ``f`` mentions."""
    used = sorted({v for p in (f.num, f.den) for e in p.terms for v, k in enumerate(e) if k})
    seen, out = {}, []
    for p in points:
        key = tuple(p[v] for v in used)
        if key not in seen:
            seen[key] = _exact_value(f, p)
        out.append(seen[key])
    return out


def _exact_scan(domain, interval, entries, per_axis):
    """The grid scan in exact arithmetic on full matrices: the metric by
    ``RationalField.eval``, its r-derivative by the plain quotient rule,
    each value rounded once (a field shared by several entries is evaluated
    once), then ``eigvalsh``.  Returns the summary or raises the scan's
    ValueError at the first failing point."""
    n = len(domain)
    entries = full_matrix(entries, n)
    points = list(_exact_grid(domain, interval, per_axis))
    mats = np.zeros((2, len(points), n, n))
    refusals = [set() for _ in points]
    values = {}
    for slot in (0, 1):
        for i in range(n):
            for j in range(i, n):
                f = entries[i][j]
                if (slot, id(f)) not in values:
                    field = quotient_rule(f, n) if slot else f
                    column = _exact_values(field, points)
                    for k, v in enumerate(column):
                        if isinstance(v, str):
                            refusals[k].add(v)
                    values[slot, id(f)] = [0.0 if isinstance(v, str) else v for v in column]
                mats[slot, :, i, j] = mats[slot, :, j, i] = values[slot, id(f)]
    eigs = np.linalg.eigvalsh(mats[0])
    for k, point in enumerate(points):
        where = tuple(map(float, point))
        for message in sorted(refusals[k], reverse=True):  # "not finite" first
            raise ValueError(f"{message} at grid point {where}")
        lo, hi = eigs[k, 0], eigs[k, -1]
        cut = SPECTRAL_TOL * max(abs(hi), 1.0)
        if lo <= cut or hi <= 0.0:
            raise ValueError(
                f"coefficient matrix is not positive definite at grid point "
                f"{where} (eigenvalue range [{lo:.3e}, {hi:.3e}], cut {cut:.3e})"
            )
    scale = np.maximum(np.abs(mats[0]).max(axis=(1, 2)), 1.0)
    norm = np.abs(mats[1]).max(axis=(1, 2))
    min_eig = np.abs(np.linalg.eigvalsh(mats[1])).min(axis=1)
    worst, low = int(np.argmin(min_eig)), int(np.argmin(norm))
    where = [tuple(map(float, points[k])) for k in (worst, low)]
    return gcs.GenericityReport(
        worst_min_abs_eig=float(min_eig[worst]),
        worst_point=(where[0][:-1], where[0][-1]),
        min_norm=float(norm[low]),
        min_norm_point=(where[1][:-1], where[1][-1]),
        min_eig_ratio=float(np.min(min_eig / scale)),
        min_norm_ratio=float(np.min(norm / scale)),
        grid=per_axis,
    )


def _scan_outcome(scan, *args):
    """The summary of a scan, or the message of its refusal."""
    try:
        return scan(*args)
    except ValueError as exc:
        return str(exc)


def _assert_outcomes_match(got, want):
    """A float scan's outcome against the exact scan's: the same refusal
    (the eigenvalue range and the cut in it to 1e-12), or a summary with the
    same points and its values equal to 1e-12."""
    if isinstance(want, str):
        assert isinstance(got, str), got
        head, _, eigs = want.partition(" (eigenvalue range [")
        got_head, _, got_eigs = got.partition(" (eigenvalue range [")
        assert got_head == head
        numbers = [re.findall(r"-?\d\.\d{3}e[-+]\d+", text) for text in (got_eigs, eigs)]
        assert len(numbers[1]) == (3 if eigs else 0)
        assert [float(v) for v in numbers[0]] == pytest.approx(
            [float(v) for v in numbers[1]], rel=1e-12, abs=1e-12
        )
        return
    assert not isinstance(got, str), got
    assert (got.worst_point, got.min_norm_point) == (want.worst_point, want.min_norm_point)
    for name in ("worst_min_abs_eig", "min_norm", "min_eig_ratio", "min_norm_ratio"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-14)


def _diag_entries(n, diag):
    """Diagonal entries from polynomials given as ``[(coef, exps), ...]``."""
    return {(k, k): RationalField.from_poly(Poly.from_terms(n + 1, terms))
            for k, terms in enumerate(diag)}


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
        "lightcone_quotient": lambda: builtin_chart("lightcone", 4).base,
        "pullback_conformal_flat": lambda: congruent_chart(
            builtin_chart("conformal_flat", 3), shear
        ),
        "pullback_product_nonrigid": lambda: congruent_chart(
            builtin_chart("product_nonrigid", 3), shear
        ),
        "pullback_linear_hyperbolic": lambda: congruent_chart(
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
        exact = _exact_scan(base.domain, base.interval, base.entries, per_axis)
        report = genericity_report(chart)
        assert report.grid == per_axis
        assert report.nowhere_tr == (exact.min_norm_ratio > SPECTRAL_TOL)
        assert report.generic == (exact.min_eig_ratio > SPECTRAL_TOL)
        assert report.worst_point == exact.worst_point
        assert report.min_norm_point == exact.min_norm_point
        assert report.worst_min_abs_eig == pytest.approx(
            exact.worst_min_abs_eig, rel=1e-12, abs=1e-14
        )
        assert report.min_norm == pytest.approx(exact.min_norm, rel=1e-12, abs=1e-14)

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
        expected = _scan_outcome(_exact_scan, domain, interval, entries, 5)
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
        entries = {(0, 0): f, (1, 1): RationalField.const(nv, 1)}
        domain, interval = [(-1.0, 1.0)] * 2, (0.5, 2.0)
        expected = _scan_outcome(_exact_scan, domain, interval, entries, 5)
        assert expected == "denominator vanishes at grid point (0.0, -1.0, 0.5)"
        with pytest.raises(ValueError) as err:
            GcsChart(n=2, domain=domain, interval=interval, entries=entries)
        assert str(err.value) == expected


_PLANE = ([(-1.0, 1.0)] * 2, (0.5, 2.0))


def _plane_entries(a00, a01, a11):
    """The entries of the symmetric [[a00, a01], [a01, a11]] in (x_1, x_2, r),
    each a polynomial given as ``[(coef, (e_x1, e_x2, e_r)), ...]`` or a
    RationalField."""
    return {
        key: f if isinstance(f, RationalField) else RationalField.from_poly(Poly.from_terms(3, f))
        for key, f in zip([(0, 0), (0, 1), (1, 1)], (a00, a01, a11))
    }


def _plane_chart(*entries):
    """The 2 x 2 chart of :func:`_plane_entries` on [-1, 1]^2 x [1/2, 2]."""
    domain, interval = _PLANE
    return GcsChart(n=2, domain=domain, interval=interval, entries=_plane_entries(*entries))


def _read_axes(chart):
    """The axes (0 .. n for x_1 .. x_n, r) that the compiled coefficients read."""
    return {k for k in range(chart.n + 1) if chart._program.exps[:, k].any()}


_X1 = Poly.var(3, 0)

#: 2 x 2 charts that leave axes unread, with the axes that their coefficients
#: read.  The r-derivative of the first two is diag(x_k, 1), least at x_k = 0,
#: a sample that is neither the first nor the last.
_AXIS_CASES = {
    "x1_unread": (([(3, (0, 0, 0)), (1, (0, 1, 1))], [("1/2", (0, 1, 0))],
                   [(2, (0, 0, 0)), (1, (0, 0, 1))]), {1, 2}),
    "x2_unread": (([(3, (0, 0, 0)), (1, (1, 0, 1))], [("1/2", (1, 0, 0))],
                   [(2, (0, 0, 0)), (1, (0, 0, 1))]), {0, 2}),
    "r_unread": (([(3, (0, 0, 0)), (1, (1, 1, 0))], [("1/2", (0, 1, 0))],
                  [(2, (0, 0, 0)), (1, (1, 0, 0))]), {0, 1}),
    "no_axis_read": (([(2, (0, 0, 0))], [(1, (0, 0, 0))], [(2, (0, 0, 0))]), set()),
}

#: 2 x 2 charts in x_1 alone that the scan refuses, with the head of the refusal.
_AXIS_REFUSALS = {
    # (x_1^3 + x_1) / x_1: positive wherever it is defined, undefined at x_1 = 0
    "vanishing_denominator": (
        (RationalField(_X1 * _X1 * _X1 + _X1, _X1), [], [(1, (0, 0, 0))]),
        "denominator vanishes at grid point (0.0, -1.0, 0.5)",
    ),
    # [[1, b], [b, 1]] with b = (x_1 + 1) / 2 is singular at x_1 = 1, the last sample
    "non_positive": (
        ([(1, (0, 0, 0))], [("1/2", (1, 0, 0)), ("1/2", (0, 0, 0))], [(1, (0, 0, 0))]),
        "coefficient matrix is not positive definite at grid point (1.0, -1.0, 0.5)",
    ),
}


class TestGridScanReadAxes:
    """The scan walks only the axes that the compiled coefficients read and
    names each point with every other axis at its first sample; the exact
    scan walks the full grid."""

    @pytest.mark.parametrize("case", sorted(_AXIS_CASES))
    @pytest.mark.parametrize("block", [gcs.GRID_BLOCK, 1])
    def test_matches_exact_scan(self, monkeypatch, case, block):
        entries, read = _AXIS_CASES[case]
        monkeypatch.setattr(gcs, "GRID_BLOCK", block)
        assert _read_axes(_assert_scan_matches_dense(lambda: _plane_chart(*entries))) == read

    @pytest.mark.parametrize("case", sorted(_AXIS_REFUSALS))
    @pytest.mark.parametrize("block", [gcs.GRID_BLOCK, 1])
    def test_first_refusal_matches_exact_scan(self, monkeypatch, case, block):
        entries, head = _AXIS_REFUSALS[case]
        monkeypatch.setattr(gcs, "GRID_BLOCK", block)
        expected = _scan_outcome(_exact_scan, *_PLANE, _plane_entries(*entries), 5)
        assert expected.startswith(head)
        with pytest.raises(ValueError) as err:
            _plane_chart(*entries)
        assert str(err.value) == expected

    def test_chart_in_r_alone_scans_the_r_samples(self, monkeypatch):
        # the shear pullback of conformal_flat, r S^T S, is not diagonal and
        # reads r alone: its metric and derivative stacks hold the 5 r samples
        stacks, rows = _count_spectra(monkeypatch)
        chart = _oracle_cases()["pullback_conformal_flat"]()
        assert _read_axes(chart) == {3}
        assert [shape for shape, _ in stacks] == [(5, 3, 3)] * 2
        # eigvalsh: the unproven points, and at most two probes per block
        assert sum(rows) <= sum(shape[0] - proven for shape, proven in stacks) + 2


class TestGridScanTies:
    """Values within 64 ulps of a minimum tie with it; ties keep the first point."""

    @staticmethod
    def _chart(slope):
        # a = 1 + r (1 - slope x_1): the r-derivative 1 - slope x_1 is least at x_1 = 1
        diag = [[(1, (0, 0)), (1, (0, 1)), (-slope, (1, 1))]]
        return _diag_chart(1, diag, [(-1.0, 1.0)], (0.5, 2.0))

    @pytest.mark.parametrize("block", [gcs.GRID_BLOCK, 1])
    def test_last_bit_differences_keep_the_first_point(self, monkeypatch, block):
        # values 1 + 4, 2, 0, -2 and -4 ulps of 1, exact in floats; one block
        # per point checks the rule across blocks
        monkeypatch.setattr(gcs, "GRID_BLOCK", block)
        summary = self._chart(Fraction(1, 2**50))._grid_summary
        assert summary.worst_point == summary.min_norm_point == ((-1.0,), 0.5)
        assert summary.worst_min_abs_eig == summary.min_norm == 1.0 + 2.0**-50
        # the ratios stay exact minima, at x_1 = 1, r = 2 where a = 3 - 2^-49
        least = (1.0 - 2.0**-50) / (3.0 - 2.0**-49)
        assert summary.min_eig_ratio == summary.min_norm_ratio == least

    @pytest.mark.parametrize("block", [gcs.GRID_BLOCK, 1])
    def test_lower_values_beyond_the_bound_move_the_point(self, monkeypatch, block):
        monkeypatch.setattr(gcs, "GRID_BLOCK", block)
        summary = self._chart(Fraction(1, 2**40))._grid_summary
        assert summary.worst_point == summary.min_norm_point == ((1.0,), 0.5)
        assert summary.worst_min_abs_eig == summary.min_norm == 1.0 - 2.0**-40

    def test_first_least_rule(self):
        one = 1.0 + 2.0**-52 * np.arange(0, 200, 50)  # 0, 50, 100, 150 ulps
        assert gcs._first_least(one[::-1], np.inf) == 2  # 100 ulps is too far
        assert gcs._first_least(one[:2], one[1]) is None  # not lower by the bound
        assert gcs._first_least(one[:1], one[2]) == 0
        assert gcs._first_least(np.array([1.0, 0.0, 0.0]), np.inf) == 1


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

        monkeypatch.setattr(gcs, "_compile_program", no_scan)
        with pytest.raises(ValueError, match=r"20\^7 points"):
            builtin_chart("conformal_flat", 6, grid=20)


def _count_spectra(monkeypatch):
    """Records the (shape, proven count) of every stack the scan eliminates
    and the number of matrices of every ``eigvalsh`` call."""
    stacks, rows = [], []
    pivots, eigvalsh = gcs.positive_pivots, np.linalg.eigvalsh

    def counting_pivots(stack, shift):
        proven = pivots(stack, shift)
        stacks.append((stack.shape, int(proven.sum())))
        return proven

    def counting(mats):
        rows.append(len(mats))
        return eigvalsh(mats)

    monkeypatch.setattr(gcs, "positive_pivots", counting_pivots)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return stacks, rows


# -- grid scan against the exact scan -------------------------------------------


def _assert_scan_matches_dense(factory):
    """Builds the chart with its scan held back, then compares the scan with
    the exact scan on full matrices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gcs, "_scan_grid", lambda chart: None)
        chart = factory()
    base = chart.base if isinstance(chart, LightlikeChart) else chart
    _assert_outcomes_match(
        _scan_outcome(gcs._scan_grid, base),
        _scan_outcome(_exact_scan, base.domain, base.interval, base.entries, base.grid),
    )
    return base


class TestDiagonalScan:
    """The grid scan, which reads a diagonal chart's eigenvalues off its
    diagonal, against the exact scan on full matrices."""

    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name in ("conformal_flat", "product_nonrigid") for n in range(1, 7)]
        + [("lightcone", n) for n in range(2, 7)],  # the lightcone needs n >= 2
    )
    def test_builtins_match_dense(self, name, n):
        assert _assert_scan_matches_dense(lambda: builtin_chart(name, n))._program.diagonal

    @pytest.mark.parametrize("params", [{}, {"f_coeffs": ["1/2", 1, 1], "shift": 2}])
    def test_linear_hyperbolic_matches_dense(self, params):
        _assert_scan_matches_dense(lambda: builtin_chart("linear_hyperbolic", 3, params))

    @pytest.mark.parametrize("name", ["chart_rational.json", "chart_lightlike.json"])
    def test_chart_documents_match_dense(self, name):
        # blocks {0, 1}, {2} and, in the lightlike base, interleaved {0, 2}, {1}
        doc = json.loads((TESTS_DIR / "data" / name).read_text())
        assert not _assert_scan_matches_dense(lambda: chart_from_doc(doc))._program.diagonal

    def test_dense_chart_matches_dense(self):
        assert not _assert_scan_matches_dense(_dense_chart)._program.diagonal

    def test_signed_zero_refusal_matches_dense(self):
        # a_11 = (x_1 + 1) / -1 is -0.0 at x_1 = -1 and a_00, without a field,
        # is 0.0: the message names the zeros in the order eigvalsh puts them
        doc = {
            "kind": "gcs", "n": 2, "domain": [[-1, 1], [-1, 1]], "interval": [0.5, 2],
            "entries": [{"i": 1, "j": 1, "num": [["1", [1, 0, 0]], ["1", [0, 0, 0]]],
                         "den": [["-1", [0, 0, 0]]]}],
        }
        base = _assert_scan_matches_dense(lambda: chart_from_doc(doc, grid=3))
        assert _scan_outcome(gcs._scan_grid, base).endswith(
            "(eigenvalue range [0.000e+00, -0.000e+00], cut 1.000e-10)"
        )

    @pytest.mark.parametrize(
        "name", ["conformal_flat", "product_nonrigid", "linear_hyperbolic", "lightcone"]
    )
    def test_diagonal_builtins_make_no_eigvalsh_call(self, name, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("eigvalsh called on a diagonal chart")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        chart = builtin_chart(name, 5 if name != "linear_hyperbolic" else 3)
        base = chart.base if isinstance(chart, LightlikeChart) else chart
        assert base._program.diagonal

    def test_dense_chart_is_scanned_in_point_blocks(self, monkeypatch):
        # each block of GRID_BLOCK points eliminates its metrics and then its
        # derivatives; eigvalsh sees the points that no elimination proves
        # and at most two probes per block, here under a tenth of them all
        stacks, rows = _count_spectra(monkeypatch)
        chart = _dense_chart(grid=5)
        sizes = [min(gcs.GRID_BLOCK, 5**5 - start) for start in range(0, 5**5, gcs.GRID_BLOCK)]
        assert [shape for shape, _ in stacks] == [(k, 4, 4) for k in sizes for _ in (0, 1)]
        assert sum(rows) <= sum(shape[0] - proven for shape, proven in stacks) + 2 * len(sizes)
        assert sum(rows) <= 2 * 5**5 // 10
        assert genericity_report(chart).generic

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_patterns_match_dense(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        nv, r = n + 1, n
        grid = data.draw(st.sampled_from([2, 3] if n > 4 else [3, 4]), label="grid")

        def var(k):
            return tuple(int(v == k) for v in range(nv))

        # r-independent diagonals, zero diagonals, denominators that vanish on
        # the grid (x_k = 0 is a sample of odd grids) and negative ones (a
        # zero value divided by -1 is -0.0) all occur, rarely enough that
        # most charts are positive
        diag_r = st.sampled_from([0, 0, 1, 2, "1/2"])
        entries = {}
        for i in range(n):
            c0 = data.draw(st.sampled_from([0, 6, 8, 12, 6, 8, 12, 6, 8, 12]), label=f"a{i}{i}")
            if c0 == 0 and data.draw(st.booleans()):
                continue  # a zero diagonal entry, isolated when its row is empty
            num = [(c0, (0,) * nv), (data.draw(diag_r), var(r)),
                   (data.draw(st.sampled_from([0, 1, "-1/2"])), var(i))]
            den = data.draw(st.sampled_from([None, None, "2+x", "x^2", "-1"]), label=f"den{i}")
            entries[i, i] = (num, den)
        for i, j in itertools.combinations(range(n), 2):
            if data.draw(st.integers(0, 2), label=f"p{i}{j}"):
                continue
            num = [(data.draw(st.sampled_from([1, "-1/2", "1/4"])), (0,) * nv),
                   (data.draw(st.sampled_from([0, 0, "1/4", "-1/3"])), var(r)),
                   (data.draw(st.sampled_from([0, "1/4"])), var(j))]
            entries[i, j] = (num, data.draw(st.sampled_from([None, "2+x"]), label=f"den{i}{j}"))

        def den_terms(kind, i):
            if kind is None:
                return None
            x = list(var(i))
            if kind == "-1":
                return [["-1", [0] * nv]]
            return [["1", [2 * e for e in x]]] if kind == "x^2" else [["2", [0] * nv], ["1", x]]

        doc = {
            "kind": "gcs", "n": n, "domain": [[-1, 1]] * n, "interval": [0.5, 2],
            "entries": [
                {"i": i, "j": j, "num": [[str(c), list(e)] for c, e in num],
                 "den": den_terms(den, i)}
                for (i, j), (num, den) in entries.items()
            ],
        }
        _assert_scan_matches_dense(lambda: chart_from_doc(doc, grid=grid))


# -- the elimination against eigvalsh on every matrix ---------------------------


def _eigvalsh_metric_range(mats):
    """``gcs._metric_range`` with ``eigvalsh`` on every metric."""
    eigs = np.linalg.eigvalsh(mats)
    return eigs[:, 0], eigs[:, -1]


def _eigvalsh_least_abs_eigs(d, scale):
    """``gcs._least_abs_eigs`` with ``eigvalsh`` on every derivative."""
    return np.abs(np.linalg.eigvalsh(d)).min(axis=1)


def _chart_outcome(doc, grid, block, eigvalsh_everywhere):
    """The chart's scan record, or the message of its refusal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gcs, "GRID_BLOCK", block)
        if eigvalsh_everywhere:
            mp.setattr(gcs, "_metric_range", _eigvalsh_metric_range)
            mp.setattr(gcs, "_least_abs_eigs", _eigvalsh_least_abs_eigs)
        try:
            return chart_from_doc(doc, grid=grid)._grid_summary
        except ValueError as exc:
            return str(exc)


def _symmetric(rng, eigs):
    q = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))[0]
    m = (q * eigs) @ q.T
    return (m + m.T) / 2.0


def _spectral_doc(n, kind, seed, factor, h, spread):
    """A dense chart a = M + h (x_0 + 1) I + (r - 1/2) d with the
    r-derivative d = D + spread x_v^2 E (v = 1, or 0 when n = 1), exact in
    the binary values of M, D and E:

    * ``planted``: M's least eigenvalue is ``factor`` times the cut, taken
      at x_0 = -1, r = 1/2; D and E are positive and small;
    * ``positive``, ``negative``, ``indefinite``: M's spectrum lies in
      [1, 2] and D (with E of its sign) has that sign pattern;
    * ``vanishing``: entry (0, n-1) is divided by 1 - x_0, which vanishes
      at x_0 = 1;
    * ``nonfinite``: entry (0, 0) gains 1e308 (x_0 + 1), which overflows at
      x_0 = 1.

    ``spread`` 0 makes d constant, 1e-15 puts its values at x_v = +-1
    within 64 ulps of those at x_v = 0, and x_v = -1 and 1 always tie."""
    rng = np.random.default_rng(seed)
    v = min(1, n - 1)
    mu = rng.uniform(1.0, 2.0, n)
    signs = np.ones(n)
    if kind == "planted":
        mu[0] = factor * SPECTRAL_TOL * max(mu[1:].max(initial=0.0), 1.0)
        size = 1e-12
    else:
        size = 0.25
        if kind == "negative":
            signs = -signs
        elif kind == "indefinite":
            signs[: max(1, n // 2)] = -1.0
    m = _symmetric(rng, mu)
    d = size * _symmetric(rng, signs * rng.uniform(0.2, 1.0, n))
    e = size * _symmetric(rng, np.sign(signs.sum() or 1.0) * rng.uniform(0.2, 1.0, n))

    def monomial(**powers):
        return [powers.get(f"x{k}", 0) for k in range(n)] + [powers.get("r", 0)]

    one, x0, r = monomial(), monomial(x0=1), monomial(r=1)
    xv2, rxv2 = monomial(**{f"x{v}": 2}), monomial(r=1, **{f"x{v}": 2})
    entries = []
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        big_d, big_e = Fraction(d[i, j]), Fraction(spread) * Fraction(e[i, j])
        const, linear = Fraction(m[i, j]) - big_d / 2, Fraction(0)
        if i == j:
            const, linear = const + Fraction(h), Fraction(h)
        if kind == "nonfinite" and i == j == 0:
            const, linear = const + Fraction(10) ** 308, linear + Fraction(10) ** 308
        terms = [(const, one), (linear, x0), (big_d, r), (big_e, rxv2), (-big_e / 2, xv2)]
        entry = {"i": i, "j": j, "num": [[str(c), e] for c, e in terms if c]}
        if kind == "vanishing" and (i, j) == (0, n - 1):
            entry["den"] = [["1", one], ["-1", x0]]
        if entry["num"]:
            entries.append(entry)
    return {"kind": "gcs", "n": n, "domain": [[-1, 1]] * n, "interval": [0.5, 2],
            "entries": entries}


class TestEliminationScan:
    """The scan that proves by elimination against the scan that takes
    ``eigvalsh`` of every matrix: the same record or the same refusal."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        kind=st.sampled_from(
            ["planted", "planted", "positive", "negative", "indefinite", "vanishing", "nonfinite"]
        ),
        seed=st.integers(0, 2**32 - 1),
        factor=st.floats(1.0, 3.0),
        h=st.sampled_from([0.0, 0.125, 1.0]),
        spread=st.sampled_from([0.0, 1e-15, 1e-9, 1e-6, 1e-3, 0.1]),
        grid=st.sampled_from([2, 3, 5]),
        block=st.sampled_from([gcs.GRID_BLOCK, 1]),
    )
    def test_matches_eigvalsh_everywhere(self, n, kind, seed, factor, h, spread, grid, block):
        doc = _spectral_doc(n, kind, seed, factor, h, spread)
        got = _chart_outcome(doc, grid, block, eigvalsh_everywhere=False)
        assert got == _chart_outcome(doc, grid, block, eigvalsh_everywhere=True)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_planted_metrics_near_the_cut(self, rng, n):
        # least eigenvalues from the cut to 3 cuts: a proven metric is one
        # that eigvalsh passes, every other reads eigvalsh's own range
        factors = np.linspace(1.0, 3.0, 201)
        mats = np.stack([
            _symmetric(rng, np.r_[f * SPECTRAL_TOL * 2.0, np.linspace(1.0, 2.0, n)[1:]])
            if n > 1 else np.array([[f * SPECTRAL_TOL]])
            for f in factors
        ])
        lo, hi = gcs._metric_range(mats)
        want_lo, want_hi = _eigvalsh_metric_range(mats)
        proven = np.isnan(lo)
        assert proven.any() and not proven.all()
        assert np.array_equal(lo[~proven], want_lo[~proven])
        assert np.array_equal(hi[~proven], want_hi[~proven])
        cut = SPECTRAL_TOL * np.maximum(np.abs(want_hi), 1.0)
        assert (want_lo[proven] > 2.0 * cut[proven] * (1.0 - 1e-9)).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_proven_derivatives_are_never_least(self, rng, sign):
        # spectra spread over a factor 1 + 1e-5 around the probes' values:
        # a point left at +inf is above the least value and the least ratio
        k, n = 400, 4
        base = _symmetric(rng, np.linspace(1.0, 3.0, n))
        d = sign * base * (1.0 + rng.uniform(0.0, 1e-5, k))[:, None, None]
        scale = rng.uniform(1.0, 1.0 + 1e-5, k)
        got = gcs._least_abs_eigs(d, scale)
        want = _eigvalsh_least_abs_eigs(d, scale)
        kept = np.isfinite(got)
        assert kept.any() and not kept.all()
        assert np.array_equal(got[kept], want[kept])
        assert want[~kept].min() > want.min() and (want / scale)[~kept].min() > (want / scale).min()
        assert gcs._first_least(got, np.inf) == gcs._first_least(want, np.inf)
        assert (got / scale).min() == (want / scale).min()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_ties_keep_the_first_point(self, rng, sign):
        # values falling by 1e-15 per point tie within 64 ulps with the
        # last, least one, which the probes find: the first point still wins
        k, n = 8, 3
        base = _symmetric(rng, np.linspace(1.0, 2.0, n))
        d = sign * base * (1.0 + 1e-15 * np.arange(k)[::-1])[:, None, None]
        got = gcs._least_abs_eigs(d, np.ones(k))
        want = _eigvalsh_least_abs_eigs(d, np.ones(k))
        assert gcs._first_least(want, np.inf) == 0
        assert gcs._first_least(got, np.inf) == 0 and got[0] == want[0]
