import numpy as np
import pytest

from rigidity_lab.braid import _braid_rows, generalized_braid_kernel
from rigidity_lab.certifier import (
    certificate_doc,
    gcs_certificate,
    lightlike_subrigidity_certificate,
)
from rigidity_lab.gcs import (
    GcsChart,
    LightlikeChart,
    builtin_chart,
    lift_to_lightlike,
)
from rigidity_lab.multilinear import BilinForm
from rigidity_lab.prolongation import builtin_algebra, prolongation_space
from rigidity_lab.ratfield import RationalField
from conftest import congruent_chart


ORIGIN3 = [0.0, 0.0, 0.0]


class TestLevel1:
    def test_conformal_flat_n3_freedom(self):
        cert = gcs_certificate(builtin_chart("conformal_flat", 3), ORIGIN3, [1.0])
        assert cert.samples[0].level1.kernel_dim == 3

    def test_conformal_flat_n2_freedom(self):
        cert = gcs_certificate(builtin_chart("conformal_flat", 2), [0.0, 0.0], [1.0])
        assert cert.samples[0].level1.kernel_dim == 2

    def test_product_nonrigid_contains_axis_family(self):
        chart = builtin_chart("product_nonrigid", 3)
        r = 1.25
        report = gcs_certificate(chart, ORIGIN3, [r], want_basis=True).samples[0].level1
        assert report.kernel_dim >= 1
        # the reparameterization family phi2(e1,e1) = c e1 with matching
        # shift gradient dk = -2 c r dx^1 solves every row
        jm = chart.eval_metric(ORIGIN3, r).matrix
        j01 = chart.eval_partials(ORIGIN3, r, 0, 1)
        system = _braid_rows(jm, 2, j01, names=("phi2", "dk"))
        w = np.zeros(system.unknowns)
        for col, (name, idx, out) in enumerate(system.unknown_labels):
            if name == "phi2" and idx == (0, 0) and out == 0:
                w[col] = 1.0
            if name == "dk" and idx == (0,):
                w[col] = -2.0 * r
        assert system.residual(w) < 1e-10 * system.coefficient_scale()
        basis = report.kernel_basis
        assert np.linalg.norm(w - basis.T @ (basis @ w)) < 1e-8 * np.linalg.norm(w)

    def test_vanishing_parameter_derivative_rejected(self):
        nv = 3
        one = RationalField.const(nv, 1)
        chart = GcsChart(
            n=2,
            domain=[(-1.0, 1.0)] * 2,
            interval=(0.5, 2.0),
            entries={(0, 0): one, (1, 1): one},
        )
        with pytest.raises(ValueError, match="derivative vanishes"):
            gcs_certificate(chart, [0.0, 0.0], [1.0])


class TestLevel2:
    def test_conformal_flat_rigid(self):
        cert = gcs_certificate(builtin_chart("conformal_flat", 3), ORIGIN3, [1.0])
        assert cert.samples[0].level2.kernel_dim == 0

    def test_product_nonrigid_escape(self):
        cert = gcs_certificate(builtin_chart("product_nonrigid", 3), ORIGIN3, [1.0])
        assert cert.samples[0].level2.kernel_dim >= 1

    def test_linear_hyperbolic_rigid(self):
        cert = gcs_certificate(builtin_chart("linear_hyperbolic"), ORIGIN3, [0.5])
        assert cert.samples[0].level2.kernel_dim == 0

    def test_delegation_identity(self):
        chart = builtin_chart("linear_hyperbolic")
        r = 0.25
        report = gcs_certificate(chart, ORIGIN3, [r]).samples[0].level2
        jm = chart.eval_metric(ORIGIN3, r).matrix
        j01 = chart.eval_partials(ORIGIN3, r, 0, 1)
        direct = generalized_braid_kernel(BilinForm(jm), BilinForm(-j01))
        assert np.array_equal(report.singular_values, direct.singular_values)
        assert report.kernel_dim == direct.kernel_dim


class TestGcsCertificate:
    def test_conformal_flat_full_profile(self):
        cert = gcs_certificate(
            builtin_chart("conformal_flat", 3), ORIGIN3, [0.5, 1.0, 2.0]
        )
        assert cert.verdict == "2-rigid"
        for s in cert.samples:
            assert s.level1.kernel_dim == 3
            assert s.level2.kernel_dim == 0
            assert s.genericity["nondegenerate"]

    def test_product_nonrigid_witnessed(self):
        cert = gcs_certificate(
            builtin_chart("product_nonrigid", 3), ORIGIN3, [1.0], want_basis=True
        )
        assert cert.verdict == "non-rigid"
        s = cert.samples[0]
        assert s.level2.kernel_dim >= 1
        assert s.level2.kernel_basis is not None

    def test_dimension_two_withheld(self):
        cert = gcs_certificate(builtin_chart("conformal_flat", 2), [0.0, 0.0], [1.0])
        assert cert.verdict == "indeterminate-by-hypothesis"
        assert cert.samples[0].level1.kernel_dim == 2
        assert cert.samples[0].level2.kernel_dim > 0

    def test_epsilon_flip(self):
        for eps in (1e-2, 1e-1):
            chart = builtin_chart("product_nonrigid", 3, {"epsilon": eps})
            cert = gcs_certificate(chart, ORIGIN3, [1.0])
            assert cert.verdict == "2-rigid", f"eps={eps}"

    def test_point_outside_domain(self):
        with pytest.raises(ValueError, match="outside"):
            gcs_certificate(builtin_chart("conformal_flat", 3), [5.0, 0.0, 0.0], [1.0])

    def test_doc_shape(self):
        cert = gcs_certificate(builtin_chart("conformal_flat", 3), ORIGIN3, [1.0])
        doc = certificate_doc(cert)
        assert list(doc)[:5] == ["kind", "structure", "point", "dimension", "samples"]
        assert doc["verdict"] == "2-rigid"
        assert doc["point"]["r"] == 1.0


class TestLightlikeStep1:
    def test_lift_of_conformal_flat(self):
        lc = lift_to_lightlike(builtin_chart("conformal_flat", 3))
        report = lightlike_subrigidity_certificate(lc, ORIGIN3, 1.0).samples[0].level1
        assert report.kernel_dim == 0

    def test_lift_of_product_nonrigid_needs_no_genericity(self):
        lc = lift_to_lightlike(builtin_chart("product_nonrigid", 3))
        report = lightlike_subrigidity_certificate(lc, ORIGIN3, 1.0).samples[0].level1
        assert report.kernel_dim == 0

    def test_total_dimension_two(self):
        lc = lift_to_lightlike(builtin_chart("conformal_flat", 1))
        report = lightlike_subrigidity_certificate(lc, [0.0], 1.0).samples[0].level1
        assert report.kernel_dim == 0


class TestLightlikeCertificate:
    def test_lifted_conformal_flat_subrigid(self):
        lc = lift_to_lightlike(builtin_chart("conformal_flat", 3))
        cert = lightlike_subrigidity_certificate(lc, ORIGIN3, 1.0)
        assert cert.verdict == "(3,1) sub-rigid"
        assert cert.samples[0].level1.kernel_dim == 0
        assert cert.samples[0].level2.kernel_dim == 0
        assert cert.unconstrained  # sub-rigidity: some jet data is never pinned

    def test_lifted_product_nonrigid(self):
        lc = lift_to_lightlike(builtin_chart("product_nonrigid", 3))
        cert = lightlike_subrigidity_certificate(lc, ORIGIN3, 1.0, want_basis=True)
        assert cert.verdict == "non-sub-rigid"
        assert cert.samples[0].level1.kernel_dim == 0
        assert cert.samples[0].level2.kernel_dim >= 1

    def test_total_dimension_three_withheld(self):
        lc = lift_to_lightlike(builtin_chart("conformal_flat", 2))
        cert = lightlike_subrigidity_certificate(lc, [0.0, 0.0], 1.0)
        assert cert.verdict == "indeterminate-by-hypothesis"
        assert cert.samples[0].level1.kernel_dim == 0

    def test_lightcone_subrigid(self):
        cert = lightlike_subrigidity_certificate(
            builtin_chart("lightcone", 4), [0.1, 0.0, -0.2], 1.0
        )
        assert cert.verdict == "(3,1) sub-rigid"

    def test_step2_witness_family(self):
        # phi3(e1,e1,e1) = c e1 with delta2 = -2 c r dx^1 dx^1 solves the
        # degenerate system of the lifted axis-scaling chart
        lc = lift_to_lightlike(builtin_chart("product_nonrigid", 3))
        r = 1.0
        cert = lightlike_subrigidity_certificate(lc, ORIGIN3, r, want_basis=True)
        report = cert.samples[0].level2
        w = np.zeros(report.unknowns)
        for col, (name, idx, out) in enumerate(report.unknown_labels):
            if name == "phi3" and idx == (0, 0, 0) and out == 0:
                w[col] = 1.0
            if name == "delta2" and idx == (0, 0):
                w[col] = -2.0 * r
        basis = report.kernel_basis
        assert np.linalg.norm(w - basis.T @ (basis @ w)) < 1e-8 * np.linalg.norm(w)


class TestCrossModule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_level1_freedom_equals_conformal_prolongation(self, n):
        chart = builtin_chart("conformal_flat", n)
        report = gcs_certificate(chart, [0.0] * n, [1.0]).samples[0].level1
        assert report.kernel_dim == prolongation_space(builtin_algebra("co", n), 1).dim

    def test_linear_chart_invariance(self, rng):
        maps = [
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
            [[2, 0, 1], [0, 1, 0], [0, 0, 1]],
        ]
        for name in ("conformal_flat", "product_nonrigid", "linear_hyperbolic"):
            chart = builtin_chart(name, 3 if name != "linear_hyperbolic" else None)
            r = 1.0 if name != "linear_hyperbolic" else 0.5
            base = gcs_certificate(chart, ORIGIN3, [r]).samples[0]
            for m in maps:
                moved = gcs_certificate(congruent_chart(chart, m), ORIGIN3, [r]).samples[0]
                assert moved.level1.kernel_dim == base.level1.kernel_dim
                assert moved.level2.kernel_dim == base.level2.kernel_dim

    def test_kernel_witnesses_satisfy_rows(self):
        chart = builtin_chart("product_nonrigid", 3)
        jm = chart.eval_metric(ORIGIN3, 1.0).matrix
        j01 = chart.eval_partials(ORIGIN3, 1.0, 0, 1)
        system = _braid_rows(jm, 2, j01, names=("phi2", "dk"))
        report = gcs_certificate(chart, ORIGIN3, [1.0], want_basis=True).samples[0].level1
        for vec in report.kernel_basis:
            assert system.residual(vec) < 1e-8 * system.coefficient_scale()


class TestEvaluatesEachSampleOnce:
    """A certificate evaluates the metric and its parameter derivative once
    per sample and hands the matrices to both kernel levels."""

    @staticmethod
    def count_calls(monkeypatch, cls, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(cls, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_gcs_certificate(self, monkeypatch):
        chart = builtin_chart("linear_hyperbolic")
        calls = self.count_calls(monkeypatch, GcsChart, ["eval_metric", "eval_partials"])
        gcs_certificate(chart, ORIGIN3, [0.25, 0.5, 0.75])
        assert calls == {"eval_metric": 3, "eval_partials": 3}

    def test_lightlike_certificate(self, monkeypatch):
        lc = builtin_chart("lightcone", 5)
        calls = self.count_calls(
            monkeypatch, LightlikeChart, ["eval_base_metric", "eval_base_partials"]
        )
        lightlike_subrigidity_certificate(lc, [0.1, 0.0, -0.2, 0.3], 1.0)
        assert calls == {"eval_base_metric": 1, "eval_base_partials": 1}
