import math

import numpy as np
import pytest

from rigidity_lab.braid import (
    _braid_rows,
    classical_braid_kernel,
    classical_braid_system,
    generalized_braid_kernel,
    generalized_braid_system,
    solve_kernel,
    trilinear_symskew_kernel,
)
from rigidity_lab.multilinear import BilinForm, SymTensor, enumerate_sym_indices
from conftest import random_nondegenerate_form, random_well_conditioned


def witness_vector(report, assignments):
    """Build an unknown-vector from {(name, idx, out): value} assignments."""
    w = np.zeros(report.unknowns)
    for k, label in enumerate(report.unknown_labels):
        if label in assignments:
            w[k] = assignments[label]
    return w


class TestClassicalBraid:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_euclidean_kernel_zero(self, n):
        report = classical_braid_kernel(np.eye(n))
        assert report.kernel_dim == 0
        assert report.verdict == "rigid"

    def test_pseudo_euclidean_kernel_zero(self):
        report = classical_braid_kernel(np.diag([-1.0, 1.0, 1.0]))
        assert report.kernel_dim == 0

    def test_one_dimensional(self):
        report = classical_braid_kernel(np.eye(1))
        assert report.kernel_dim == 0
        assert report.unknowns == 1

    def test_degenerate_rejected_with_zero_count(self):
        with pytest.raises(ValueError, match="2 zero eigenvalue"):
            classical_braid_kernel(np.diag([1.0, 0.0, 0.0]))


class TestTrilinearSymSkew:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_zero(self, n):
        report = trilinear_symskew_kernel(n)
        assert report.kernel_dim == 0
        assert report.unknowns == n**4


class TestGeneralizedSystem:
    @pytest.mark.parametrize(
        "n,unknowns,equations",
        [(3, 36, 36), (2, 11, 9), (4, 90, 100)],
    )
    def test_counting(self, n, unknowns, equations):
        system = generalized_braid_system(np.eye(n), np.eye(n))
        assert system.unknowns == unknowns
        assert system.equations == equations
        assert len(system.unknown_labels) == unknowns


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestBraidRowsOracle:
    """Each row of the shared assembler, applied to a random unknown, equals
    the braid expression evaluated on the unpacked tensors."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pairing_kind", ["square", "lightlike"])
    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_rows_match_einsum(self, degree, coupled, pairing_kind, n):
        rng = np.random.default_rng((degree, coupled, n))
        if pairing_kind == "square":
            m, nt = n, n
            pairing = _random_symmetric(rng, n)
            coupling = _random_symmetric(rng, n)
        else:
            # a degenerate metric on R^(n+1): values in the n-dimensional
            # base, zero pairing and coupling along the last axis
            m, nt = n, n + 1
            pairing = np.zeros((m, nt))
            pairing[:, :n] = _random_symmetric(rng, n)
            coupling = np.zeros((nt, nt))
            coupling[:n, :n] = _random_symmetric(rng, n)
        system = _braid_rows(pairing, degree, coupling if coupled else None)

        tensor_size = m * math.comb(nt + degree - 1, degree)
        shift_size = math.comb(nt + degree - 2, degree - 1)
        pair_count = math.comb(nt + 1, 2)
        unknowns = tensor_size + (shift_size if coupled else 0)
        assert system.unknowns == len(system.unknown_labels) == unknowns
        assert system.equations == shift_size * pair_count
        assert system.blocks["A"] == slice(0, tensor_size)
        if coupled:
            assert system.blocks["K"] == slice(tensor_size, unknowns)

        t_coeffs = rng.standard_normal((math.comb(nt + degree - 1, degree), m))
        s_coeffs = rng.standard_normal(shift_size)
        x = np.concatenate([t_coeffs.ravel(), s_coeffs if coupled else []])
        # T[..., a, o] with the value axis o last, S[...] of degree - 1
        t_full = np.stack(
            [SymTensor(nt, degree, t_coeffs[:, o]).unpack() for o in range(m)], axis=-1
        )
        s_full = SymTensor(nt, degree - 1, s_coeffs).unpack()
        expr = np.einsum("...ao,ob->...ab", t_full, pairing)
        expr = expr + np.swapaxes(expr, -1, -2)
        if coupled:
            expr = expr + np.multiply.outer(s_full, coupling)
        expected = [
            expr[s + pair]
            for s in enumerate_sym_indices(nt, degree - 1)
            for pair in enumerate_sym_indices(nt, 2)
        ]
        assert np.allclose(system.rows @ x, expected, rtol=1e-12, atol=1e-12)


class TestGeneralizedKernel:
    def test_euclidean_pair_n3(self):
        report = generalized_braid_kernel(np.eye(3), np.eye(3))
        assert report.kernel_dim == 0
        assert report.verdict == "rigid"

    def test_minkowski_with_random_nondegenerate(self, rng):
        jp = random_nondegenerate_form(rng, 4)
        report = generalized_braid_kernel(np.diag([-1.0, 1.0, 1.0, 1.0]), jp)
        assert report.kernel_dim == 0

    def test_degenerate_jp_has_hand_checked_witness(self):
        report = generalized_braid_kernel(
            np.eye(3), np.diag([1.0, 0.0, 0.0]), want_basis=True
        )
        assert report.kernel_dim >= 1
        w = witness_vector(
            report, {("A", (0, 0, 0), 0): 1.0, ("K", (0, 0), None): -2.0}
        )
        system = generalized_braid_system(np.eye(3), np.diag([1.0, 0.0, 0.0]))
        assert system.residual(w) < 1e-8 * system.coefficient_scale()
        basis = report.kernel_basis
        inside = basis.T @ (basis @ w)
        assert np.linalg.norm(w - inside) < 1e-8

    def test_n2_kernel_is_reported_not_asserted(self):
        # below dimension 3 the vanishing theorem does not apply; record what
        # the computation finds and check the basis satisfies the rows
        report = generalized_braid_kernel(np.eye(2), np.eye(2), want_basis=True)
        system = generalized_braid_system(np.eye(2), np.eye(2))
        assert report.kernel_dim == report.unknowns - np.linalg.matrix_rank(system.rows)
        for vec in report.kernel_basis:
            assert system.residual(vec) < 1e-8 * system.coefficient_scale()

    def test_split_reports_block_projections(self):
        report = generalized_braid_kernel(
            np.eye(3), np.diag([1.0, 0.0, 0.0]), want_basis=True
        )
        assert set(report.split) == {"A", "K"}
        assert report.split["A"] >= 1


class TestInvariants:
    @pytest.mark.parametrize("n", [3, 4])
    def test_congruence_invariance(self, rng, n):
        for _ in range(20):
            j = random_nondegenerate_form(rng, n)
            jp = rng.choice(
                [random_nondegenerate_form(rng, n), np.diag([1.0] + [0.0] * (n - 1))]
            )
            m = random_well_conditioned(rng, n)
            base = generalized_braid_kernel(j, jp).kernel_dim
            moved = generalized_braid_kernel(m.T @ j @ m, m.T @ jp @ m).kernel_dim
            assert moved == base

    def test_scale_invariance(self, rng):
        j = np.eye(3)
        jp = np.diag([1.0, 0.0, 0.0])
        base = generalized_braid_kernel(j, jp, want_basis=True)
        for c in (2.0, -3.0, 0.25):
            scaled = generalized_braid_kernel(j, c * jp, want_basis=True)
            assert scaled.kernel_dim == base.kernel_dim
            assert scaled.split["A"] == base.split["A"]
            # each scaled kernel element maps to a base kernel element by
            # multiplying the K-block by c
            na = base.unknowns - 6
            system = generalized_braid_system(j, jp)
            for vec in scaled.kernel_basis:
                mapped = vec.copy()
                mapped[na:] *= c
                assert system.residual(mapped) < 1e-8 * system.coefficient_scale()

    def test_kernel_elements_satisfy_rows(self, rng):
        j = random_nondegenerate_form(rng, 3)
        jp = np.diag([1.0, 1.0, 0.0])
        report = generalized_braid_kernel(j, jp, want_basis=True)
        system = generalized_braid_system(j, jp)
        for vec in report.kernel_basis:
            assert system.residual(vec) < 1e-8 * system.coefficient_scale()

    def test_derived_pairing_identity_on_kernel(self):
        # any solution (A, K) also satisfies the symmetrized exchange identity
        #   K(u,v) Jp(w,w') + K(w,w') Jp(u,v) = K(u,w) Jp(v,w') + K(v,w') Jp(u,w)
        jp_mat = np.diag([1.0, 0.0, 0.0])
        report = generalized_braid_kernel(np.eye(3), jp_mat, want_basis=True)
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        k_of = {}
        for vec in report.kernel_basis:
            k_mat = np.zeros((3, 3))
            for col, (name, idx, _) in enumerate(report.unknown_labels):
                if name == "K":
                    k_mat[idx[0], idx[1]] = k_mat[idx[1], idx[0]] = vec[col]
            for u in range(3):
                for v in range(3):
                    for w in range(3):
                        for wp in range(3):
                            lhs = k_mat[u, v] * jp_mat[w, wp] + k_mat[w, wp] * jp_mat[u, v]
                            rhs = k_mat[u, w] * jp_mat[v, wp] + k_mat[v, wp] * jp_mat[u, w]
                            assert abs(lhs - rhs) < 1e-10


class TestKernelReports:
    def test_gap_ratio_large_for_clean_systems(self):
        report = generalized_braid_kernel(np.eye(3), np.eye(3))
        assert report.gap_ratio >= 1e6

    def test_zero_rows_matrix(self):
        from rigidity_lab.braid import LinearSystem

        system = LinearSystem(unknown_labels=[("x", (0,), None)] * 3, rows=np.zeros((2, 3)))
        report = solve_kernel(system, want_basis=True)
        assert report.kernel_dim == 3
        assert report.verdict == "non_rigid"

    def test_singular_values_descending(self):
        report = generalized_braid_kernel(np.eye(3), np.diag([1.0, 0.0, 0.0]))
        s = report.singular_values
        assert np.all(np.diff(s) <= 1e-12)

    def test_indeterminate_when_spectrum_straddles_the_cut(self):
        from rigidity_lab.braid import LinearSystem

        labels = [("x", (k,), None) for k in range(3)]
        rows = np.diag([1.0, 3e-10, 0.9e-10])
        report = solve_kernel(LinearSystem(unknown_labels=labels, rows=rows))
        assert report.kernel_dim == 1
        assert report.gap_ratio < 1e3
        assert report.verdict == "indeterminate"

    def test_near_degenerate_rank_decision_and_gap(self):
        # a barely nondegenerate second form: the rank decision reports the
        # numerical kernel along with the gap that justifies the cut
        report = generalized_braid_kernel(np.eye(3), np.diag([1.0, 1e-6, 1e-6]))
        assert report.verdict in ("non_rigid", "indeterminate")
        assert report.singular_values[-1] < report.tol * report.singular_values[0]
