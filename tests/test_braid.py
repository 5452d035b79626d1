import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, subspace_angles

from rigidity_lab import braid, certifier, prolongation
from rigidity_lab.braid import (
    GAP_VERDICT_THRESHOLD,
    PENCIL_CONDITION_CAP,
    LinearSystem,
    _as_form,
    _braid_rows,
    _gap_ratio,
    _pencil_normal_form,
    classical_braid_kernel,
    classical_braid_system,
    generalized_braid_kernel,
    generalized_braid_system,
    solve_kernel,
    trilinear_symskew_kernel,
    trilinear_symskew_system,
)
from rigidity_lab.certifier import gcs_certificate, lightlike_subrigidity_certificate
from rigidity_lab.gcs import builtin_chart, lift_to_lightlike
from rigidity_lab.multilinear import (
    SPECTRAL_TOL,
    BilinForm,
    SymTensor,
    sym_index_count,
    _sym_index_array,
)
from rigidity_lab.prolongation import builtin_algebra, prolongation_space
from conftest import random_nondegenerate_form, random_orthogonal, random_well_conditioned


def dense_system(labels, rows, blocks=None):
    """The system of a dense row matrix, from its nonzero entries."""
    rows = np.asarray(rows)
    row_ids, col_ids = np.nonzero(rows)
    return LinearSystem(labels, rows.shape[0], row_ids, col_ids, rows[row_ids, col_ids], blocks or {})


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


@pytest.mark.parametrize(
    "kernel",
    [classical_braid_kernel, lambda j: generalized_braid_kernel(j, j)],
    ids=["classical", "generalized"],
)
@pytest.mark.parametrize(
    "j, message",
    [
        (np.zeros((0, 0)), "form has dimension 0, need at least 1"),
        ([[1.0, 0.0], [0.0, np.nan]], "form has a non-finite entry"),
    ],
)
def test_empty_or_non_finite_form_refused(kernel, j, message):
    with pytest.raises(ValueError, match=message):
        kernel(j)


class TestTrilinearSymSkew:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_zero(self, n):
        report = trilinear_symskew_kernel(n)
        assert report.kernel_dim == 0
        assert report.unknowns == n**4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_match_loops(self, n):
        # the constraint loops the index arrays replace, in their row order
        def col(i, j, k, out):
            return ((i * n + j) * n + k) * n + out

        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    for out in range(n):
                        row = np.zeros(n**4)
                        row[col(i, j, k, out)] += 1.0
                        row[col(j, i, k, out)] -= 1.0
                        rows.append(row)
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    for out in range(n):
                        row = np.zeros(n**4)
                        row[col(i, j, k, out)] += 1.0
                        row[col(i, k, j, out)] += 1.0
                        rows.append(row)
        assert trilinear_symskew_system(n).rows.tobytes() == np.array(rows).tobytes()


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
    @pytest.mark.parametrize("pairing_kind", ["square", "lightlike", "complex"])
    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_rows_match_einsum(self, degree, coupled, pairing_kind, n):
        rng = np.random.default_rng((degree, coupled, n))
        if pairing_kind == "square":
            m, nt = n, n
            pairing = _random_symmetric(rng, n)
            coupling = _random_symmetric(rng, n)
        elif pairing_kind == "complex":
            # a complex normal form: rows take the complex dtype
            m, nt = n, n
            pairing = _random_symmetric(rng, n) + 1j * _random_symmetric(rng, n)
            coupling = _random_symmetric(rng, n) - 1j * _random_symmetric(rng, n)
        else:
            # a degenerate metric on R^(n+1): values in the n-dimensional
            # base, zero pairing and coupling along the last axis
            m, nt = n, n + 1
            pairing = np.zeros((m, nt))
            pairing[:, :n] = _random_symmetric(rng, n)
            coupling = np.zeros((nt, nt))
            coupling[:n, :n] = _random_symmetric(rng, n)
        system = _braid_rows(pairing, degree, coupling if coupled else None)
        assert system.rows.dtype == (complex if pairing_kind == "complex" else float)

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
        sym = itertools.combinations_with_replacement
        expected = [
            expr[s + pair] for s in sym(range(nt), degree - 1) for pair in sym(range(nt), 2)
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
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
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

        system = dense_system([("x", (0,), None)] * 3, np.zeros((2, 3)))
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
        report = solve_kernel(dense_system(labels, rows))
        assert report.kernel_dim == 1
        assert report.gap_ratio < 1e3
        assert report.verdict == "indeterminate"

    def test_near_degenerate_rank_decision_and_gap(self):
        # a barely nondegenerate second form: the rank decision reports the
        # numerical kernel along with the gap that justifies the cut
        report = generalized_braid_kernel(np.eye(3), np.diag([1.0, 1e-6, 1e-6]))
        assert report.verdict in ("non_rigid", "indeterminate")
        assert report.singular_values[-1] < report.tol * report.singular_values[0]


def _dense_oracle(system, tol=SPECTRAL_TOL, split_blocks=None):
    """The kernel by one dense SVD of the whole system: spectrum, kernel
    dimension, verdict, orthonormal kernel basis and projection dims."""
    rows = system.rows
    if rows.shape[0] == 0:
        svals, rank, vt = np.zeros(0), 0, np.eye(system.unknowns)
    else:
        _, svals, vt = np.linalg.svd(rows, full_matrices=True)
        smax = svals[0] if svals.size else 0.0
        rank = int(np.sum(svals >= tol * smax)) if smax > 0.0 else 0
    gap = _gap_ratio(svals, rank, tol)
    kernel_dim = system.unknowns - rank
    if gap < GAP_VERDICT_THRESHOLD:
        verdict = "indeterminate"
    else:
        verdict = "rigid" if kernel_dim == 0 else "non_rigid"
    basis = vt[rank:]
    split = None
    if split_blocks is not None:
        split = {}
        for name, block in split_blocks.items():
            sub = np.linalg.svd(basis[:, block], compute_uv=False) if basis.size else np.zeros(0)
            split[name] = int(np.sum(sub >= tol * sub[0])) if sub.size and sub[0] > 0 else 0
    return svals, kernel_dim, verdict, basis, split


def _capture_systems(monkeypatch, call):
    """The systems that ``call()`` hands to solve_kernel, each with the block
    map it splits by (its own, when that names two or more blocks)."""
    seen = []

    def capture(system, tol=SPECTRAL_TOL, want_basis=False):
        seen.append((system, system.blocks if len(system.blocks) > 1 else None))
        return solve_kernel(system, tol=tol, want_basis=want_basis)

    for module in (braid, certifier, prolongation):
        monkeypatch.setattr(module, "solve_kernel", capture)
    call()
    monkeypatch.undo()
    assert seen
    return seen


def _forms(kind, n):
    rng = np.random.default_rng((n, len(kind)))
    if kind == "diagonal":
        signs = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
        return np.diag(signs * rng.uniform(0.5, 2.0, n)), np.diag(rng.uniform(0.5, 2.0, n))
    return random_nondegenerate_form(rng, n), random_nondegenerate_form(rng, n)


def _edge_system(rows, blocks=None):
    rows = np.asarray(rows, dtype=float).reshape(-1, 3) if np.size(rows) else np.zeros((0, 3))
    return dense_system([("x", (k,), None) for k in range(rows.shape[1])], rows, blocks)


BRAID_CASES = {
    **{
        f"classical-{kind}-n{n}": (lambda kind=kind, n=n: [
            (classical_braid_system(BilinForm(_forms(kind, n)[0])), None)
        ])
        for kind in ("diagonal", "dense")
        for n in range(1, 7)
    },
    **{
        f"generalized-{kind}-n{n}": (lambda kind=kind, n=n: [
            (system, system.blocks)
            for system in [generalized_braid_system(*_forms(kind, n))]
        ])
        for kind in ("diagonal", "dense")
        for n in range(1, 7)
    },
    **{
        f"degenerate-n{n}": (lambda n=n: [
            (system, system.blocks)
            for system in [generalized_braid_system(np.eye(n), np.diag([1.0] + [0.0] * (n - 1)))]
        ])
        for n in (3, 5)
    },
    "no-rows": lambda: [(_edge_system([]), None)],
    "untouched-column": lambda: [(_edge_system([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]]), None)],
    "zero-row": lambda: [(_edge_system([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 5.0]]), None)],
    "all-zero": lambda: [
        (system, system.blocks)
        for system in [_edge_system(np.zeros((2, 3)), {"x": slice(0, 2), "y": slice(2, 3)})]
    ],
    # the small block falls below the cut of the whole system, not of its own
    "two-scales": lambda: [
        (system, system.blocks)
        for system in [
            _edge_system(np.diag([1e12, 1.0, 3e12]), {"x": slice(1, 2), "y": slice(2, 3)})
        ]
    ],
}

CALLER_CASES = {
    "level1-conformal_flat-n3": lambda: gcs_certificate(
        builtin_chart("conformal_flat", 3), [0.0] * 3, [0.5, 2.0]
    ),
    "level1-product_nonrigid-n4": lambda: gcs_certificate(
        builtin_chart("product_nonrigid", 4), [0.0] * 4, [0.5, 1.0]
    ),
    "level1-linear_hyperbolic": lambda: gcs_certificate(
        builtin_chart("linear_hyperbolic"), [0.1, -0.2, 0.3], [0.25, 0.75]
    ),
    "lightlike-lightcone-n4": lambda: lightlike_subrigidity_certificate(
        builtin_chart("lightcone", 4), [0.1, 0.0, -0.2], 1.0
    ),
    "lightlike-product_nonrigid-n3": lambda: lightlike_subrigidity_certificate(
        lift_to_lightlike(builtin_chart("product_nonrigid", 3)), [0.0] * 3, 1.0
    ),
    **{
        f"prolongation-{name}-n{n}-d{d}": (lambda name=name, n=n, d=d: prolongation_space(
            builtin_algebra(name, n), d
        ))
        for name in ("so", "co", "lightlike_orth")
        for n in (3, 4)
        for d in (1, 2)
    },
}


class TestBlockSolveOracle:
    """The block-structured solve agrees with one dense SVD of the whole
    system: kernel dimension, verdict, spectrum, kernel subspace and
    projection dims."""

    @staticmethod
    def check(system, split_blocks):
        svals, kernel_dim, verdict, basis, split = _dense_oracle(system, split_blocks=split_blocks)
        smax = svals[0] if svals.size else 0.0
        with_basis, without = reports = [solve_kernel(system, want_basis=w) for w in (True, False)]
        for report in reports:
            assert report.kernel_dim == kernel_dim
            assert report.verdict == verdict
            assert report.split == split
            assert report.singular_values.shape == svals.shape
            assert np.all(np.diff(report.singular_values) <= 0.0)
            assert np.max(np.abs(report.singular_values - svals), initial=0.0) <= 1e-12 * smax
        # asking for the basis changes no other field, not even a last bit
        assert np.array_equal(with_basis.singular_values, without.singular_values)
        assert with_basis.gap_ratio == without.gap_ratio
        found = with_basis.kernel_basis
        assert found.shape == basis.shape
        if kernel_dim:
            assert np.max(subspace_angles(found.T, basis.T)) <= 1e-10
            assert np.max(np.abs(found @ found.T - np.eye(kernel_dim))) <= 1e-12
        # relative to sigma_max: a dropped direction leaves at most its own
        # singular value in the rows
        assert np.max(np.abs(system.rows @ found.T), initial=0.0) <= 1e-12 * max(smax, 1.0)

    @pytest.mark.parametrize("case", sorted(BRAID_CASES))
    def test_systems(self, case):
        for system, split_blocks in BRAID_CASES[case]():
            self.check(system, split_blocks)

    @pytest.mark.parametrize("case", sorted(CALLER_CASES))
    def test_caller_systems(self, monkeypatch, case):
        for system, split_blocks in _capture_systems(monkeypatch, CALLER_CASES[case]):
            self.check(system, split_blocks)

    def test_edge_cases_are_exact(self):
        report = solve_kernel(_edge_system([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]]), want_basis=True)
        assert report.kernel_dim == 1
        assert np.array_equal(report.kernel_basis, [[0.0, 0.0, 1.0]])
        report = solve_kernel(_edge_system(np.zeros((2, 3))), want_basis=True)
        assert np.array_equal(report.singular_values, np.zeros(2))
        assert np.array_equal(report.kernel_basis, np.eye(3))
        assert report.gap_ratio == float("inf")

    def test_structural_zeros_are_exact(self):
        report = generalized_braid_kernel(np.eye(4), np.diag([1.0, 0.0, 0.0, 0.0]))
        dropped = report.singular_values[report.unknowns - report.kernel_dim :]
        assert dropped.size and not np.any(dropped)
        assert report.gap_ratio == float("inf")

    def test_no_solve_reads_the_dense_rows(self, monkeypatch):
        def refuse(system):
            raise AssertionError("a solve densified the row matrix")

        chart = builtin_chart("conformal_flat", 3)
        lightcone = builtin_chart("lightcone", 4)
        definite = _pencil_pairs(4)[0]
        co4 = builtin_algebra("co", 4)
        monkeypatch.setattr(LinearSystem, "rows", property(refuse))
        for want_basis in (False, True):
            # the projection split runs for every system with blocks A and K;
            # the degenerate pair has a kernel, so the split solves V^T
            for forms in (
                _forms("diagonal", 4),
                _forms("dense", 4),
                (np.eye(3), np.diag([1.0, 0.0, 0.0])),
            ):
                report = solve_kernel(generalized_braid_system(*forms), want_basis=want_basis)
                assert set(report.split) == {"A", "K"}
            report = generalized_braid_kernel(*definite, want_basis=want_basis)
            assert report.pencil is not None and report.verdict == "rigid"
            point = [0.1, 0.0, -0.2]
            cert = certifier.gcs_certificate(chart, point, [1.0], want_basis=want_basis)
            sample = cert.samples[0]
            assert sample.level1.kernel_dim == 3 and set(sample.level1.split) == {"phi2", "dk"}
            assert sample.level2.verdict == "rigid"
            cert = certifier.lightlike_subrigidity_certificate(
                lightcone, point, 1.0, want_basis=want_basis
            )
            assert set(cert.samples[0].level2.split) == {"phi3", "delta2"}
        space = prolongation_space(co4, 3)
        assert space.dim == 0 and space.basis == []
        assert prolongation_space(co4, 1).basis


@st.composite
def _block_diagonal_systems(draw):
    """A block-diagonal system of random low-rank blocks (a rank-0 block
    gives zero rows and untouched columns) with a random row and column
    permutation."""
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4)),
            min_size=1,
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [
        rng.standard_normal((r, min(k, r, c))) @ rng.standard_normal((min(k, r, c), c))
        for r, c, k in shapes
    ]
    rows = block_diag(*blocks)
    row_perm = draw(st.permutations(range(rows.shape[0])))
    col_perm = draw(st.permutations(range(rows.shape[1])))
    return rows, np.array(row_perm, dtype=int), np.array(col_perm, dtype=int)


class TestBlockSolveProperties:
    @staticmethod
    def assert_same(a, b):
        assert a.kernel_dim == b.kernel_dim
        assert a.verdict == b.verdict
        smax = a.singular_values[0] if a.singular_values.size else 0.0
        assert np.max(np.abs(a.singular_values - b.singular_values), initial=0.0) <= 1e-12 * smax

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_block_diagonal_systems())
    def test_permutations_leave_the_kernel_unchanged(self, drawn):
        rows, row_perm, col_perm = drawn
        labels = [("x", (k,), None) for k in range(rows.shape[1])]
        base = solve_kernel(dense_system(labels, rows))
        moved = solve_kernel(dense_system(labels, rows[row_perm][:, col_perm]))
        self.assert_same(base, moved)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_permuted_braid_system(self, random):
        system = generalized_braid_system(*_forms("diagonal", 4))
        row_perm = random.sample(range(system.equations), system.equations)
        col_perm = random.sample(range(system.unknowns), system.unknowns)
        # entry (x, y) moves to the row and column that list x and y
        row_at, col_at = np.argsort(row_perm), np.argsort(col_perm)
        moved = LinearSystem(
            [system.unknown_labels[k] for k in col_perm],
            system.equations,
            row_at[system.row_ids],
            col_at[system.col_ids],
            system.values,
        )
        self.assert_same(solve_kernel(system), solve_kernel(moved))


# -- the dense scatters the entry assemblers replaced, kept as oracles --------


def _dense_packed_rows(tests, degree, coupling=None):
    nq, m, n = tests.shape
    sym = itertools.combinations_with_replacement
    shifts = list(sym(range(n), degree - 1))
    pos = {idx: k for k, idx in enumerate(sym(range(n), degree))}
    insert = np.array([[pos[tuple(sorted(s + (a,)))] for a in range(n)] for s in shifts])
    tensor_cols = sym_index_count(n, degree) * m
    shift_cols = len(shifts) if coupling is not None else 0
    dtype = np.result_type(tests, float if coupling is None else coupling)
    rows = np.zeros((len(shifts) * nq, tensor_cols + shift_cols), dtype=dtype)
    r = np.arange(len(rows)).reshape(len(shifts), nq, 1, 1)
    rows[r, insert[:, None, :, None] * m + np.arange(m)] = tests.transpose(0, 2, 1)
    if coupling is not None:
        rows[r[:, :, 0, 0], tensor_cols + np.arange(len(shifts))[:, None]] += coupling
    return rows


def _dense_symskew_rows(n):
    axis = np.arange(n)

    def cols(i, j, k):
        return (((i[:, None] * n + j[:, None]) * n + k[:, None]) * n + axis).ravel()

    i, j = np.triu_indices(n, 1)
    i, j, k = np.repeat(i, n), np.repeat(j, n), np.tile(axis, i.size)
    sym_plus, sym_minus = cols(i, j, k), cols(j, i, k)
    j, k = np.triu_indices(n)
    i, j, k = np.repeat(axis, j.size), np.tile(j, n), np.tile(k, n)
    skew_a, skew_b = cols(i, j, k), cols(i, k, j)
    nsym = sym_plus.size
    rows = np.zeros((nsym + skew_a.size, n**4))
    r = np.arange(len(rows))
    rows[r[:nsym], sym_plus] += 1.0
    rows[r[:nsym], sym_minus] -= 1.0
    rows[r[nsym:], skew_a] += 1.0
    rows[r[nsym:], skew_b] += 1.0
    return rows


def _dense_congruence_rows(b):
    n = b.shape[0]
    i, j = _sym_index_array(n, 2).T
    m = np.arange(n)
    r = np.arange(len(i))[:, None]
    rows = np.zeros((len(i), n * n))
    rows[r, m * n + i[:, None]] += b[m, j[:, None]]
    rows[r, m * n + j[:, None]] += b[i[:, None], m]
    return rows


def _transposed_x(rows, n):
    """The dense scatter's rows with column o n + u, which holds X[o, u],
    moved to u n + o, where the degree-1 braid system holds it; the columns
    past n^2 stay."""
    perm = np.arange(n * n).reshape(n, n).T.ravel()
    return np.concatenate([rows[:, perm], rows[:, n * n :]], axis=1)


def _dense_stabilizer_rows(samples):
    n, k = samples[0][0].shape[0], len(samples)
    npairs = sym_index_count(n, 2)
    rows = np.zeros((k * npairs, n * n + k))
    i, j = _sym_index_array(n, 2).T
    for s, (b, t) in enumerate(samples):
        block = slice(s * npairs, (s + 1) * npairs)
        rows[block, : n * n] = _dense_congruence_rows(b)
        rows[block, n * n + s] -= t[i, j]
    return rows


def _assembled(monkeypatch, call):
    """Each system ``call()`` assembles through ``_packed_rows``, with its
    dense oracle (the lightlike step 2 takes the dense row reordering), and
    each system it solves."""
    packed, solved = [], []

    def record(tests, degree, coupling=None, names=("A", "K")):
        system = packed_rows(tests, degree, coupling, names)
        packed.append((system, tests, degree, coupling))
        return system

    def capture(system, tol=SPECTRAL_TOL, want_basis=False):
        solved.append(system)
        return solve_kernel(system, tol=tol, want_basis=want_basis)

    packed_rows = braid._packed_rows
    for module in (braid, prolongation):
        monkeypatch.setattr(module, "_packed_rows", record)
    for module in (braid, certifier, prolongation):
        monkeypatch.setattr(module, "solve_kernel", capture)
    call()
    monkeypatch.undo()
    pairs = []
    for system, tests, degree, coupling in packed:
        rows = _dense_packed_rows(tests, degree, coupling)
        if "delta2" in system.blocks:
            npairs = math.isqrt(len(rows))
            rows = rows.reshape(npairs, npairs, -1).swapaxes(0, 1).reshape(npairs**2, -1)
        pairs.append((system, rows))
    return pairs, solved


def _assert_entries(system):
    """No exact zero, and no (row, column) pair twice."""
    assert system.values.ndim == system.row_ids.ndim == system.col_ids.ndim == 1
    assert not np.any(system.values == 0)
    at = system.row_ids * system.unknowns + system.col_ids
    assert np.unique(at).size == at.size


def _symmetrized(b):
    """b + b^T halved: exactly symmetric, and b itself when b is."""
    return (b + b.T) / 2.0


# the points are exactly symmetric forms: the stabilizer reads only b's
# columns, as the braid systems read their pairing
STABILIZER_SAMPLES = {
    "conformal-ray": [(s * np.eye(3), np.eye(3)) for s in (0.5, 1.0, 2.0)],
    "axis-scaling": [(np.diag([s, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])) for s in (0.5, 2.0)],
    "dense": [
        (_symmetrized(random_nondegenerate_form(np.random.default_rng(20), 4, False))
         + 3.0 * np.eye(4),
         random_nondegenerate_form(np.random.default_rng(21), 4))
    ],
}


class TestEntries:
    """Every assembler emits its nonzero entries once each, and its rows,
    densified, are bit for bit those of the dense scatter it replaced."""

    @pytest.mark.parametrize(
        "case",
        sorted(BRAID_CASES) + sorted(CALLER_CASES) + ["pencil-n4", "pencil-n8", "classical-pencil-n5"],
    )
    def test_packed_entries_match_dense_scatter(self, monkeypatch, case):
        pencils = {
            "pencil-n4": lambda: [generalized_braid_kernel(*pair) for pair in _pencil_pairs(4)],
            "pencil-n8": lambda: [generalized_braid_kernel(*pair) for pair in _pencil_pairs(8)],
            "classical-pencil-n5": lambda: classical_braid_kernel(
                random_nondegenerate_form(np.random.default_rng(5), 5, True)
            ),
        }
        call = pencils.get(case) or BRAID_CASES.get(case) or CALLER_CASES[case]
        pairs, solved = _assembled(monkeypatch, call)
        edge = {"no-rows", "untouched-column", "zero-row", "all-zero", "two-scales"}
        assert bool(pairs) == (case not in edge)
        for system, rows in pairs:
            _assert_entries(system)
            assert system.rows.dtype == rows.dtype
            assert system.rows.tobytes() == rows.tobytes()
        for system in solved:
            _assert_entries(system)

    def test_column_table_allocates_no_full_index_table(self):
        # (n, degree) = (8, 6) is prolongation's largest allowed shape; a
        # full (n,)*degree table of index tuples would need about 25 MB
        tracemalloc.start()
        try:
            braid._entry_columns.__wrapped__(8, 6, 8, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symskew_entries_match_dense_scatter(self, n):
        system = trilinear_symskew_system(n)
        _assert_entries(system)
        assert system.rows.tobytes() == _dense_symskew_rows(n).tobytes()

    @pytest.mark.parametrize("case", sorted(STABILIZER_SAMPLES))
    def test_stabilizer_entries_match_dense_scatter(self, monkeypatch, case):
        samples = STABILIZER_SAMPLES[case]
        pairs, solved = _assembled(
            monkeypatch, lambda: prolongation.curve_stabilizer_algebra(samples)
        )
        # one braid system per sample, stacked
        assert len(pairs) == len(samples)
        for system, rows in pairs:
            assert system.rows.tobytes() == rows.tobytes()
        (system,) = solved
        _assert_entries(system)
        n = samples[0][0].shape[0]
        assert system.rows.tobytes() == _transposed_x(_dense_stabilizer_rows(samples), n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lightlike_orth_basis_spans_dense_kernel(self, n):
        g = np.eye(n)
        g[-1, -1] = 0.0
        rows = _dense_congruence_rows(g)
        h = builtin_algebra("lightlike_orth", n)
        gens = np.stack([x.ravel() for x in h.generators])
        # every generator solves X^T G + G X = 0 exactly, and they span the
        # whole kernel of the dense rows
        assert not np.any(rows @ gens.T)
        svals = np.linalg.svd(rows, compute_uv=False)
        rank = int(np.sum(svals >= SPECTRAL_TOL * svals[0]))
        assert h.dim == len(gens) == n * n - rank

    @pytest.mark.parametrize("seed", range(4))
    def test_congruence_entries_of_symmetric_forms(self, seed):
        # the degree-1 braid system of a symmetric b has the rows of
        # X^T b + b X, and no (row, column) pair twice on the diagonal rows
        b = np.random.default_rng(seed).standard_normal((4, 4))
        for form in (b + b.T, np.round(b + b.T)):
            system = _braid_rows(form, 1)
            _assert_entries(system)
            assert system.rows.tobytes() == _transposed_x(_dense_congruence_rows(form), 4).tobytes()

    def test_residual_and_scale_from_entries(self):
        rng = np.random.default_rng(19)
        for system in (
            generalized_braid_system(*_forms("dense", 3)),
            braid._braid_rows(_pencil_pairs(3)[1][0] + 1j * np.eye(3), 3, np.eye(3)),
        ):
            vector = rng.standard_normal(system.unknowns)
            dense = system.rows
            assert np.isclose(system.residual(vector), np.max(np.abs(dense @ vector)), rtol=1e-14)
            assert system.coefficient_scale() == np.max(np.abs(dense))

    def test_exact_zeros_are_dropped_and_bounds_checked(self):
        labels = [("x", (k,), None) for k in range(3)]
        system = LinearSystem(labels, 2, [0, 1, 1], [0, 2, 1], [1.0, 0.0, -0.0 + 2.0])
        assert system.row_ids.tolist() == [0, 1] and system.col_ids.tolist() == [0, 1]
        with pytest.raises(ValueError, match="outside"):
            LinearSystem(labels, 2, [2], [0], [1.0])
        with pytest.raises(ValueError, match="outside"):
            LinearSystem(labels, 2, [0], [-1], [1.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_block_diagonal_systems(), st.randoms(use_true_random=False))
    def test_components_ignore_entry_order(self, drawn, random):
        rows, row_perm, col_perm = drawn
        labels = [("x", (k,), None) for k in range(rows.shape[1])]
        system = dense_system(labels, rows[row_perm][:, col_perm])
        order = random.sample(range(system.values.size), system.values.size)
        shuffled = LinearSystem(
            labels, system.equations, system.row_ids[order], system.col_ids[order], system.values[order]
        )
        a, b = braid._components(system), braid._components(shuffled)
        for name in ("row_count", "col_order", "col_start", "col_count"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert [g.tolist() for g in a.groups] == [g.tolist() for g in b.groups]
        for g, ids in enumerate(a.groups):
            if a.row_count[ids[0]]:
                assert a.stack(g).tobytes() == b.stack(g).tobytes()
        # the blocks hold every entry: their Frobenius norms add up
        total = sum(
            float(np.sum(a.stack(g) ** 2)) for g, ids in enumerate(a.groups) if a.row_count[ids[0]]
        )
        assert np.isclose(total, float(np.sum(rows**2)), rtol=1e-12)


def _pencil_pairs(n):
    """A definite pair and an indefinite pair with complex pencil
    eigenvalues, both dense, from a seed fixed by n."""
    rng = np.random.default_rng((n, 13))
    definite = (random_nondegenerate_form(rng, n, False), random_nondegenerate_form(rng, n))
    while True:
        j = random_nondegenerate_form(rng, n, True)
        jp = random_nondegenerate_form(rng, n, True)
        if np.any(np.iscomplex(np.linalg.eigvals(np.linalg.solve(j, jp)))):
            return [definite, (j, jp)]


def _assert_matches_dense(report, j, jp):
    dense = solve_kernel(generalized_braid_system(j, jp))
    assert (report.kernel_dim, report.verdict, report.split) == (
        dense.kernel_dim, dense.verdict, dense.split
    )


class TestPencilNormalForm:
    """The normal form decides only rigid verdicts, and those agree with the
    system of the forms as given (the dense oracle)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_dense_oracle(self, n):
        pairs = _pencil_pairs(n)
        for j, jp in pairs:
            report = generalized_braid_kernel(j, jp)
            _assert_matches_dense(report, j, jp)
            assert report.verdict == "rigid"
            assert report.pencil["transform_condition"] <= PENCIL_CONDITION_CAP
            basis = generalized_braid_kernel(j, jp, want_basis=True).kernel_basis
            assert basis.shape == (0, report.unknowns) and basis.dtype == float
        # the definite pencil is real, the indefinite one is not
        assert not generalized_braid_kernel(*pairs[0]).pencil["eigenvalues"][:, 1].any()
        assert report.pencil["eigenvalues"][:, 1].any()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_classical_matches_dense_oracle(self, n):
        j = random_nondegenerate_form(np.random.default_rng((n, 14)), n, True)
        report = classical_braid_kernel(j)
        dense = solve_kernel(classical_braid_system(BilinForm(j)))
        assert (report.kernel_dim, report.verdict) == (dense.kernel_dim, dense.verdict) == (0, "rigid")
        values = report.pencil["eigenvalues"]
        assert np.allclose(values[:, 0], np.linalg.eigvalsh(j)) and not values[:, 1].any()
        assert report.unknowns == dense.unknowns and report.singular_values.shape == dense.singular_values.shape

    def test_diagonal_forms_are_solved_as_given(self):
        for kind in ("classical", "generalized"):
            j, jp = np.diag([2.0, -1.0, 0.5]), np.diag([1.0, 3.0, -2.0])
            report = classical_braid_kernel(j) if kind == "classical" else generalized_braid_kernel(j, jp)
            assert report.pencil is None

    def test_singular_dense_j_takes_the_dense_path(self):
        j = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        jp = random_nondegenerate_form(np.random.default_rng(15), 3)
        assert _pencil_normal_form(_as_form(j), _as_form(jp)) is None
        report = generalized_braid_kernel(j, jp)
        assert report.pencil is None
        _assert_matches_dense(report, j, jp)

    def test_rank_one_jp_falls_back_with_a_basis_of_the_given_rows(self):
        rng = np.random.default_rng(16)
        j = random_nondegenerate_form(rng, 4, True)
        u = rng.standard_normal(4)
        jp = np.outer(u, u)
        report = generalized_braid_kernel(j, jp, want_basis=True)
        assert report.pencil is None
        assert report.kernel_dim == 4 and report.kernel_basis.dtype == float
        system = generalized_braid_system(j, jp)
        for vec in report.kernel_basis:
            assert system.residual(vec) < 1e-8 * system.coefficient_scale()

    def test_ill_conditioned_congruence_falls_back(self, monkeypatch):
        # J = P0^-T S P0^-1 and Jp = P0^-T S diag(mu) P0^-1: the normal form's
        # P is P0 up to column signs, of condition 3e3
        rng = np.random.default_rng(17)
        p0 = random_orthogonal(rng, 4) @ np.diag([1.0, 1.0, 1.0, 1 / 3e3]) @ random_orthogonal(rng, 4)
        inv = np.linalg.inv(p0)
        j = inv.T @ np.diag([1.0, -1.0, 1.0, 1.0]) @ inv
        jp = inv.T @ np.diag([1.0, 2.0, -3.0, 4.0]) @ inv
        assert _pencil_normal_form(_as_form(j), _as_form(jp)) is None
        report = generalized_braid_kernel(j, jp)
        assert report.pencil is None
        _assert_matches_dense(report, j, jp)
        monkeypatch.setattr(braid, "PENCIL_CONDITION_CAP", 1e6)
        assert _pencil_normal_form(_as_form(j), _as_form(jp)).condition > PENCIL_CONDITION_CAP

    @pytest.mark.parametrize("split", [0.0, 1e-12, 1e-4])
    def test_repeated_eigenvalues_fall_back_or_match(self, split):
        rng = np.random.default_rng(18)
        inv = np.linalg.inv(random_well_conditioned(rng, 4))
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        j = inv.T @ np.diag(signs) @ inv
        jp = inv.T @ np.diag(signs * [1.0, 1.0 + split, 2.0, 3.0]) @ inv
        for pair in ((j, jp), (j, j)):
            report = generalized_braid_kernel(*pair)
            _assert_matches_dense(report, *pair)
            if split != 1e-4 or pair[1] is j:
                assert report.pencil is None

    def test_defective_pencil_falls_back(self):
        # J^-1 Jp has a 2x2 Jordan block: no eigenvector basis exists
        j = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        jp = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert _pencil_normal_form(_as_form(j), _as_form(jp)) is None
        _assert_matches_dense(generalized_braid_kernel(j, jp), j, jp)
