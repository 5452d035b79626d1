import itertools
import math

import numpy as np
import pytest

from rigidity_lab.multilinear import (
    PIVOT_MAX_N,
    BilinForm,
    SymTensor,
    form_signature,
    positive_pivots,
    sym_index_count,
    _packed_index,
    _sym_index_array,
    _sym_indices,
)
from conftest import random_well_conditioned


class TestEnumerate:
    def test_single_axis(self):
        assert _sym_indices(1, 3) == ((0, 0, 0),)

    def test_n3_d2(self):
        assert _sym_indices(3, 2) == (
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        )

    def test_n4_d3_count_matches_bruteforce(self):
        listed = list(_sym_indices(4, 3))
        brute = [
            t for t in itertools.product(range(4), repeat=3) if tuple(sorted(t)) == t
        ]
        assert listed == brute
        assert len(listed) == 20 == sym_index_count(4, 3)

    def test_sorted_unique_exhaustive(self):
        for n, d in [(2, 4), (5, 2), (3, 0)]:
            idx = _sym_indices(n, d)
            assert len(set(idx)) == len(idx) == math.comb(n + d - 1, d)
            assert all(tuple(sorted(i)) == i for i in idx)


class TestPackedIndex:
    def test_degree_zero_array_has_one_empty_tuple(self):
        for n in (1, 3):
            assert _sym_index_array(n, 0).shape == (1, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dict_of_sorted_tuples(self, n):
        for d in range(6):
            sym = itertools.combinations_with_replacement(range(n), d)
            pos = {idx: k for k, idx in enumerate(sym)}
            full = list(itertools.product(range(n), repeat=d))
            want = [pos[tuple(sorted(t))] for t in full]
            got = _packed_index(n, np.array(full, dtype=np.intp).reshape(len(full), d))
            assert got.tolist() == want


# -- the arrangement loop the packed-index map replaced, kept as an oracle ------


def _arrangements(idx):
    return sorted(set(itertools.permutations(idx)))


def _unpack_loop(t):
    shape = (t.n,) * t.degree + t.coeffs.shape[1:]
    full = np.zeros(shape)
    sym = itertools.combinations_with_replacement(range(t.n), t.degree)
    for pos, idx in enumerate(sym):
        for arr in _arrangements(idx):
            full[arr] = t.coeffs[pos]
    return full


class TestLoopOracles:
    CASES = [(n, d, vector) for n in (1, 2, 3, 4) for d in range(5) for vector in (False, True)
             if d + vector > 0]

    @pytest.mark.parametrize("n, degree, vector", CASES)
    def test_same_bytes_as_the_loops(self, rng, n, degree, vector):
        coeffs = rng.standard_normal((sym_index_count(n, degree),) + (n,) * vector)
        t = SymTensor(n, degree, coeffs)
        full = t.unpack()
        assert full.shape == (n,) * (degree + vector)
        assert np.asarray(full).tobytes() == _unpack_loop(t).tobytes()


def full_evaluate(t, args):
    """Index-loop oracle for evaluating a packed tensor on ``args``: each full
    index tuple reads the coefficient of its sorted tuple, not ``unpack``."""
    pos = {
        idx: k
        for k, idx in enumerate(itertools.combinations_with_replacement(range(t.n), t.degree))
    }
    total = np.zeros(t.coeffs.shape[1:])
    for idx in itertools.product(range(t.n), repeat=t.degree):
        w = math.prod(args[k][idx[k]] for k in range(t.degree))
        total = total + t.coeffs[pos[tuple(sorted(idx))]] * w
    return total


class TestPackedEvaluation:
    @pytest.mark.parametrize("degree,vector", [(2, False), (3, False), (3, True), (4, True)])
    def test_matches_full_tensor(self, rng, degree, vector):
        n = 3
        t = SymTensor(n, degree, rng.standard_normal((sym_index_count(n, degree),) + (n,) * vector))
        full = t.unpack()
        for _ in range(100):
            args = [rng.standard_normal(n) for _ in range(degree)]
            contracted = full
            for a in args:
                contracted = np.tensordot(a, contracted, axes=(0, 0))
            assert np.allclose(contracted, full_evaluate(t, args), atol=1e-12)

    def test_norm_weights_each_coefficient_by_its_arrangements(self, rng):
        n, degree = 3, 3
        t = SymTensor(n, degree, rng.standard_normal((sym_index_count(n, degree), n)))
        sym = itertools.combinations_with_replacement(range(n), degree)
        weights = np.array([len(_arrangements(idx)) for idx in sym], dtype=float)
        expected = math.sqrt(float(weights @ np.sum(t.coeffs**2, axis=1)))
        assert t.norm() == pytest.approx(expected, rel=1e-12)

    def test_coeff_shapes(self):
        assert SymTensor(3, 2, np.zeros(6)).coeffs.shape == (6,)
        assert SymTensor(3, 2, np.zeros((6, 3))).coeffs.shape == (6, 3)
        with pytest.raises(ValueError):
            SymTensor(3, 2, np.zeros(7))


class TestSignature:
    def test_identity(self):
        assert form_signature(np.eye(3)) == (3, 0, 0)

    def test_minkowski(self):
        assert form_signature(np.diag([-1.0, 1.0, 1.0, 1.0])) == (3, 1, 0)

    def test_explicit_zero(self):
        p, q, z = form_signature(np.diag([1.0, 1.0, 0.0]))
        assert (p, q, z) == (2, 0, 1)
        assert not BilinForm(np.diag([1.0, 1.0, 0.0])).nondegenerate

    def test_zero_matrix(self):
        assert form_signature(np.zeros((4, 4))) == (0, 0, 4)

    def test_sylvester_congruence_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            d = rng.choice([-1.0, 0.0, 1.0], size=n)
            j = np.diag(d * rng.uniform(0.5, 2.0, size=n))
            m = random_well_conditioned(rng, n)
            assert form_signature(m.T @ j @ m) == form_signature(j)


class TestSymmetrize:
    """A BilinForm stores the symmetric part (m + m^T) / 2 of its matrix."""

    def test_idempotent_on_symmetric(self, rng):
        f = BilinForm(rng.standard_normal((3, 3)))
        assert BilinForm(f.matrix).matrix.tobytes() == f.matrix.tobytes()

    def test_two_term_average(self):
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        f = BilinForm(raw)
        assert f.matrix[0, 1] == f.matrix[1, 0] == 0.5
        assert f.signature == (1, 1, 0)

    def test_evaluation_permutation_invariant(self, rng):
        f = BilinForm(rng.standard_normal((4, 4)))
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        assert f(u, v) == pytest.approx(f(v, u), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            BilinForm(np.zeros((2, 3)))


class TestBilinForm:
    def test_storage_is_exactly_symmetric(self, rng):
        a = rng.standard_normal((4, 4))
        f = BilinForm(a)
        assert np.array_equal(f.matrix, f.matrix.T)
        assert f.rank == f.signature[0] + f.signature[1]

    def test_call(self):
        f = BilinForm(np.diag([2.0, 3.0]))
        assert f([1.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)


class TestPositivePivots:
    """The elimination answers as the least eigenvalue does, away from a tie."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, PIVOT_MAX_N])
    def test_matches_least_eigenvalue(self, rng, n):
        a = rng.standard_normal((64, n, n))
        a = a @ a.swapaxes(1, 2) + 1e-3 * np.eye(n)
        lo = np.linalg.eigvalsh(a)[:, 0]
        assert positive_pivots(a, lo * (1.0 - 1e-6)).all()
        assert not positive_pivots(a, lo * (1.0 + 1e-6)).any()
        # indefinite and negative definite stacks
        assert not positive_pivots(a - 2.0 * lo[:, None, None] * np.eye(n), np.zeros(64)).any()
        assert not positive_pivots(-a, np.zeros(64)).any()

    @pytest.mark.parametrize("power", [-1070, -1000, -300, 0, 300, 1000])
    def test_answer_does_not_depend_on_scale(self, rng, power):
        # pivots are ratios times entries: the answer holds at any scale of
        # normal entries, and a subnormal identity still passes
        a = rng.standard_normal((32, 3, 3))
        a = a @ a.swapaxes(1, 2) + 0.1 * np.eye(3)
        lo = np.linalg.eigvalsh(a)[:, 0]
        shift = np.where(np.arange(32) % 2, 0.999, 1.001) * lo
        want = positive_pivots(a, shift)
        assert want.tolist() == (np.arange(32) % 2 == 1).tolist()
        scaled = np.ldexp(a, power)
        if power < -1000:
            assert positive_pivots(np.ldexp(np.eye(3)[None], power), np.zeros(1)).all()
            return
        assert positive_pivots(scaled, np.ldexp(shift, power)).tolist() == want.tolist()

    def test_non_finite_zero_and_empty(self):
        stack = np.array([[[np.inf]], [[np.nan]], [[0.0]], [[-0.0]], [[-1.0]], [[5e-324]]])
        assert positive_pivots(stack, np.zeros(6)).tolist() == [False] * 5 + [True]
        big = np.array([[[1e308, 1e308], [1e308, -1e308]], [[1e308, 0.0], [0.0, 1e308]]])
        assert positive_pivots(big, np.zeros(2)).tolist() == [False, True]
        assert positive_pivots(big, np.full(2, np.inf)).tolist() == [False, False]
        assert positive_pivots(np.zeros((0, 3, 3)), np.zeros(0)).shape == (0,)

    def test_input_untouched_and_no_warning(self, recwarn):
        a = np.array([[[1.0, 2.0], [2.0, 1.0]], [[0.0, 1e308], [1e308, 0.0]]])
        before = a.copy()
        assert not positive_pivots(a, np.zeros(2)).any()
        assert np.array_equal(a, before) and not recwarn.list

    def test_orders_above_the_cap_are_not_eliminated(self):
        n = PIVOT_MAX_N + 1
        assert positive_pivots(np.eye(n)[None], np.zeros(1)).tolist() == [False]
