import itertools
import math

import numpy as np
import pytest

from rigidity_lab.multilinear import (
    BilinForm,
    SymTensor,
    enumerate_sym_indices,
    form_signature,
    pushforward,
    sym_index_count,
    symmetrize,
    _packed_index,
    _sym_index_array,
)
from conftest import random_well_conditioned


def full_evaluate(full, args):
    """Index-loop oracle for tensor evaluation, independent of packing."""
    degree = len(args)
    total = 0.0 if full.ndim == degree else np.zeros(full.shape[-1])
    for idx in itertools.product(range(full.shape[0]), repeat=degree):
        w = math.prod(args[k][idx[k]] for k in range(degree))
        total = total + full[idx] * w
    return total


class TestEnumerate:
    def test_single_axis(self):
        assert enumerate_sym_indices(1, 3) == [(0, 0, 0)]

    def test_n3_d2(self):
        assert enumerate_sym_indices(3, 2) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]

    def test_n4_d3_count_matches_bruteforce(self):
        listed = enumerate_sym_indices(4, 3)
        brute = [
            t for t in itertools.product(range(4), repeat=3) if tuple(sorted(t)) == t
        ]
        assert listed == brute
        assert len(listed) == 20 == sym_index_count(4, 3)

    def test_sorted_unique_exhaustive(self):
        for n, d in [(2, 4), (5, 2), (3, 0)]:
            idx = enumerate_sym_indices(n, d)
            assert len(set(idx)) == len(idx) == math.comb(n + d - 1, d)
            assert all(tuple(sorted(i)) == i for i in idx)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            enumerate_sym_indices(0, 2)
        with pytest.raises(ValueError):
            enumerate_sym_indices(3, -1)


class TestPackedIndex:
    def test_degree_zero_array_has_one_empty_tuple(self):
        for n in (1, 3):
            assert _sym_index_array(n, 0).shape == (1, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dict_of_sorted_tuples(self, n):
        for d in range(6):
            pos = {idx: k for k, idx in enumerate(enumerate_sym_indices(n, d))}
            full = list(itertools.product(range(n), repeat=d))
            want = [pos[tuple(sorted(t))] for t in full]
            got = _packed_index(n, np.array(full, dtype=np.intp).reshape(len(full), d))
            assert got.tolist() == want


# -- the arrangement loops the packed-index map replaced, kept as oracles ------


def _arrangements(idx):
    return sorted(set(itertools.permutations(idx)))


def _unpack_loop(t):
    shape = (t.n,) * t.degree + t.coeffs.shape[1:]
    full = np.zeros(shape)
    for pos, idx in enumerate(enumerate_sym_indices(t.n, t.degree)):
        for arr in _arrangements(idx):
            full[arr] = t.coeffs[pos]
    return full


def _pack_full_loop(full, degree):
    n = full.shape[0]
    coeffs = np.zeros((sym_index_count(n, degree),) + full.shape[degree:])
    for pos, idx in enumerate(enumerate_sym_indices(n, degree)):
        coeffs[pos] = full[idx]
    return coeffs


def _symmetrize_loop(raw, degree):
    n = raw.shape[0]
    coeffs = np.zeros((sym_index_count(n, degree),) + raw.shape[degree:])
    for pos, idx in enumerate(enumerate_sym_indices(n, degree)):
        arrs = _arrangements(idx)
        acc = np.zeros(raw.shape[degree:]) if raw.ndim > degree else 0.0
        for arr in arrs:
            acc = acc + raw[arr]
        coeffs[pos] = acc / len(arrs)
    return coeffs


class TestLoopOracles:
    CASES = [(n, d, vector) for n in (1, 2, 3, 4) for d in range(5) for vector in (False, True)
             if d + vector > 0]

    @pytest.mark.parametrize("n, degree, vector", CASES)
    def test_same_bytes_as_the_loops(self, rng, n, degree, vector):
        raw = rng.standard_normal((n,) * (degree + vector))
        t = symmetrize(raw, degree=degree)
        assert t.coeffs.tobytes() == _symmetrize_loop(raw, degree).tobytes()
        full = t.unpack()
        assert full.shape == raw.shape
        assert np.asarray(full).tobytes() == _unpack_loop(t).tobytes()
        packed = SymTensor.pack_full(full, degree).coeffs
        assert packed.tobytes() == _pack_full_loop(full, degree).tobytes()


class TestSymmetrize:
    def test_idempotent_on_symmetric(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3)))
        again = symmetrize(t.unpack())
        assert np.allclose(t.coeffs, again.coeffs, atol=1e-15)

    def test_two_term_average(self):
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        t = symmetrize(raw)
        pos = enumerate_sym_indices(2, 2).index((0, 1))
        assert t.coeffs[pos] == pytest.approx(0.5)

    def test_evaluation_permutation_invariant(self, rng):
        raw = rng.standard_normal((3, 3, 3, 3))  # vector-valued degree 3
        t = symmetrize(raw, degree=3)
        args = [rng.standard_normal(3) for _ in range(3)]
        base = t.evaluate(*args)
        for perm in itertools.permutations(args):
            assert np.allclose(t.evaluate(*perm), base, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


class TestPackedEvaluation:
    @pytest.mark.parametrize("degree,vector", [(2, False), (3, False), (3, True), (4, True)])
    def test_matches_full_tensor(self, rng, degree, vector):
        n = 3
        shape = (n,) * degree + ((n,) if vector else ())
        t = symmetrize(rng.standard_normal(shape), degree=degree)
        full = t.unpack()
        for _ in range(100):
            args = [rng.standard_normal(n) for _ in range(degree)]
            assert np.allclose(
                t.evaluate(*args), full_evaluate(full, args), atol=1e-12
            )

    def test_coeff_shapes(self):
        assert SymTensor(3, 2, np.zeros(6)).codomain == "scalar"
        assert SymTensor(3, 2, np.zeros((6, 3))).codomain == "vector"
        with pytest.raises(ValueError):
            SymTensor(3, 2, np.zeros(7))


class TestPushforward:
    def test_identity(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3)), degree=3)
        out = pushforward(t, np.eye(3))
        assert np.allclose(out.coeffs, t.coeffs, atol=1e-12)

    def test_form_homogeneity(self):
        j = BilinForm(np.diag([2.0, 3.0, 4.0]))
        out = pushforward(j, 5.0 * np.eye(3))
        assert np.allclose(out.matrix, 25.0 * j.matrix)

    def test_vector_round_trip(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3, 3)), degree=3)
        m = random_well_conditioned(rng, 3)
        back = pushforward(pushforward(t, m), np.linalg.inv(m))
        assert np.max(np.abs(back.coeffs - t.coeffs)) < 1e-10

    def test_form_round_trip(self, rng):
        t = symmetrize(rng.standard_normal((3, 3)), degree=2)
        m = random_well_conditioned(rng, 3)
        back = pushforward(pushforward(t, m), np.linalg.inv(m))
        assert np.max(np.abs(back.coeffs - t.coeffs)) < 1e-10

    def test_vector_functorial(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3)), degree=2)
        m1 = random_well_conditioned(rng, 3)
        m2 = random_well_conditioned(rng, 3)
        lhs = pushforward(t, m1 @ m2)
        rhs = pushforward(pushforward(t, m2), m1)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10

    def test_form_functorial(self, rng):
        # forms compose contravariantly: the inner map acts last
        t = symmetrize(rng.standard_normal((3, 3)), degree=2)
        m1 = random_well_conditioned(rng, 3)
        m2 = random_well_conditioned(rng, 3)
        lhs = pushforward(t, m1 @ m2)
        rhs = pushforward(pushforward(t, m1), m2)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10

    def test_singular_map_rejected(self):
        t = symmetrize(np.ones((2, 2)), degree=2)
        with pytest.raises(ValueError, match="singular"):
            pushforward(t, np.array([[1.0, 0.0], [0.0, 0.0]]))


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


class TestBilinForm:
    def test_storage_is_exactly_symmetric(self, rng):
        a = rng.standard_normal((4, 4))
        f = BilinForm(a)
        assert np.array_equal(f.matrix, f.matrix.T)
        assert f.rank == f.signature[0] + f.signature[1]

    def test_call(self):
        f = BilinForm(np.diag([2.0, 3.0]))
        assert f([1.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)
