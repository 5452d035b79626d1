import dataclasses
import importlib.util
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidity_lab import prolongation, reportio
from rigidity_lab.braid import _packed_rows, solve_kernel
from rigidity_lab.prolongation import (
    RANK1_RATIO_TOL,
    FiniteType,
    InfiniteType,
    MatrixAlgebra,
    UnknownBeyond,
    builtin_algebra,
    curve_stabilizer_algebra,
    find_rank1,
    finite_type,
    membership_residual,
    prolongation_space,
    prolongation_system,
    prolongation_unknowns,
    rank1_witness_prolongation,
)
from conftest import conjugate, random_nondegenerate_form, random_well_conditioned


def rank1_matrix(rng, n):
    return np.outer(rng.standard_normal(n), rng.standard_normal(n))


def rank_at_least_2(rng, n):
    while True:
        m = rng.standard_normal((n, n))
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] > 0.2 * s[0]:
            return m


class TestMatrixAlgebra:
    def test_orthonormal_basis_spans_generators(self, rng):
        gens = [rng.standard_normal((3, 3)) for _ in range(2)]
        gens.append(gens[0] + 2.0 * gens[1])  # dependent
        h = MatrixAlgebra(3, gens)
        assert h.dim == 2
        b = h.orthonormalized_basis.reshape(h.dim, -1)
        gram = b @ b.T
        assert np.max(np.abs(gram - np.eye(h.dim))) < 1e-12
        for g in gens:
            assert h.projection_residual(g) < 1e-10 * np.linalg.norm(g)

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([[[np.nan, 0.0], [0.0, 1.0]]], "generator 0 has a non-finite entry"),
            ([np.eye(2), [[1.0, 0.0], [0.0, -np.inf]]], "generator 1 has a non-finite entry"),
            ([np.eye(2), [[1e308, 1e308], [1e308, 1.0]]], "generator 1: the generators' Frobenius"),
            ([np.eye(2), np.ones((3, 3))], "generator 1 has shape (3, 3)"),
        ],
    )
    def test_invalid_generators_named(self, gens, message):
        with pytest.raises(ValueError) as info:
            MatrixAlgebra(2, gens)
        assert message in str(info.value)

    def test_echelon_complement_is_no_field(self):
        # computed lazily, once, and kept out of == and repr
        h = builtin_algebra("so", 3)
        before = repr(h)
        assert h.echelon_complement is h.echelon_complement
        assert h.echelon_complement.shape == (6, 3, 3)
        assert repr(h) == before
        assert "echelon_complement" not in {f.name for f in dataclasses.fields(h)}

    def test_equality_is_identity(self):
        # array fields cannot be compared elementwise into one bool
        h = builtin_algebra("so", 3)
        assert h == h
        assert h != builtin_algebra("so", 3)
        assert len({h, h, builtin_algebra("so", 3)}) == 2

    def test_custom_generators_as_one_array(self, rng):
        # a (k, n, n) array reads as the list of its k matrices
        gens = rng.standard_normal((3, 4, 4))
        h = builtin_algebra("custom", generators=gens)
        expected = builtin_algebra("custom", generators=list(gens))
        assert h.orthonormalized_basis.tobytes() == expected.orthonormalized_basis.tobytes()

    def test_custom_needs_generators(self):
        with pytest.raises(ValueError, match="custom algebra needs generator matrices"):
            builtin_algebra("custom", generators=[])


def fraction_null_basis(rows, rank):
    """The complement's elimination in exact arithmetic, the reference for
    ``MatrixAlgebra.echelon_complement``: the float rows read exactly as
    Fractions, brought to reduced row echelon form by the same complete
    pivoting (the largest |entry| left in the unpivoted rows, ties to the
    lowest row, then the lowest column) and stopped after ``rank`` pivots.
    Free column f gives ``e_f - sum_p R[p, f] e_{c_p}``, free columns
    ascending, as a Fraction object array."""
    # rows as sparse {column: value} dicts; pivot rows are kept reduced
    live = {
        i: {j: Fraction(x) for j, x in enumerate(row) if x}
        for i, row in enumerate(rows.tolist())
    }
    pivots = {}
    for _ in range(rank):
        candidates = [(i, j) for i, row in live.items() for j in row]
        i, col = max(candidates, key=lambda ij: (abs(live[ij[0]][ij[1]]), -ij[0], -ij[1]))
        row = live.pop(i)
        scale = row[col]
        pivot = {j: v / scale for j, v in row.items()}
        for other in (*live.values(), *pivots.values()):
            factor = other.pop(col, 0)
            if factor:
                for j, v in pivot.items():
                    if j != col:
                        value = other.get(j, 0) - factor * v
                        if value:
                            other[j] = value
                        else:
                            other.pop(j, None)
        pivots[col] = pivot
    ncols = rows.shape[1]
    free = [f for f in range(ncols) if f not in pivots]
    basis = np.full((len(free), ncols), Fraction(0), dtype=object)
    for k, f in enumerate(free):
        basis[k, f] = Fraction(1)
        for col, pivot in pivots.items():
            if f in pivot:
                basis[k, col] = -pivot[f]
    return basis


def generator_rows(h):
    return np.stack([g.ravel() for g in h.generators])


def owns_free_column(basis):
    """Each vector is 1 at a column where every other vector is 0, so the
    vectors are independent."""
    alone = (basis == 1) & ((basis != 0).sum(axis=0) == 1)
    return alone.any(axis=1).all()


def _exact_algebras():
    for n in range(1, 13):
        yield f"co-{n}", builtin_algebra("co", n)
        if n >= 2:  # so(1) is zero and lightlike_orth needs n >= 2
            yield f"so-{n}", builtin_algebra("so", n)
            yield f"lightlike_orth-{n}", builtin_algebra("lightlike_orth", n)
    # one row: dyadic floats, 0.1 read as the rational it rounds to
    yield "one_param-decimal", builtin_algebra("one_param", r_matrix=[[0.1, 0.3], [-0.7, 0.2]])


EXACT_ALGEBRAS = list(_exact_algebras())

# integer generators with a dependency and fractional echelon entries
_A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, 5.0]])
_B = np.array([[0.0, 1.0, 7.0], [3.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
CUSTOM_DEPENDENT = builtin_algebra("custom", generators=[_A, _B, 3.0 * _A - 2.0 * _B])


def _bench_workloads():
    """``bench/workloads.py``, registered as ``bench_workloads`` (its
    dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()


def _complement_oracle_cases():
    for n in range(2, 7):
        rng = np.random.default_rng((61, n))
        algebras = {
            "so": builtin_algebra("so", n),
            "co": builtin_algebra("co", n),
            "lightlike_orth": builtin_algebra("lightlike_orth", n),
            "one_param": builtin_algebra("one_param", r_matrix=rng.standard_normal((n, n))),
            "custom": builtin_algebra(
                "custom", generators=[rng.standard_normal((n, n)) for _ in range(min(3, n))]
            ),
        }
        g = random_well_conditioned(rng, n)
        for name, h in algebras.items():
            yield f"{name}-{n}", h
            yield f"{name}-{n}-conjugated", conjugate(h, g)


COMPLEMENT_ORACLE_CASES = list(_complement_oracle_cases())


def _dense_algebras():
    yield "custom-dependent", CUSTOM_DEPENDENT
    for name, h in COMPLEMENT_ORACLE_CASES:
        if name.startswith(("one_param", "custom")) or name.endswith("conjugated"):
            yield name, h
    # the dense sets of the benchmark's generator_matrices at seed 1
    for n, count in ((8, 29), (10, 46)):
        gens = workloads.generator_matrices(random.Random(1), n, count)
        yield f"generators-{count}-n{n}", builtin_algebra("custom", generators=gens)


DENSE_ALGEBRAS = list(_dense_algebras())


class TestEchelonComplement:
    @pytest.mark.parametrize("name,h", EXACT_ALGEBRAS, ids=[name for name, _ in EXACT_ALGEBRAS])
    def test_exact_complement(self, name, h):
        rows = generator_rows(h)
        oracle = fraction_null_basis(rows, h.dim)
        n2 = h.n * h.n
        assert oracle.shape == (n2 - h.dim, n2)
        # the oracle: every generator exactly orthogonal to every vector
        exact = np.array([[Fraction(x) for x in row] for row in rows.tolist()], dtype=object)
        for vector in oracle:
            support = np.flatnonzero(vector)
            assert not (exact[:, support] @ vector[support]).any()
        assert owns_free_column(oracle)
        # the float elimination gives the oracle's values, zeros unsigned
        assert h.echelon_complement.reshape(-1, n2).tobytes() == oracle.astype(float).tobytes()

    def test_fractional_entries_near_the_oracle(self):
        # entries such as 2/35 come out of two roundings per row update,
        # a few units in the last place from the rounded exact value
        h = CUSTOM_DEPENDENT
        oracle = fraction_null_basis(generator_rows(h), h.dim).astype(float)
        basis = h.echelon_complement.reshape(len(oracle), -1)
        assert np.max(np.abs(basis - oracle)) <= 1e-16
        assert np.array_equal(basis == 0.0, oracle == 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 7, 13])
    def test_prolong_curves_one_param_complements(self, seed):
        # the integer matrices R of the benchmark's one_param jobs
        jobs = [job for job in workloads.build("prolong-curves", seed) if "one_param" in job.argv]
        assert len(jobs) == 3
        for job in jobs:
            r = np.array(json.loads(job.argv[job.argv.index("--R") + 1]), dtype=float)
            h = builtin_algebra("one_param", r_matrix=r)
            oracle = fraction_null_basis(generator_rows(h), h.dim)
            assert h.echelon_complement.tobytes() == oracle.astype(float).tobytes()

    @pytest.mark.parametrize("name,h", DENSE_ALGEBRAS, ids=[name for name, _ in DENSE_ALGEBRAS])
    def test_dense_complement(self, name, h):
        rows = generator_rows(h)
        basis = h.echelon_complement.reshape(-1, h.n * h.n)
        assert basis.shape == (h.n * h.n - h.dim, h.n * h.n)
        assert np.max(np.abs(rows @ basis.T)) <= 1e-12 * np.max(np.abs(rows))
        assert owns_free_column(basis)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_builtin_complements_are_sparse(self, n):
        # so: E_ii and E_ij + E_ji; co: E_ii - E_00 and E_ij + E_ji
        for name in ("so", "co"):
            q = builtin_algebra(name, n).echelon_complement
            assert set(np.unique(q).tolist()) <= {-1.0, 0.0, 1.0}
            assert np.count_nonzero(q, axis=(1, 2)).max() <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_complete_pivoting_on_conjugated_co4(self, seed):
        # first-nonzero or per-column pivoting let the coefficients of a
        # conjugated co(4) reach about 1e17 and gave a 36-dimensional first
        # prolongation; complete pivoting keeps them near 1
        g = random_well_conditioned(np.random.default_rng((53, seed)), 4)
        h = conjugate(builtin_algebra("co", 4), g)
        assert np.abs(h.echelon_complement).max() <= 2.0
        assert [prolongation_space(h, d).dim for d in (1, 2, 3)] == [4, 0, 0]

    def test_elimination_stops_at_numerical_rank(self):
        # 3 * 0.1 != 0.3 in floats: the exact rank is 2, the numerical rank 1
        r = np.array([[0.1, 0.2], [0.3, 0.4]])
        h = MatrixAlgebra(2, [3.0 * r, np.array([[0.3, 0.6], [0.9, 1.2]])])
        assert h.dim == 1
        assert h.echelon_complement.shape == (3, 2, 2)
        for d in (1, 2, 3):
            assert prolongation_space(h, d).dim == svd_complement_dim(h, d)


class TestProlongationSpace:
    def test_so3_first_prolongation_vanishes(self):
        assert prolongation_space(builtin_algebra("so", 3), 1).dim == 0

    def test_co3_dims(self):
        co3 = builtin_algebra("co", 3)
        assert prolongation_space(co3, 1).dim == 3
        assert prolongation_space(co3, 2).dim == 0

    def test_rank1_span_has_first_prolongation(self, rng):
        r = rank1_matrix(rng, 3)
        space = prolongation_space(builtin_algebra("one_param", r_matrix=r), 1)
        assert space.dim >= 1

    def test_basis_elements_pass_membership(self):
        co3 = builtin_algebra("co", 3)
        space = prolongation_space(co3, 1)
        for t in space.basis:
            assert membership_residual(co3, t) < 1e-8

    def test_dimension_needs_no_singular_vectors(self, monkeypatch):
        # a rank-one generator without zero entries couples the whole
        # system into one dense block; its kernel is counted from singular
        # values, and the basis is solved for once, on first use
        calls = []
        original = prolongation.solve_kernel

        def recorded(system, tol, want_basis=False):
            calls.append(want_basis)
            return original(system, tol=tol, want_basis=want_basis)

        monkeypatch.setattr(prolongation, "solve_kernel", recorded)
        h = builtin_algebra("one_param", r_matrix=np.outer([1.0, 2, -1, 3], [2.0, -1, 1, 1]))
        space = prolongation_space(h, 2)
        assert (space.dim, calls) == (1, [False])
        assert len(space.basis) == 1
        assert membership_residual(h, space.basis[0]) < 1e-8
        assert calls == [False, True]

    def test_size_cap(self):
        big = builtin_algebra("so", 12)
        with pytest.raises(ValueError, match="cap"):
            prolongation_space(big, 4)

    def test_conjugation_invariance(self, rng):
        co3 = builtin_algebra("co", 3)
        r = rank1_matrix(rng, 3)
        span_r = builtin_algebra("one_param", r_matrix=r)
        for _ in range(10):
            g = random_well_conditioned(rng, 3)
            for h in (co3, span_r):
                for d in (1, 2):
                    assert (
                        prolongation_space(conjugate(h, g), d).dim
                        == prolongation_space(h, d).dim
                    )


def prolongation_rows_loop(h, d):
    """Reference assembly of ``prolongation_system`` rows, one entry block at
    a time: row (tup, q) holds Q[out, u] at column pos[sort(u, tup)] * n + out
    for the test matrices Q of the exact complement."""
    n = h.n
    sym = itertools.combinations_with_replacement
    pos = {idx: k for k, idx in enumerate(sym(range(n), d + 1))}
    tuples = list(sym(range(n), d))
    rows = np.zeros((len(tuples) * len(h.echelon_complement), prolongation_unknowns(n, d)))
    r = 0
    for tup in tuples:
        for q in h.echelon_complement:
            for u in range(n):
                base = pos[tuple(sorted((u,) + tup))] * n
                rows[r, base : base + n] += q[:, u]
            r += 1
    return rows


def _oracle_algebras():
    rng = np.random.default_rng(4242)
    for n in range(1, 6):
        yield f"co-{n}", builtin_algebra("co", n)
        if n >= 2:  # so(1) is zero and lightlike_orth needs n >= 2
            yield f"so-{n}", builtin_algebra("so", n)
            yield f"lightlike_orth-{n}", builtin_algebra("lightlike_orth", n)
        yield f"one_param-{n}", builtin_algebra("one_param", r_matrix=rng.standard_normal((n, n)))
        gens = [rng.standard_normal((n, n)) for _ in range(min(3, n * n))]
        yield f"custom-{n}", builtin_algebra("custom", generators=gens)


ORACLE_ALGEBRAS = list(_oracle_algebras())


def svd_complement_dim(h, d):
    """Order-d prolongation dimension with the dense orthonormal complement
    from the algebra's SVD as test matrices: the oracle for the echelon one."""
    return solve_kernel(_packed_rows(h._complement, d + 1)).kernel_dim


class TestProlongationSystemOracle:
    @pytest.mark.parametrize(
        "name,h", COMPLEMENT_ORACLE_CASES, ids=[name for name, _ in COMPLEMENT_ORACLE_CASES]
    )
    def test_exact_complement_matches_svd_complement(self, name, h):
        for d in (1, 2, 3):
            assert prolongation_space(h, d).dim == svd_complement_dim(h, d), d

    @pytest.mark.parametrize("name,h", ORACLE_ALGEBRAS, ids=[name for name, _ in ORACLE_ALGEBRAS])
    def test_rows_match_loop(self, name, h):
        for d in (1, 2, 3):
            system = prolongation_system(h, d)
            expected = prolongation_rows_loop(h, d)
            assert system.rows.shape == expected.shape
            assert system.rows.tobytes() == expected.tobytes()
            assert len(system.unknown_labels) == system.rows.shape[1]


class TestFiniteType:
    def test_rank2_one_param_is_type_1(self, rng):
        r = np.zeros((3, 3))
        r[0, 1] = 1.0
        r[1, 0] = -1.0  # rank 2
        result = finite_type(builtin_algebra("one_param", r_matrix=r))
        assert isinstance(result, FiniteType)
        assert result.order == 1

    def test_lightlike_orthogonal_is_infinite(self):
        result = finite_type(builtin_algebra("lightlike_orth", 4), max_order=2)
        assert isinstance(result, InfiniteType)
        # every rank-one element maps into the kernel direction
        v = result.witness.v
        assert abs(v[3]) > 0.99 * np.linalg.norm(v)

    def test_so4_is_type_1(self):
        result = finite_type(builtin_algebra("so", 4), max_order=2)
        assert isinstance(result, FiniteType)
        assert result.order == 1

    def test_co2_unknown_within_cap(self):
        # every nonzero element of co(2) is invertible, so no rank-one
        # witness exists, and the prolongations never vanish at small orders
        result = finite_type(builtin_algebra("co", 2), max_order=3)
        assert isinstance(result, UnknownBeyond)
        assert all(dim > 0 for dim in result.dims.values())

    def test_dichotomy_over_random_matrices(self, rng):
        for trial in range(20):
            n = 3 if trial % 2 == 0 else 4
            r1 = rank1_matrix(rng, n)
            span = builtin_algebra("one_param", r_matrix=r1)
            res = finite_type(span)
            assert isinstance(res, InfiniteType)
            # the orders were solved before the search, and the witness
            # family is a nonzero element at each of them
            assert list(res.dims) == [1, 2, 3]
            assert all(dim > 0 for dim in res.dims.values())
            w = res.witness
            for d in res.dims:
                ld = rank1_witness_prolongation(w.a, w.v, d)
                assert membership_residual(span, ld) < 1e-8, d

            r2 = rank_at_least_2(rng, n)
            res2 = finite_type(builtin_algebra("one_param", r_matrix=r2))
            assert isinstance(res2, FiniteType)
            assert res2.order == 1

    def test_max_order_cap(self):
        with pytest.raises(ValueError):
            finite_type(builtin_algebra("so", 3), max_order=9)

    def test_size_cap_before_any_solve(self, monkeypatch):
        # so(13) vanishes at order 1, but its order-3 system has 23660
        # unknowns: the call is refused before orders 1 and 2 are solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the size cap was checked")

        monkeypatch.setattr(prolongation, "prolongation_space", no_solve)
        monkeypatch.setattr(prolongation, "find_rank1", no_solve)
        with pytest.raises(ValueError, match="order 3 would have 23660 unknowns"):
            finite_type(builtin_algebra("so", 13), max_order=3)


class TestFindRank1:
    def test_rank1_generator_found(self):
        h = builtin_algebra("one_param", r_matrix=np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
        w = find_rank1(h)
        assert w is not None
        assert w.sigma_ratio < 1e-8

    def test_so3_none_found(self):
        # the line of the identity has no rank-one element either: its
        # search polishes and projects back onto the identity
        for h in (builtin_algebra("so", 3), builtin_algebra("one_param", r_matrix=np.eye(3))):
            assert find_rank1(h) is None

    def test_lightlike_witness_factorization(self):
        h = builtin_algebra("lightlike_orth", 4)
        w = find_rank1(h)
        assert w is not None
        # the factorization reproduces the matrix and stays in the subspace
        assert np.max(np.abs(np.outer(w.v, w.a) - w.matrix)) < 1e-12
        assert h.projection_residual(w.matrix) < 1e-8 * np.linalg.norm(w.matrix)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_signed_without_negative_zero(self, n):
        # negating the SVD's factors turns +0.0 into -0.0, which the report
        # writer writes as 0: the written witness reads back to its own bytes
        for k, sign in itertools.product(range(n * n), (1.0, -1.0)):
            r = np.zeros((n, n))
            r.flat[k] = sign
            w = find_rank1(builtin_algebra("one_param", r_matrix=r))
            assert w.a[np.argmax(np.abs(w.a))] > 0.0
            text = reportio.dump_bytes(
                {"matrix": w.matrix, "a": w.a, "v": w.v, "sigma_ratio": w.sigma_ratio}
            )
            assert not re.search(rb"-0(?![.\d])", text), (k, sign)
            assert reportio.dump_bytes(json.loads(text)) == text

    @pytest.mark.parametrize("shape", [(5, 11, 6), (3, 6, 6), (4, 3, 5)])
    def test_null_direction_matches_direct_svd(self, shape):
        # the SVD of R from m = QR against the SVD of m itself; c < n has a
        # null space, so the minimum is 0
        m = np.random.default_rng(53).standard_normal(shape)
        x, least = prolongation._null_direction(m)
        _, svals, vt = np.linalg.svd(m)
        expected = svals[:, -1] if shape[1] >= shape[2] else np.zeros(shape[0])
        assert np.allclose(least, expected, rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(m @ x[:, :, None], axis=(1, 2)), expected, atol=1e-12)
        if shape[1] >= shape[2]:
            assert np.allclose(np.abs(np.einsum("si,si->s", x, vt[:, -1])), 1.0, atol=1e-12)

    def test_deterministic(self):
        h = builtin_algebra("lightlike_orth", 4)
        w1 = find_rank1(h)
        w2 = find_rank1(h)
        assert np.array_equal(w1.coefficients, w2.coefficients)

    def test_witness_independent_of_hash_seed(self):
        # the search draws nothing, so no hash seed can reach it
        code = (
            "from rigidity_lab.prolongation import builtin_algebra, find_rank1\n"
            "w = find_rank1(builtin_algebra('lightlike_orth', 5))\n"
            "print(w.coefficients.tobytes().hex())"
        )
        src = str(Path(prolongation.__file__).parents[1])
        witnesses = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout.strip()
            for hash_seed in ("0", "1")
        }
        w = find_rank1(builtin_algebra("lightlike_orth", 5))
        assert witnesses == {w.coefficients.tobytes().hex()}

    @pytest.mark.parametrize("name, solves", [("so", 2), ("dense", 4)])
    def test_starts_are_basis_singular_vectors(self, name, solves, monkeypatch):
        # solve k starts from the k-th right singular vector of every basis
        # element of rank above k, leading vectors first: so(4)'s elements
        # have rank 2, two dense ones rank 4; neither algebra has a witness
        if name == "so":
            h = builtin_algebra("so", 4)
        else:
            h = MatrixAlgebra(4, list(np.random.default_rng(47).standard_normal((2, 4, 4))))
        starts = []

        def record(complement, a):
            starts.append(a.copy())
            return np.ones_like(a), a

        monkeypatch.setattr(prolongation, "_alternating_rank1", record)
        assert find_rank1(h) is None
        vt = np.linalg.svd(h.orthonormalized_basis)[2]
        assert len(starts) == solves
        for k, a in enumerate(starts):
            assert np.array_equal(a, vt[:, k])

    def test_witness_sign_fixed_by_largest_entry(self):
        # span{R} = span{-R}: the same witness, its largest entry positive
        r = np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        w, w_neg = (find_rank1(builtin_algebra("one_param", r_matrix=m)) for m in (r, -r))
        assert w.matrix.tobytes() == w_neg.matrix.tobytes()
        assert w.matrix[0, 1] == np.max(np.abs(w.matrix)) > 0.0

    def test_line_in_one_dimension(self):
        # n = 1: the complement is empty, so every start is already rank one
        w = find_rank1(MatrixAlgebra(1, [[[-3.0]]]))
        assert w is not None
        assert w.sigma_ratio == 0.0
        assert w.matrix.tolist() == [[1.0]]


def assert_valid_witness(h, w):
    assert w is not None
    assert h.projection_residual(w.matrix) <= 1e-8 * np.linalg.norm(w.matrix)
    assert w.sigma_ratio < RANK1_RATIO_TOL


class TestRank1BasisElement:
    """A rank-one orthonormalized basis element is the witness itself, and
    the alternating search does not run; without one, it does."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refuse(complement, a):
            raise AssertionError("the alternating search ran")

        monkeypatch.setattr(prolongation, "_alternating_rank1", refuse)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rank_one_basis_element_is_the_witness(self, n, no_search):
        rng = np.random.default_rng((41, n))
        for h in (
            builtin_algebra("lightlike_orth", n),
            builtin_algebra("one_param", r_matrix=rank1_matrix(rng, n)),
        ):
            result = finite_type(h)
            assert isinstance(result, InfiniteType)
            w = result.witness
            assert_valid_witness(h, w)
            assert w.matrix.flat[np.argmax(np.abs(w.matrix))] > 0.0

    def test_line_in_one_dimension(self, no_search):
        w = find_rank1(MatrixAlgebra(1, [[[-3.0]]]))
        assert (w.matrix.tolist(), w.sigma_ratio) == ([[1.0]], 0.0)

    def test_planted_element_off_the_basis_is_searched(self, monkeypatch):
        # span{P + G, P - G} = span{P, G}: P is rank one, no basis element is
        rng = np.random.default_rng(43)
        planted, g = rank1_matrix(rng, 4), rank_at_least_2(rng, 4)
        h = MatrixAlgebra(4, [planted + g, planted - g])
        svals = np.linalg.svd(h.orthonormalized_basis, compute_uv=False)
        assert np.min(prolongation._sigma_ratios(svals)) > 1e-3
        calls = []
        search = prolongation._alternating_rank1

        def counted(complement, a):
            calls.append(len(a))
            return search(complement, a)

        monkeypatch.setattr(prolongation, "_alternating_rank1", counted)
        w = find_rank1(h)
        # one solve of dim starts per singular vector rank, until a witness
        assert calls and set(calls) == {h.dim}
        assert_valid_witness(h, w)
        cosine = np.vdot(w.matrix, planted) / (np.linalg.norm(w.matrix) * np.linalg.norm(planted))
        assert abs(abs(cosine) - 1.0) < 1e-8


class TestRank1Conjugates:
    """find_rank1 does not depend on the basis a conjugation gives the
    algebra: rank is conjugation invariant, so so and co stay without
    rank-one elements and lightlike_orth and span{v a^T} keep theirs."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rank_one_elements_found(self, n):
        rng = np.random.default_rng((31, n))
        g = random_well_conditioned(rng, n)
        rank1 = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        for h in (
            conjugate(builtin_algebra("lightlike_orth", n), g),
            conjugate(builtin_algebra("one_param", r_matrix=rank1), g),
        ):
            result = finite_type(h)
            assert isinstance(result, InfiniteType)
            assert_valid_witness(h, result.witness)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("name", ["so", "co"])
    def test_no_rank_one_element(self, name, n):
        g = random_well_conditioned(np.random.default_rng((37, n)), n)
        h = builtin_algebra(name, n)
        conj = conjugate(h, g)
        assert find_rank1(conj) is None
        result, expected = finite_type(conj), finite_type(h)
        assert isinstance(result, FiniteType)
        assert (result.order, result.dims) == (expected.order, expected.dims)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 2))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_rank_one_element(self, shape, seed):
        # span{v a^T, k random generators}: the planted element is the only
        # rank-one direction; with k near (n - 1)^2 alternating least
        # squares can need more than RANK1_MAX_SWEEPS sweeps, so k <= n - 2
        n, k = shape
        rng = np.random.default_rng(seed)
        gens = [np.outer(rng.standard_normal(n), rng.standard_normal(n))]
        gens += [rng.standard_normal((n, n)) for _ in range(k)]
        h = MatrixAlgebra(n, gens)
        assert_valid_witness(h, find_rank1(h))


def _sym_forms(n, degree):
    """Dimension of the symmetric degree-forms on R^n."""
    return math.comb(n + degree - 1, degree)


# kind, order and dims from the theory: so has finite
# type 1; co(n) finite type 2 with an n-dimensional first prolongation for
# n >= 3, while co(2) (holomorphic maps) keeps 2-dimensional prolongations;
# lightlike_orth holds x -> f(x) e_n, so it has infinite type and its order-d
# prolongation is every symmetric (d+1)-form times e_n; span{R} has finite
# type 1 when rank R >= 2 and infinite type with one-dimensional
# prolongations when rank R = 1; a generic 3-dimensional subspace of gl(4)
# has type 1.
_FINITE_TYPE_TABLE = [
    *[(("so", n), ("finite", 1, {1: 0})) for n in range(2, 7)],
    (("co", 2), ("unknown_beyond", None, {1: 2, 2: 2, 3: 2})),
    *[(("co", n), ("finite", 2, {1: n, 2: 0})) for n in range(3, 7)],
    *[
        (("lightlike_orth", n), ("infinite", None, {d: _sym_forms(n, d + 1) for d in (1, 2, 3)}))
        for n in range(2, 7)
    ],
    (("one_param-rank1", 4), ("infinite", None, {1: 1, 2: 1, 3: 1})),
    (("one_param-rank1", 5), ("infinite", None, {1: 1, 2: 1, 3: 1})),
    (("one_param-rank2", 3), ("finite", 1, {1: 0})),
    (("one_param-full-rank", 4), ("finite", 1, {1: 0})),
    (("custom-3gen", 4), ("finite", 1, {1: 0})),
]


def _table_algebra(name, n):
    if name == "one_param-rank1":
        v, a = np.arange(1.0, n + 1.0), np.array([1.0, -2.0, 0.0, 3.0, -1.0][:n])
        return builtin_algebra("one_param", r_matrix=np.outer(v, a))
    if name == "one_param-rank2":
        r = np.zeros((n, n))
        r[0, 1], r[1, 0] = 1.0, -1.0
        return builtin_algebra("one_param", r_matrix=r)
    if name == "one_param-full-rank":
        r = np.array([[6, 1, 0, -1], [0, 5, 1, 0], [-1, 0, 7, 1], [1, -1, 0, 8]], dtype=float)
        return builtin_algebra("one_param", r_matrix=r)
    if name == "custom-3gen":
        rng = np.random.default_rng(2024)
        gens = [np.round(rng.uniform(-1.0, 1.0, (4, 4)), 3) for _ in range(3)]
        return builtin_algebra("custom", generators=gens)
    return builtin_algebra(name, n)


class TestFiniteTypeTable:
    @pytest.mark.parametrize(
        "case,expected", _FINITE_TYPE_TABLE, ids=[f"{c[0]}-{c[1]}" for c, _ in _FINITE_TYPE_TABLE]
    )
    def test_pinned(self, case, expected, monkeypatch):
        h = _table_algebra(*case)
        kind, order, dims = expected
        if kind == "finite":
            # a vanishing order proves finite type, and a rank-one element
            # would keep every order nonzero, so the search never runs
            def refuse(*args, **kwargs):
                raise AssertionError("find_rank1 ran on a finite-type algebra")

            monkeypatch.setattr(prolongation, "find_rank1", refuse)
        result = finite_type(h)
        if kind == "infinite":
            assert isinstance(result, InfiniteType)
            assert result.dims == dims
            assert_valid_witness(h, result.witness)
            if case[0] == "lightlike_orth":
                # every rank-one element of lightlike_orth maps into e_n
                v = result.witness.v
                assert abs(v[-1]) > (1.0 - 1e-12) * np.linalg.norm(v)
        elif kind == "unknown_beyond":
            assert isinstance(result, UnknownBeyond)
            assert (result.max_order, result.dims) == (3, dims)
        else:
            assert isinstance(result, FiniteType)
            assert (result.order, result.dims) == (order, dims)


class TestWitnessProlongation:
    def test_formula_small(self):
        t = rank1_witness_prolongation([1.0, 0.0], [1.0, 0.0], 1)
        # L(x, y) = x_1 y_1 e_1, so L(e_1, e_1) = e_1 and L vanishes elsewhere
        full = t.unpack()
        assert full[0, 0].tolist() == [1.0, 0.0]
        assert np.count_nonzero(full) == 1

    def test_degree2_membership(self):
        t = rank1_witness_prolongation([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2)
        h = builtin_algebra("one_param", r_matrix=np.outer([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]))
        assert membership_residual(h, t) < 1e-12
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(np.einsum("abco,a,b,c->o", t.unpack(), x, x, x), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_direction_all_orders(self, rng, d):
        a = rng.standard_normal(3)
        v = rng.standard_normal(3)
        t = rank1_witness_prolongation(a, v, d)
        assert t.norm() > 0
        h = builtin_algebra("one_param", r_matrix=np.outer(v, a))
        assert membership_residual(h, t) < 1e-10 * max(1.0, t.norm())

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            rank1_witness_prolongation([0.0, 0.0], [1.0, 0.0], 1)
        with pytest.raises(ValueError):
            rank1_witness_prolongation([1.0, 0.0], [0.0, 0.0], 1)


class TestCurveStabilizer:
    def test_conformal_ray(self):
        samples = [(s * np.eye(3), np.eye(3)) for s in (0.5, 1.0, 2.0)]
        h = curve_stabilizer_algebra(samples)
        assert h.dim == 4
        # contains scalings and rotations
        assert h.projection_residual(np.eye(3)) < 1e-10
        rot = np.zeros((3, 3))
        rot[0, 1], rot[1, 0] = 1.0, -1.0
        assert h.projection_residual(rot) < 1e-10

    def test_axis_scaling_family(self):
        samples = [
            (np.diag([s, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])) for s in (0.5, 1.0, 2.0)
        ]
        h = curve_stabilizer_algebra(samples)
        assert h.dim == 2
        assert h.projection_residual(np.diag([1.0, 0.0, 0.0])) < 1e-10
        rot23 = np.zeros((3, 3))
        rot23[1, 2], rot23[2, 1] = -1.0, 1.0
        assert h.projection_residual(rot23) < 1e-10

    def test_single_sample_conformal_algebra(self, rng):
        b = np.eye(3) + 0.2 * rank1_matrix(rng, 3)
        b = (b + b.T) / 2.0 + 3.0 * np.eye(3)
        h = curve_stabilizer_algebra([(b, b)])
        assert h.dim == 3 * 2 // 2 + 1  # n(n-1)/2 + 1

    def test_empty_and_zero_tangent_rejected(self):
        with pytest.raises(ValueError):
            curve_stabilizer_algebra([])
        with pytest.raises(ValueError, match="zero"):
            curve_stabilizer_algebra([(np.eye(2), np.zeros((2, 2)))])


def dense_stabilizer_dim(samples):
    """Dimension of the X-projection of the kernel of the dense system
    ``X^T b_k + b_k X - lambda_k t_k = 0``, X[o, u] at column o n + u."""
    n, k = len(samples[0][0]), len(samples)
    blocks = []
    for s, (b, t) in enumerate(samples):
        block = np.zeros((n * n, n * n + k))
        for o, u in itertools.product(range(n), repeat=2):
            e = np.zeros((n, n))
            e[o, u] = 1.0
            block[:, o * n + u] = (e.T @ b + b @ e).ravel()
        block[:, n * n + s] = -t.ravel()
        blocks.append(block)
    _, svals, vt = np.linalg.svd(np.vstack(blocks))
    null = vt[np.sum(svals > 1e-10 * svals[0]) :]
    return np.linalg.matrix_rank(null[:, : n * n], tol=1e-8)


class TestCurveStabilizerPoints:
    """Each point b is refused unless symmetric to rounding, and then
    symmetrized, so X^T b + b X is the system solved."""

    def test_unsymmetric_point_refused(self):
        b = np.array([[2.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="point matrix of sample 1 is not symmetric"):
            curve_stabilizer_algebra([(np.eye(2), np.eye(2)), (b, np.eye(2))])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("conformal", [False, True])
    def test_rounded_forms_match_dense_oracle(self, rng, n, conformal):
        # q D q^T is symmetric only to rounding
        forms = [random_nondegenerate_form(rng, n) for _ in range(2)]
        if conformal:
            samples = [(b, b) for b in forms]
        else:
            t = rng.standard_normal((n, n))
            samples = [(forms[0], t + t.T)]
        h = curve_stabilizer_algebra(samples)
        assert h.dim == dense_stabilizer_dim(samples)
        for x in h.orthonormalized_basis:
            for b, t in samples:
                m = x.T @ b + b @ x
                residual = m - (np.vdot(m, t) / np.vdot(t, t)) * t
                assert np.max(np.abs(residual)) < 1e-10


def test_unknown_count_formula():
    assert prolongation_unknowns(3, 1) == 3 * 6
    assert prolongation_unknowns(4, 2) == 4 * 20
