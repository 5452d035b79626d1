"""Prolongation spaces of matrix Lie algebras and the finite-type dichotomy.

The order-d prolongation of a linear subspace h of End(R^n) is the space of
symmetric (d+1)-multilinear vector-valued maps A such that for every fixed
tuple (u_1, ..., u_d) the endomorphism ``u -> A(u, u_1, ..., u_d)`` lies in
h.  A one-parameter algebra span{R} has a vanishing first prolongation
exactly when rank(R) >= 2; when h contains a rank-one element
``x -> <a,x> v`` the explicit family

    L_d(x_1, ..., x_{d+1}) = <a,x_1> ... <a,x_{d+1}> v

gives a nonzero element at every order, so the type is infinite.

Each order is the kernel of one sparse linear system: every partial
evaluation of the unknown must be Frobenius-orthogonal to a basis of the
algebra's complement, read off a reduced row echelon form of the
generators in floats (:attr:`MatrixAlgebra.echelon_complement`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .braid import LinearSystem, _braid_rows, _entry_columns, _packed_rows, _rank_cut, solve_kernel
from .multilinear import (
    SPECTRAL_TOL,
    SymTensor,
    sym_index_count,
    _sym_index_array,
)

#: Hard cap on packed unknown counts for prolongation computations.
SIZE_CAP = 20_000

#: Orders beyond this are refused; every phenomenon of interest appears by 2.
MAX_ORDER_CAP = 5

#: sigma_2 / sigma_1 threshold below which a matrix counts as rank one.
RANK1_RATIO_TOL = 1e-8

#: Distance of a unit ``v a^T`` from the algebra at which a start converged.
RANK1_RESIDUAL_TOL = 1e-12

#: A sweep lowering the distance by less than this fraction stalls a start.
RANK1_STALL = 1e-3

#: Sweeps after which the alternating rank-one solve gives up.
RANK1_MAX_SWEEPS = 500


@dataclass(eq=False)
class MatrixAlgebra:
    """Linear subspace of n x n matrices given by a spanning list.

    The generators are orthonormalized (Frobenius inner product) at
    construction; closure under the matrix bracket is deliberately not
    enforced, since prolongation only needs the subspace.  Generators must
    be finite, and the sum of the squares of all their entries must not
    overflow.
    """

    n: int
    generators: list[np.ndarray]
    orthonormalized_basis: np.ndarray = field(init=False)
    _complement: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gens = [np.asarray(g, dtype=float) for g in self.generators]
        if not gens:
            raise ValueError("need at least one generator matrix")
        for k, g in enumerate(gens):
            if g.shape != (self.n, self.n):
                raise ValueError(
                    f"generator {k} has shape {g.shape}, expected ({self.n}, {self.n})"
                )
            if not np.isfinite(g).all():
                raise ValueError(f"generator {k} has a non-finite entry")
        self.generators = gens
        stacked = np.stack([g.ravel() for g in gens])
        with np.errstate(over="ignore"):
            squares = np.cumsum(np.einsum("ki,ki->k", stacked, stacked))
        if not np.isfinite(squares[-1]):
            k = int(np.argmax(~np.isfinite(squares)))
            raise ValueError(f"generator {k}: the generators' Frobenius norm overflows")
        _, svals, vt = np.linalg.svd(stacked, full_matrices=True)
        rank = int(np.sum(svals >= _rank_cut(svals, SPECTRAL_TOL)))
        if rank == 0:
            raise ValueError("generators span the zero subspace")
        self.orthonormalized_basis = vt[:rank].reshape(rank, self.n, self.n)
        self._complement = vt[rank:].reshape(-1, self.n, self.n)

    @property
    def dim(self) -> int:
        return self.orthonormalized_basis.shape[0]

    @cached_property
    def echelon_complement(self) -> np.ndarray:
        """Sparse (n^2 - dim, n, n) basis of the Frobenius complement of the
        algebra, computed once per algebra.

        The generators' rows are brought to reduced row echelon form with
        complete pivoting: each step pivots on the largest |entry| left in
        the unpivoted rows (the first on ties: lowest row, then column),
        scales the pivot to exactly 1 and clears its column in every other
        row.  Elimination stops after ``dim`` pivots, the numerical rank;
        the rows left over are rounding and are dropped.  Free column f
        gives ``e_f - sum_p R[p, f] e_{c_p}`` over the pivot rows p with
        pivot columns c_p, free columns ascending, so sparse rows give
        sparse vectors, and rows of 0 and +-1 entries or a single row give
        exact values.  Pivoting on the first nonzero entry instead let the
        coefficients reach about 1e17 on GL(n)-conjugated algebras, with
        wrong prolongation dimensions.
        """
        a = np.stack([g.ravel() for g in self.generators])
        unpivoted = np.ones(len(a), dtype=bool)
        pivot_rows, pivot_cols = [], []
        for count in range(self.dim):
            size = np.where(unpivoted[:, None], np.abs(a), 0.0)
            i, col = np.unravel_index(np.argmax(size), a.shape)  # the first maximum
            if size[i, col] == 0.0:
                raise ArithmeticError(f"the generators have rank {count} < {self.dim}")
            a[i] /= a[i, col]
            factor = a[:, col].copy()
            factor[i] = 0.0
            a -= factor[:, None] * a[i]
            unpivoted[i] = False
            pivot_rows.append(i)
            pivot_cols.append(col)
        free = np.delete(np.arange(a.shape[1]), pivot_cols)
        basis = np.zeros((free.size, a.shape[1]))
        basis[np.arange(free.size), free] = 1.0
        basis[:, pivot_cols] = 0.0 - a[pivot_rows][:, free].T  # no -0.0 entry
        return basis.reshape(-1, self.n, self.n)

    def element(self, coefficients) -> np.ndarray:
        """Linear combination of the orthonormalized basis; a (K, dim)
        stack of coefficients gives a (K, n, n) stack of elements."""
        c = np.asarray(coefficients, dtype=float)
        return np.tensordot(c, self.orthonormalized_basis, axes=([-1], [0]))

    def projection_residual(self, x: np.ndarray) -> float | np.ndarray:
        """Frobenius norm of the component of x orthogonal to the subspace;
        a (K, n, n) stack gives one norm per matrix."""
        x = np.asarray(x, dtype=float)
        coeffs = np.tensordot(x, self.orthonormalized_basis, axes=([-2, -1], [1, 2]))
        residual = np.linalg.norm(x - self.element(coeffs), axis=(-2, -1))
        return float(residual) if residual.ndim == 0 else residual


@dataclass
class ProlongationSpace:
    """Kernel of the order-d prolongation constraints of an algebra.

    ``dim`` comes from a solve without singular vectors; ``basis`` solves
    the system again for them on first use, on the same spectrum.  A thin
    SVD of a dense block (one dense rank-one generator couples the whole
    system) needs about three times the memory of its singular values
    alone, and callers that only count dimensions never pay it.
    """

    order: int
    dim: int
    algebra: MatrixAlgebra = field(repr=False, compare=False)
    tol: float = SPECTRAL_TOL

    @cached_property
    def basis(self) -> list[SymTensor]:
        """Orthonormal kernel basis as packed symmetric (d+1)-tensors."""
        system = prolongation_system(self.algebra, self.order)
        report = solve_kernel(system, tol=self.tol, want_basis=True)
        if report.kernel_dim != self.dim:
            raise ArithmeticError(
                f"order-{self.order} prolongation has dimension {self.dim}, but "
                f"{report.kernel_dim} when solved again for its basis"
            )
        n, degree = self.algebra.n, self.order + 1
        p = sym_index_count(n, degree)
        return [
            SymTensor(n=n, degree=degree, coeffs=vec.reshape(p, n))
            for vec in report.kernel_basis
        ]


@dataclass
class Rank1Witness:
    """A rank-one element of a matrix subspace with its dyadic factorization.

    ``matrix`` is (numerically) ``v a^T``, i.e. the map ``x -> <a,x> v``, and
    ``sigma_ratio`` is sigma_2/sigma_1 of the witness.
    """

    matrix: np.ndarray
    a: np.ndarray
    v: np.ndarray
    sigma_ratio: float
    coefficients: np.ndarray


@dataclass
class FiniteType:
    """The least order at which the prolongation space vanishes."""

    order: int
    dims: dict[int, int]


@dataclass
class InfiniteType:
    """A rank-one element, whose witness family is nonzero at every order,
    with the prolongation dimensions solved before it was searched for."""

    witness: Rank1Witness
    dims: dict[int, int]


@dataclass
class UnknownBeyond:
    max_order: int
    dims: dict[int, int]


def prolongation_unknowns(n: int, d: int) -> int:
    return n * math.comb(n + d, d + 1)


def check_max_order(n: int, max_order: int) -> None:
    """Refuse a ``max_order`` outside 1..``MAX_ORDER_CAP``, then (unknowns
    grow with the order) an order-``max_order`` system above ``SIZE_CAP``."""
    if max_order < 1 or max_order > MAX_ORDER_CAP:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER_CAP}, got {max_order}")
    _check_size(n, max_order)


def _check_size(n: int, d: int) -> None:
    """Refuse an order-d prolongation over n directions above ``SIZE_CAP``."""
    unknowns = prolongation_unknowns(n, d)
    if unknowns > SIZE_CAP:
        raise ValueError(
            f"prolongation order {d} would have {unknowns} unknowns "
            f"(cap {SIZE_CAP}); reduce n or the order"
        )


def prolongation_system(h: MatrixAlgebra, d: int) -> LinearSystem:
    """Membership constraints on a packed symmetric degree-(d+1) unknown.

    For each symmetric d-tuple of basis vectors, the partial evaluation
    matrix must have zero Frobenius component along every vector of the
    algebra's sparse complement basis (``h.echelon_complement``), so the
    system splits into many small blocks for sparse generators.
    """
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    _check_size(h.n, d)
    # row (tup, q): <X_tup, Q>_F = sum_{out,u} Q[out,u] A[sort(u,tup), out]
    return _packed_rows(h.echelon_complement, d + 1)


def prolongation_space(
    h: MatrixAlgebra, d: int, tol: float = SPECTRAL_TOL
) -> ProlongationSpace:
    """The order-d prolongation space: its dimension now, its basis of
    packed symmetric tensors on first use."""
    report = solve_kernel(prolongation_system(h, d), tol=tol)
    return ProlongationSpace(order=d, dim=report.kernel_dim, algebra=h, tol=tol)


def membership_residual(h: MatrixAlgebra, t: SymTensor) -> float:
    """Worst Frobenius projection residual of the partial evaluations of t."""
    # X_s[out, u] = T(sort(s + (u,)))_out for every symmetric index s
    x = t.coeffs[_entry_columns(h.n, t.degree, 1, False)].transpose(0, 2, 1)
    return float(np.max(h.projection_residual(x)))


def find_rank1(h: MatrixAlgebra) -> Rank1Witness | None:
    """Search the subspace for a rank-one element.

    An orthonormalized basis element whose sigma_2/sigma_1 is below
    ``RANK1_RATIO_TOL`` is the witness itself: the first such element is
    returned, and nothing is searched.  Otherwise alternating solves over
    the factors of ``v a^T`` (see :func:`_alternating_rank1`) start from the
    right singular vectors of the basis elements, so the search is
    deterministic and needs no random draws.  Solve k starts from the k-th
    singular vector of every element whose rank (by ``SPECTRAL_TOL``)
    exceeds k, in basis order, leading vectors first: a kernel has no
    singular vectors of its own, only the basis LAPACK picks.  Each result
    is projected onto the algebra, which on a line gives back the basis
    element, and the projection with the least sigma_2/sigma_1 is the
    witness if that ratio is below ``RANK1_RATIO_TOL``.  The first solve
    with a witness ends the search, so no solve advances more than ``dim``
    starts.  A witness is signed so that its largest entry is positive.
    Returning None is a heuristic negative, not a proof of absence.
    """
    _, svals, vt = np.linalg.svd(h.orthonormalized_basis)
    rank1 = np.flatnonzero(_sigma_ratios(svals) < RANK1_RATIO_TOL)
    if rank1.size:
        witness = _make_witness(h, np.eye(h.dim)[rank1[0]])
        if witness.sigma_ratio < RANK1_RATIO_TOL:
            return witness
    # each element is a unit matrix, so svals[:, 0] > 0
    row_space = svals >= SPECTRAL_TOL * svals[:, :1]
    for k in range(row_space.sum(axis=1).max()):
        v, a = _alternating_rank1(h._complement, vt[row_space[:, k], k])
        # project each v a^T onto the algebra; a zero projection scores 1
        coefficients = np.tensordot(
            v[:, :, None] * a[:, None, :], h.orthonormalized_basis, axes=([1, 2], [1, 2])
        )
        norms = np.linalg.norm(coefficients, axis=1, keepdims=True)
        coefficients /= np.where(norms > 0.0, norms, 1.0)
        svals = np.linalg.svd(h.element(coefficients), compute_uv=False)
        witness = _make_witness(
            h, coefficients[np.argsort(_sigma_ratios(svals), kind="stable")[0]]
        )
        if witness.sigma_ratio < RANK1_RATIO_TOL:
            return witness
    return None


def _alternating_rank1(
    complement: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating least squares for ``v^T Q_q a = 0`` over unit v and a,
    from one start covector per row of ``a`` (any nonzero length).

    ``complement`` holds the orthonormal Q_q spanning the complement of the
    algebra, so ``sqrt(sum_q (v^T Q_q a)^2)`` is the distance of the unit
    matrix ``v a^T`` from the algebra.  All starts advance together: with
    a fixed, v is the last right singular vector of the rows ``(Q_q a)^T``;
    with v fixed, a that of the rows ``(Q_q^T v)^T``.  A start stops when
    its residual falls below ``RANK1_RESIDUAL_TOL``, when a sweep lowers it
    by less than the fraction ``RANK1_STALL``, or after ``RANK1_MAX_SWEEPS``
    sweeps; the solve ends as soon as one start has converged, since one
    rank-one element suffices.
    """
    # a @ by_row holds the rows (Q_q a)^T, v @ by_column the rows (Q_q^T v)^T
    n = a.shape[1]
    by_row = complement.reshape(-1, n).T
    by_column = complement.transpose(1, 0, 2).reshape(n, -1)
    v = np.empty_like(a)
    residual = np.full(len(a), np.inf)
    active = np.arange(len(a))
    for _ in range(RANK1_MAX_SWEEPS):
        v[active], _ = _null_direction((a[active] @ by_row).reshape(active.size, -1, n))
        a[active], r = _null_direction((v[active] @ by_column).reshape(active.size, -1, n))
        stalled = r > (1.0 - RANK1_STALL) * residual[active]
        residual[active] = r
        if np.any(r < RANK1_RESIDUAL_TOL):
            break
        active = active[~stalled]
        if not active.size:
            break
    return v, a


def _null_direction(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit x minimizing ``|m_s x|`` for each matrix of a (S, c, n) stack,
    with the minimum (0 when c < n leaves a null space)."""
    if m.shape[1] < m.shape[2]:
        return np.linalg.svd(m)[2][:, -1, :], np.zeros(len(m))
    # the (n, n) R of m = QR has m's singular values and right singular
    # vectors, and its SVD forms no (S, c, n) stack of left vectors
    _, svals, vt = np.linalg.svd(np.linalg.qr(m, mode="r"))
    return vt[:, -1, :], svals[:, -1]


def _sigma_ratios(svals: np.ndarray) -> np.ndarray:
    """sigma_2/sigma_1 from each row of a (K, n) stack of singular values:
    1 for a zero matrix, 0 for n == 1."""
    if svals.shape[1] < 2:
        return np.where(svals[:, 0] == 0.0, 1.0, 0.0)
    top = svals[:, 0]
    return np.where(top == 0.0, 1.0, svals[:, 1] / np.where(top == 0.0, 1.0, top))


def _make_witness(h: MatrixAlgebra, coefficients: np.ndarray) -> Rank1Witness:
    """The witness of an element, signed so that its largest |entry| (the
    first on ties) is positive, since the sign of ``v a^T`` is arbitrary."""
    w = h.element(coefficients)
    if w.flat[np.argmax(np.abs(w))] < 0.0:
        coefficients, w = -coefficients, -w
    u, svals, vt = np.linalg.svd(w)
    # the SVD's sign is arbitrary: make a's largest |entry| (first on ties) positive
    sign = np.sign(vt[0, np.argmax(np.abs(vt[0]))])
    a = sign * vt[0]
    v = sign * svals[0] * u[:, 0]
    return Rank1Witness(
        matrix=np.outer(v, a),
        a=a,
        v=v,
        # w has unit norm, so svals[0] > 0
        sigma_ratio=float(svals[1] / svals[0]) if h.n > 1 else 0.0,
        coefficients=np.asarray(coefficients),
    )


def rank1_witness_prolongation(a, v, d: int) -> SymTensor:
    """The explicit order-d prolongation of the rank-one map ``x -> <a,x> v``.

    Packed coefficients are ``prod_k a[i_k] * v``; the result is symmetric,
    nonzero, and its partial evaluations all lie in span{v a^T}.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("covector a must be nonzero")
    if np.linalg.norm(v) == 0.0:
        raise ValueError("vector v must be nonzero")
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    n = a.shape[0]
    prod = np.ones(sym_index_count(n, d + 1))
    for axis in _sym_index_array(n, d + 1).T:  # one slot at a time, left to right
        prod = prod * a[axis]
    return SymTensor(n=n, degree=d + 1, coeffs=prod[:, None] * v)


def finite_type(
    h: MatrixAlgebra,
    max_order: int = 3,
    tol: float = SPECTRAL_TOL,
) -> FiniteType | InfiniteType | UnknownBeyond:
    """Determine the type of an algebra up to ``max_order``.

    Prolongation spaces are solved order by order first.  At the first
    vanishing order the type is finite: that order is returned with
    ``dims`` listing the orders solved, and every order above it is 0 by
    heredity, since g^(d) = 0 forces g^(k) = 0 for all k > d.  A finite type
    never runs the rank-one search, since a rank-one element ``v a^T`` would
    give the nonzero ``<a,x>^(d+1) v`` at every order.  Only when no order
    up to ``max_order`` vanishes does the heuristic search
    :func:`find_rank1` run: a rank-one element certifies infinite type
    through its explicit witness family, and otherwise the type is unknown
    beyond ``max_order``.  An algebra whose order-``max_order`` system
    exceeds ``SIZE_CAP`` unknowns is refused before any solve.
    """
    check_max_order(h.n, max_order)
    dims: dict[int, int] = {}
    for d in range(1, max_order + 1):
        dims[d] = prolongation_space(h, d, tol=tol).dim
        if dims[d] == 0:
            return FiniteType(order=d, dims=dims)
    witness = find_rank1(h)
    if witness is not None:
        return InfiniteType(witness=witness, dims=dims)
    return UnknownBeyond(max_order=max_order, dims=dims)


def curve_stabilizer_algebra(samples: list[tuple[np.ndarray, np.ndarray]]) -> MatrixAlgebra:
    """Matrices X with ``X^T b_k + b_k X`` proportional to t_k at every sample.

    Each sample is a pair (b_k, t_k) of a point on a curve of symmetric
    positive forms and a nonzero symmetric tangent there.  A point farther
    from symmetric than ``1e-12`` times its largest entry is refused; the
    others are symmetrized.  The joint
    homogeneous system in (X, lambda_1, ..., lambda_K) stacks one
    :func:`_braid_rows` system per sample; it is solved and the
    X-projection of its kernel is returned as an algebra, whose rank
    :class:`MatrixAlgebra` cuts at ``SPECTRAL_TOL``.
    """
    if not samples:
        raise ValueError("need at least one (point, tangent) sample")
    n = np.asarray(samples[0][0]).shape[0]
    k = len(samples)
    npairs = sym_index_count(n, 2)
    labels = [("X", (o, u), None) for u in range(n) for o in range(n)]
    labels += [("lambda", (s,), None) for s in range(k)]
    row_ids, col_ids, values = [], [], []
    for s, (b, t) in enumerate(samples):
        b = np.asarray(b, dtype=float)
        t = np.asarray(t, dtype=float)
        if b.shape != (n, n) or t.shape != (n, n):
            raise ValueError("all samples must be n x n matrices of equal size")
        if np.max(np.abs(t)) == 0.0:
            raise ValueError(f"tangent matrix of sample {s} is zero")
        # _braid_rows reads b's columns only, which give X^T b + b X for a symmetric b
        if np.max(np.abs(b - b.T)) > 1e-12 * np.max(np.abs(b)):
            raise ValueError(f"point matrix of sample {s} is not symmetric")
        # (X^T b + b X)_{ij} - lambda_s t_{ij} = 0, X[o, u] at column u n + o;
        # rows s * npairs onward, lambda_s moved to n^2 + s
        rows = _braid_rows((b + b.T) / 2.0, 1, -t)
        row_ids.append(s * npairs + rows.row_ids)
        col_ids.append(np.where(rows.col_ids == n * n, n * n + s, rows.col_ids))
        values.append(rows.values)
    system = LinearSystem(
        labels,
        k * npairs,
        np.concatenate(row_ids),
        np.concatenate(col_ids),
        np.concatenate(values),
    )
    report = solve_kernel(system, want_basis=True)
    if report.kernel_dim == 0:
        raise ValueError("stabilizer system has trivial kernel; no algebra to return")
    return MatrixAlgebra(n, list(report.kernel_basis[:, : n * n].reshape(-1, n, n).mT))


def _antisym_basis(n: int) -> list[np.ndarray]:
    """The basis E_ij - E_ji (i < j) of so(n), empty at n = 1."""
    i, j = np.triu_indices(n, 1)
    basis = np.zeros((len(i), n, n))
    basis[np.arange(len(i)), i, j] = 1.0
    basis[np.arange(len(i)), j, i] = -1.0
    return list(basis)


def _lightlike_orth(n: int) -> MatrixAlgebra:
    """X^T G + G X = 0 for G = diag(1, ..., 1, 0): with X = [[A, b], [c^T, d]]
    it reads A^T + A = 0 and b = 0, so so(n - 1) padded by a zero last row
    and column, then the n matrix units of the last row, are a basis."""
    if n < 2:
        raise ValueError("lightlike orthogonal algebra needs n >= 2")
    so = [np.pad(x, ((0, 1), (0, 1))) for x in _antisym_basis(n - 1)]
    return MatrixAlgebra(n, so + list(np.eye(n * n)[-n:].reshape(n, n, n)))


def _so(n: int) -> MatrixAlgebra:
    if n == 1:  # the only antisymmetric 1 x 1 matrix is 0
        raise ValueError("so(1) is the zero algebra")
    return MatrixAlgebra(n, _antisym_basis(n))


@dataclass(frozen=True)
class _Algebra:
    """A catalog entry: its ``examples list`` line, and the one input
    (``n``, ``R`` or ``generators``, as the CLI flag) that ``build`` takes."""

    description: str
    reads: str
    build: Callable[..., MatrixAlgebra]


ALGEBRAS = {
    "so": _Algebra(
        "antisymmetric matrices; first prolongation vanishes (finite type 1)", "n", _so
    ),
    "co": _Algebra(
        "scalings plus rotations; n-dimensional first prolongation, type 2 for n >= 3",
        "n", lambda n: MatrixAlgebra(n, [np.eye(n)] + _antisym_basis(n)),
    ),
    "lightlike_orth": _Algebra(
        "matrices annihilating diag(1,...,1,0); contains rank-one elements, infinite type",
        "n", _lightlike_orth,
    ),
    "one_param": _Algebra(
        "span of a single matrix R; finite type exactly when rank(R) >= 2",
        "R", lambda r: MatrixAlgebra(len(r), [r]),
    ),
    "custom": _Algebra(
        "span of user-supplied generator matrices",
        "generators", lambda gens: MatrixAlgebra(len(gens[0]), gens),
    ),
}


def builtin_algebra(
    name: str, n: int | None = None, r_matrix: np.ndarray | None = None,
    generators: list[np.ndarray] | None = None,
) -> MatrixAlgebra:
    """The algebra ``name`` of :data:`ALGEBRAS`, built from the one input its
    entry reads: the dimension ``n``, ``r_matrix`` or the ``generators``."""
    spec = ALGEBRAS.get(name)
    if spec is None:
        raise ValueError(f"unknown algebra name '{name}'")
    if spec.reads == "R":
        if r_matrix is None:
            raise ValueError(f"{name} algebra needs the matrix R")
        return spec.build(r_matrix)
    if spec.reads == "generators":
        if generators is None or len(generators) == 0:
            raise ValueError(f"{name} algebra needs generator matrices")
        return spec.build(generators)
    if n is None:
        raise ValueError(f"algebra '{name}' needs a dimension n")
    if n < 1:
        raise ValueError(f"algebra '{name}' needs n >= 1, got {n}")
    return spec.build(n)
