"""Braid-type homogeneous linear systems and their numerically certified kernels.

Two classical statements are realized as explicit linear systems over packed
multilinear unknowns:

* the braid identity for a bilinear vector-valued A over a nondegenerate
  form J, ``J(A(u,v),w) + J(A(u,w),v) = 0``, whose only solution is A = 0;
* its generalized version for a symmetric trilinear vector-valued A coupled
  to a symmetric bilinear scalar unknown K,

      J(A(u,v,w), w') + J(A(u,v,w'), w) + K(u,v) * Jp(w,w') = 0,

  which again forces (A, K) = 0 whenever J and Jp are nondegenerate and the
  dimension is at least 3.  Note the sign convention: K enters on the same
  side as the A-terms, so kernel elements satisfy
  ``J(A(u,v,w),w') + J(A(u,v,w'),w) = -K(u,v) * Jp(w,w')``.

Kernels are computed block by block: a system splits into the connected
components of its row/column nonzero pattern (many independent blocks for
diagonal forms), the components of one shape share one batched singular
value decomposition, and every block's rank is cut with one relative
tolerance against the largest singular value of the whole system.  Every
rank decision is reported together with the merged spectrum and the gap
ratio that justifies it.

A congruence ``P^T(.)P`` of the forms, complex ones included, leaves the
kernel dimension and both projection dimensions unchanged, since rank does
not change over C.  A pair that is not already diagonal is therefore first
solved in its normal form: ``(I, diag lambda)`` for the generalized system
(complex rows when the pencil has complex eigenvalues) and ``diag(sign e)``
for the classical one, both of which split into many small blocks.  That
answer is kept only when it is ``rigid`` and the congruence is well
conditioned; every other case, and every kernel basis, comes from the
system of the forms as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .multilinear import (
    SPECTRAL_TOL,
    BilinForm,
    sym_index_count,
    _packed_index,
    _sym_index_array,
    _sym_indices,
)

#: Verdicts are downgraded to "indeterminate" when the singular-value gap
#: ratio at the rank cut falls below this factor.
GAP_VERDICT_THRESHOLD = 1e3

#: A pencil normal form decides a verdict only when its congruence P has
#: condition number at most this, and P^T J P, P^T Jp P match the normal
#: form to this relative residual; otherwise the forms are solved as given.
PENCIL_CONDITION_CAP = 1e3
PENCIL_RESIDUAL_CAP = 1e-9

#: Hard cap on the unknowns of a braid system, checked before it is built.
UNKNOWN_CAP = 500_000


@dataclass
class LinearSystem:
    """A homogeneous linear system in labeled packed unknowns, held as its
    nonzero entries.

    ``unknown_labels[j]`` names column j as a tuple
    ``(tensor_name, sym_index, output_axis_or_None)``.  Entry k of the
    system is ``values[k]`` at row ``row_ids[k]`` and column
    ``col_ids[k]``; the values are real, or complex for the system of a
    complex congruence normal form.  The system has ``equations`` rows, a
    row with no entry being the zero constraint, and its right-hand side
    is identically zero.  The constructor drops exact zeros; no (row,
    column) pair may repeat, which every assembler guarantees (an entry
    would overwrite, not add to, another at its place).  ``blocks`` maps
    the names of contiguous unknown blocks to their column slices when the
    assembler knows them (see :func:`_packed_rows`); with two or more of
    them :func:`solve_kernel` reports the kernel's projection onto each.
    """

    unknown_labels: list[tuple]
    equations: int
    row_ids: np.ndarray
    col_ids: np.ndarray
    values: np.ndarray
    blocks: dict[str, slice] = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values)
        values = values if np.iscomplexobj(values) else values.astype(float, copy=False)
        row_ids = np.asarray(self.row_ids, dtype=np.intp)
        col_ids = np.asarray(self.col_ids, dtype=np.intp)
        if not values.ndim == row_ids.ndim == col_ids.ndim == 1 or not (
            values.size == row_ids.size == col_ids.size
        ):
            raise ValueError("row ids, column ids and values must be equally long 1-d arrays")
        if values.size and not (
            0 <= row_ids.min() and row_ids.max() < self.equations
            and 0 <= col_ids.min() and col_ids.max() < len(self.unknown_labels)
        ):
            raise ValueError(
                f"an entry lies outside the {self.equations} x "
                f"{len(self.unknown_labels)} system"
            )
        if not values.all():
            nonzero = values != 0
            row_ids, col_ids, values = row_ids[nonzero], col_ids[nonzero], values[nonzero]
        self.row_ids, self.col_ids, self.values = row_ids, col_ids, values

    @property
    def unknowns(self) -> int:
        return len(self.unknown_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.equations, self.unknowns

    @property
    def rows(self) -> np.ndarray:
        """The dense row matrix, built on each access; for tests and the
        dense oracle only, never for a solve."""
        rows = np.zeros(self.shape, dtype=self.values.dtype)
        rows[self.row_ids, self.col_ids] = self.values
        return rows

    def residual(self, vector: np.ndarray) -> float:
        """Max row residual of a candidate kernel vector."""
        terms = self.values * np.asarray(vector)[self.col_ids]
        sums = np.zeros(self.equations, dtype=terms.dtype)
        np.add.at(sums, self.row_ids, terms)
        return float(np.max(np.abs(sums), initial=0.0))

    def coefficient_scale(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))


@dataclass
class KernelReport:
    """Numerically certified kernel of a homogeneous linear system.

    ``singular_values`` merges the values-only spectra of the system's
    independent blocks in descending order, padded with exact zeros to
    ``min(equations, unknowns)`` entries.  ``kernel_dim`` counts the
    singular values below ``tol * sigma_max`` (sigma_max of the whole
    system) plus the columns beyond the row rank; ``gap_ratio`` measures
    how clear the rank cut is (last kept singular value over first dropped
    one, ``inf`` when that one is an exact zero, or over the threshold when
    nothing is dropped).  The verdict is ``rigid`` for a zero kernel,
    ``non_rigid`` otherwise, and ``indeterminate`` whenever the gap ratio
    is below 10^3.  ``kernel_basis`` rows are orthonormal: each block's
    null right singular vectors in its own columns, blocks in the order of
    their first column, and a unit vector for a column no row touches.

    ``pencil`` is set when a congruence normal form of the forms decided
    the verdict (always ``rigid``): its ``eigenvalues`` as ``[re, im]``
    pairs, the ``transform_condition`` of the congruence and its relative
    ``residual``.  The spectrum and gap ratio are then those of the
    normal-form system.
    """

    unknowns: int
    equations: int
    singular_values: np.ndarray
    kernel_dim: int
    tol: float
    gap_ratio: float
    verdict: str
    kernel_basis: np.ndarray | None = None
    split: dict[str, int] | None = None
    unknown_labels: list[tuple] = field(default_factory=list)
    pencil: dict | None = None


def solve_kernel(
    system: LinearSystem, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Block-structured SVD kernel of a homogeneous system with an explicit
    gap-ratio check.

    The system splits into the connected components of its row/column
    nonzero pattern; the components of one shape go through one batched
    values-only SVD, and every block's rank is cut against the largest
    singular value of the whole system.  The basis and the split read the
    right singular vectors of a second SVD of only the blocks with a kernel.

    When ``system.blocks`` names two or more blocks, the report also
    carries the dimension of the kernel's projection onto each block.
    """
    m, ncols = system.shape
    comps = _components(system)
    solved = []  # (component ids, their columns, their spectra, their V^T or None)
    for g, ids in enumerate(comps.groups):
        c = int(comps.col_count[ids[0]])
        cols = comps.col_order[comps.col_start[ids, None] + np.arange(c)]
        solved.append((ids, cols, np.linalg.svd(comps.stack(g), compute_uv=False), None))

    spectra = np.concatenate([s.ravel() for _, _, s, _ in solved] + [np.zeros(0)])
    cut = _rank_cut(spectra, tol)
    # the structural zeros beyond the blocks' spectra are exact
    svals = np.zeros(min(m, ncols))
    svals[: spectra.size] = np.sort(spectra)[::-1]
    rank = int(np.sum(spectra >= cut))
    kernel_dim = ncols - rank
    gap_ratio = _gap_ratio(svals, rank, tol)

    want_split = len(system.blocks) > 1
    basis = None
    if want_basis or want_split:
        # V^T of only the blocks with a kernel: a wide block needs its full V
        # for the null rows (a (0, 1) block's V^T is [[1]]), a tall one never
        # needs the full U
        for g, (ids, cols, block_svals, _) in enumerate(solved):
            null = np.sum(block_svals >= cut, axis=1) < cols.shape[1]
            if null.any():
                stack = comps.stack(g)[null]
                vt = np.linalg.svd(stack, full_matrices=stack.shape[1] < stack.shape[2])[2]
                solved[g] = (ids[null], cols[null], block_svals[null], vt)
        basis = _kernel_basis(solved, comps.col_count.size, ncols, cut, system.values.dtype)

    split = None
    if want_split:
        split = {}
        for name, block in system.blocks.items():
            sub = basis[:, block]
            sub_svals = np.linalg.svd(sub, compute_uv=False) if sub.size else np.zeros(0)
            split[name] = int(np.sum(sub_svals >= _rank_cut(sub_svals, tol)))

    if gap_ratio < GAP_VERDICT_THRESHOLD:
        verdict = "indeterminate"
    else:
        verdict = "rigid" if kernel_dim == 0 else "non_rigid"
    return KernelReport(
        unknowns=ncols,
        equations=m,
        singular_values=svals,
        kernel_dim=kernel_dim,
        tol=tol,
        gap_ratio=gap_ratio,
        verdict=verdict,
        kernel_basis=basis if want_basis else None,
        split=split,
        unknown_labels=list(system.unknown_labels),
    )


def _rank_cut(svals: np.ndarray, tol: float) -> float:
    """The package's one rank rule: a spectrum's rank counts its singular
    values ``>= tol * max``, and is 0 when the spectrum is all zero (the
    cut is then infinite)."""
    smax = float(svals.max(initial=0.0))
    return tol * smax if smax > 0.0 else np.inf


@dataclass(frozen=True)
class _Components:
    """Connected components of a system's row/column nonzero pattern.

    Components are numbered in the order of their first column.  A column
    no row touches is a component of its own with no rows; a row with no
    entry belongs to no component.  ``col_order`` lists the columns of
    component 0, then of component 1, and so on, each in ascending order,
    starting at ``col_start``.  ``groups`` lists the component ids of one
    (rows, columns) shape, shapes ascending and ids ascending within.
    Group g's entries are ``entry_value[entry_start[g]:entry_start[g + 1]]``
    at the places ``entry_at`` of the same slice in its flattened (k, r, c)
    stack, rows and columns of each block in ascending order.
    """

    row_count: np.ndarray
    col_order: np.ndarray
    col_start: np.ndarray
    col_count: np.ndarray
    groups: list[np.ndarray]
    entry_start: np.ndarray
    entry_at: np.ndarray
    entry_value: np.ndarray

    def stack(self, g: int) -> np.ndarray:
        """The dense (k, r, c) stack of the blocks of group g."""
        ids = self.groups[g]
        shape = (len(ids), int(self.row_count[ids[0]]), int(self.col_count[ids[0]]))
        stack = np.zeros(shape[0] * shape[1] * shape[2], dtype=self.entry_value.dtype)
        at = slice(self.entry_start[g], self.entry_start[g + 1])
        stack[self.entry_at[at]] = self.entry_value[at]
        return stack.reshape(shape)


def _components(system: LinearSystem) -> _Components:
    """Label the components of the bipartite row/column graph of ``system``.

    Nodes are the rows (0..m-1) and the columns (m..m+n-1), and every
    entry is an edge.  Each sweep hooks the larger of two adjacent roots
    onto the smaller, then jumps pointers until every node points at its
    root; a sweep is O(nnz + m + n).  The entries are then ordered by
    shape group and placed in their blocks.
    """
    m, n = system.shape
    ri, ci = system.row_ids, system.col_ids + m
    parent = np.arange(m + n)
    while True:
        pr, pc = parent[ri], parent[ci]
        differ = pr != pc
        if not differ.any():
            break
        np.minimum.at(parent, np.maximum(pr, pc)[differ], np.minimum(pr, pc)[differ])
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    col_root = parent[m:]
    roots, first = np.unique(col_root, return_index=True)
    count = roots.size
    comp_of = np.full(m + n, -1)
    comp_of[roots[np.argsort(first)]] = np.arange(count)
    col_comp = comp_of[col_root]
    row_comp = comp_of[parent[:m]]
    live = np.flatnonzero(row_comp >= 0)
    row_count = np.bincount(row_comp[live], minlength=count)
    col_count = np.bincount(col_comp, minlength=count)
    col_order = col_comp.argsort(kind="stable")
    col_start = col_count.cumsum() - col_count
    # components in group order: by shape, then by id
    key = row_count * (col_count.max(initial=0) + 1) + col_count
    order = key.argsort(kind="stable")
    cuts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    bounds = [0, *cuts, count] if count else [0]
    groups = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    # each row's and column's place inside its block
    local = np.empty(m + n, dtype=np.intp)
    row_order = live[row_comp[live].argsort(kind="stable")]
    row_start = row_count.cumsum() - row_count
    local[row_order] = np.arange(live.size) - row_start.repeat(row_count)
    local[m + col_order] = np.arange(n) - col_start.repeat(col_count)
    # each component's place in group order, and in its group's stack
    rank, slot = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    slot[order] = np.arange(count) - np.repeat(bounds[:-1], np.diff(bounds))
    entry_rank = rank[col_comp[system.col_ids]]
    by_group = entry_rank.argsort(kind="stable")
    entry_rank, ri, ci = entry_rank[by_group], ri[by_group], ci[by_group]
    entry_comp = order[entry_rank]
    entry_at = (slot * row_count)[entry_comp] + local[ri]
    entry_at = entry_at * col_count[entry_comp] + local[ci]
    entry_value = system.values[by_group]
    entry_start = np.searchsorted(entry_rank, bounds)
    return _Components(
        row_count=row_count,
        col_order=col_order,
        col_start=col_start,
        col_count=col_count,
        groups=groups,
        entry_start=entry_start,
        entry_at=entry_at,
        entry_value=entry_value,
    )


def _kernel_basis(solved: list, count: int, ncols: int, cut: float, dtype) -> np.ndarray:
    """Orthonormal kernel rows of ``dtype``: each component's V^T rows below
    ``cut``, embedded in its columns, components in order."""
    kept = np.zeros(count, dtype=np.intp)
    nulls = np.zeros(count, dtype=np.intp)
    for ids, cols, svals, _ in solved:
        kept[ids] = np.sum(svals >= cut, axis=1)
        nulls[ids] = cols.shape[1] - kept[ids]
    offset = np.cumsum(nulls) - nulls
    basis = np.zeros((int(nulls.sum()), ncols), dtype=dtype)
    for ids, cols, _, vt in solved:
        # a sorted set, not np.unique: np.unique without return_index
        # imports numpy.ma (about 19 ms) on its first call in a process
        for rank in sorted(set(kept[ids].tolist())):
            sel = kept[ids] == rank
            dim = cols.shape[1] - rank
            if dim == 0:
                continue
            at = offset[ids[sel], None] + np.arange(dim)
            basis[at[:, :, None], cols[sel, None, :]] = vt[sel, rank:, :]
    return basis


def _gap_ratio(svals: np.ndarray, rank: int, tol: float) -> float:
    if svals.size == 0 or svals[0] == 0.0 or rank == 0:
        return float("inf")
    if rank == svals.size:
        # nothing was dropped; report the margin of the smallest kept value
        # above the threshold
        return float(svals[-1] / (tol * svals[0]))
    dropped = svals[rank]
    if dropped == 0.0:
        return float("inf")
    return float(svals[rank - 1] / dropped)


def _as_form(j, n: int | None = None) -> BilinForm:
    if isinstance(j, BilinForm):
        return j
    form = BilinForm(j)  # refuses non-finite entries
    if form.n < 1:
        raise ValueError(f"form has dimension {form.n}, need at least 1")
    if n is not None and form.n != n:
        raise ValueError(f"form has dimension {form.n}, expected {n}")
    return form


def check_unknowns(variant: str, n: int) -> None:
    """Refuse a ``variant`` system in dimension n above ``UNKNOWN_CAP``
    unknowns: n C(n+2,3) + C(n+1,2) (generalized), n C(n+1,2) (classical)
    or n^4 (symskew).  An n below 1 is left to the builders to refuse."""
    if n < 1:
        return
    unknowns = {
        "generalized": n * sym_index_count(n, 3) + sym_index_count(n, 2),
        "classical": n * sym_index_count(n, 2),
        "symskew": n**4,
    }[variant]
    if unknowns > UNKNOWN_CAP:
        raise ValueError(
            f"the {variant} braid system at n = {n} would have {unknowns} unknowns "
            f"(cap {UNKNOWN_CAP}); reduce n"
        )


def classical_braid_kernel(
    j, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of ``J(A(u,v),w) + J(A(u,w),v) = 0`` over symmetric bilinear A.

    J must be nondegenerate (any signature); the kernel dimension is then 0
    in every dimension, which is the linearized form of 1-rigidity of
    pseudo-Riemannian metrics.
    """
    form = _as_form(j)
    check_unknowns("classical", form.n)
    if not form.nondegenerate:
        raise ValueError(
            f"form is degenerate: {form.zero_count} zero eigenvalue(s) "
            f"(signature {form.signature})"
        )
    report = _normal_form_kernel(form, None, tol, want_basis)
    if report is None:
        report = solve_kernel(classical_braid_system(form), tol=tol, want_basis=want_basis)
    return report


def classical_braid_system(j: BilinForm) -> LinearSystem:
    return _braid_rows(j.matrix, 2)


def trilinear_symskew_kernel(
    n: int, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of the two partial-symmetry families on an unrestricted trilinear map.

    Unknowns are all components of a trilinear vector-valued L; the
    constraints impose symmetry in the first two arguments and
    skew-symmetry in the last two.  The combination is contradictory, so the
    kernel dimension is 0 for every n.
    """
    system = trilinear_symskew_system(n)
    return solve_kernel(system, tol=tol, want_basis=want_basis)


def trilinear_symskew_system(n: int) -> LinearSystem:
    """The symmetry rows over (i < j, k, out), then the skew rows over
    (i, j <= k, out), on the n**4 components of L (value axis innermost)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_unknowns("symskew", n)
    labels = [("L", idx[:3], idx[3]) for idx in np.ndindex(n, n, n, n)]
    axis = np.arange(n)

    def cols(i, j, k):
        # the columns of L(i, j, k) for every value axis, one row each
        return (((i[:, None] * n + j[:, None]) * n + k[:, None]) * n + axis).ravel()

    # symmetry in the first two arguments, rows over i < j, k, out:
    #   L(i,j,k) - L(j,i,k) = 0
    i, j = np.triu_indices(n, 1)
    i, j, k = np.repeat(i, n), np.repeat(j, n), np.tile(axis, i.size)
    sym_plus, sym_minus = cols(i, j, k), cols(j, i, k)
    # skew-symmetry in the last two arguments, rows over i, j <= k, out:
    #   L(i,j,k) + L(i,k,j) = 0
    j, k = np.triu_indices(n)
    i, j, k = np.repeat(axis, j.size), np.tile(j, n), np.tile(k, n)
    skew_a, skew_b = cols(i, j, k), cols(i, k, j)

    nsym, nskew = sym_plus.size, skew_a.size
    # on the diagonal j == k the two skew terms share a column: one entry 2
    twice = (skew_a == skew_b).astype(float)
    row_ids = np.concatenate([np.arange(nsym)] * 2 + [nsym + np.arange(nskew)] * 2)
    col_ids = np.concatenate([sym_plus, sym_minus, skew_a, skew_b])
    values = np.concatenate([np.ones(nsym), -np.ones(nsym), 1.0 + twice, 1.0 - twice])
    return LinearSystem(labels, nsym + nskew, row_ids, col_ids, values)


def generalized_braid_system(j, jp) -> LinearSystem:
    """Assemble the coupled (A, K) system over basis tuples.

    One scalar row per pair of symmetric pairs ((u,v), (w,w')):

        J(A(u,v,w), w') + J(A(u,v,w'), w) + K(u,v) * Jp(w,w') = 0

    Unknowns are the packed symmetric trilinear vector-valued A followed by
    the packed symmetric bilinear K, giving n*C(n+2,3) + n(n+1)/2 columns.
    Degenerate forms are allowed; they are exactly the interesting negative
    cases.
    """
    jf = _as_form(j)
    return _braid_rows(jf.matrix, 3, _as_form(jp, jf.n).matrix)


def generalized_braid_kernel(
    j, jp, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Joint kernel over (A, K) of the generalized braid system.

    For nondegenerate J and Jp in dimension >= 3 the kernel is {0}.  The
    report splits the kernel dimension into the dimensions of its
    projections onto the A-block and the K-block.  A pair that is not
    diagonal is first solved in its pencil normal form (see
    :func:`_pencil_normal_form`), whose answer is kept only when rigid.
    """
    jf = _as_form(j)
    check_unknowns("generalized", jf.n)
    jpf = _as_form(jp, jf.n)
    report = _normal_form_kernel(jf, jpf, tol, want_basis)
    if report is None:
        report = solve_kernel(generalized_braid_system(jf, jpf), tol=tol, want_basis=want_basis)
    return report


@dataclass(frozen=True)
class _PencilForm:
    """A congruence normal form: ``P^T J P ~ forms[0]`` and, for a pair,
    ``P^T Jp P ~ forms[1]``, with the evidence a report carries."""

    forms: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    condition: float
    residual: float

    def evidence(self) -> dict:
        return {
            "eigenvalues": np.column_stack([self.eigenvalues.real, self.eigenvalues.imag]),
            "transform_condition": self.condition,
            "residual": self.residual,
        }


def _pencil_normal_form(j: BilinForm, jp: BilinForm | None) -> _PencilForm | None:
    """The congruence normal form of the pencil (J, Jp), or of J alone.

    For a pair, the eigenvectors V of ``solve(J, Jp)`` are scaled by
    ``diag(V^T J V)^(-1/2)`` (complex square root), so that ``P^T J P = I``
    and ``P^T Jp P = diag(lambda)``, the eigenvalues sorted by real, then
    imaginary part.  For J alone, ``P = Q |e|^(-1/2)`` from ``eigh(J)``
    gives ``diag(sign e)`` and the eigenvalues e.  None when the forms are
    already diagonal, J is singular, or P has condition above
    ``PENCIL_CONDITION_CAP`` or residual above ``PENCIL_RESIDUAL_CAP``
    (largest entry of ``P^T J P`` and ``P^T Jp P`` less their normal
    forms, over the largest entry of the normal forms).
    """
    pair = (j.matrix,) if jp is None else (j.matrix, jp.matrix)
    if not j.nondegenerate or all(np.array_equal(f, np.diag(np.diagonal(f))) for f in pair):
        return None
    if jp is None:
        values, q = np.linalg.eigh(j.matrix)
        p = q / np.sqrt(np.abs(values))
        forms = (np.diag(np.sign(values)),)
    else:
        try:
            values, v = np.linalg.eig(np.linalg.solve(j.matrix, jp.matrix))
        except np.linalg.LinAlgError:  # no convergence, or an overflow to inf
            return None
        order = np.lexsort((values.imag, values.real))
        values, v = values[order], v[:, order]
        with np.errstate(all="ignore"):
            p = v / np.sqrt(np.einsum("ik,ij,jk->k", v, j.matrix, v).astype(complex))
        if not np.isfinite(p).all():
            return None
        forms = (np.eye(j.n), np.diag(values))
    scale = max(np.abs(f).max() for f in forms)
    residual = max(np.abs(p.T @ f @ p - g).max() for f, g in zip(pair, forms)) / scale
    condition = float(np.linalg.cond(p))
    if not (residual <= PENCIL_RESIDUAL_CAP and condition <= PENCIL_CONDITION_CAP):
        return None
    return _PencilForm(forms, values, condition, float(residual))


def _normal_form_kernel(
    j: BilinForm, jp: BilinForm | None, tol: float, want_basis: bool
) -> KernelReport | None:
    """The braid kernel solved in the normal form of (J, Jp), or of J alone
    (the classical system); None unless that form exists and gives
    ``rigid``."""
    pencil = _pencil_normal_form(j, jp)
    if pencil is None:
        return None
    system = _braid_rows(pencil.forms[0], 2 if jp is None else 3, *pencil.forms[1:])
    report = solve_kernel(system, tol=tol)
    if report.verdict != "rigid":
        return None
    if want_basis:
        report.kernel_basis = np.zeros((0, report.unknowns))
    report.pencil = pencil.evidence()
    return report


@lru_cache(maxsize=None)
def _entry_columns(n: int, degree: int, m: int, coupled: bool) -> np.ndarray:
    """``[s, out * n + u]`` -> column of ``(sort(s + (u,)), out)`` for every
    symmetric index s of length ``degree - 1``; with ``coupled`` one more
    entry per s, ``[s, m * n]``, holds the column of the shift S(s)."""
    shifts = _sym_index_array(n, degree - 1)
    tuples = np.empty((len(shifts), n, degree), dtype=np.intp)
    tuples[:, :, :-1] = shifts[:, None]
    tuples[:, :, -1] = np.arange(n)
    insert = _packed_index(n, tuples)
    table = (insert[:, None, :] * m + np.arange(m)[:, None]).reshape(len(insert), m * n)
    if coupled:
        shift_cols = sym_index_count(n, degree) * m + np.arange(len(insert))
        table = np.concatenate([table, shift_cols[:, None]], axis=1)
    table.setflags(write=False)
    return table


def _packed_rows(
    tests: np.ndarray,
    degree: int,
    coupling: np.ndarray | None = None,
    names: tuple[str, str | None] = ("A", "K"),
) -> LinearSystem:
    """The entries shared by every braid, jet-level and prolongation system.

    ``tests`` stacks m x n test matrices C_q.  One row per symmetric index
    s of length ``degree - 1`` (outer) and test q (inner):

        sum_{out, u} C_q[out, u] * T(sort(s + (u,)))_out [+ c_q * S(s)] = 0

    T is a packed symmetric degree-``degree`` unknown on R^n with values of
    length m; its columns come first, packed index outer and value axis
    inner.  The optional ``coupling`` (one entry c_q per test) adds the
    packed scalar unknown S, indexed by s, after T.  The system's
    ``blocks`` name both column ranges.

    Every nonzero C_q[out, u] gives one entry in each row (s, q), at the
    column of ``(sort(s + (u,)), out)``; within a row those columns are
    distinct, so no (row, column) pair repeats.  Only the small stack of
    test matrices is scanned for nonzeros, never the system.
    """
    nq, m, n = tests.shape
    shifts = _sym_indices(n, degree - 1)
    tensor_cols = sym_index_count(n, degree) * m
    # test q as one row of its m n entries, the coupling c_q appended
    flat = tests.reshape(nq, m * n)
    if coupling is not None:
        flat = np.concatenate([flat, np.reshape(coupling, (nq, 1))], axis=1)
    q, at = np.nonzero(flat)
    row_ids = (q + nq * np.arange(len(shifts))[:, None]).ravel()
    col_ids = _entry_columns(n, degree, m, coupling is not None)[:, at].ravel()
    values = flat[q, at][None].repeat(len(shifts), axis=0).ravel()
    tensor, shift = names
    labels = [(tensor, idx, o) for idx in _sym_indices(n, degree) for o in range(m)]
    blocks = {tensor: slice(0, tensor_cols)}
    if coupling is not None:
        labels += [(shift, idx, None) for idx in shifts]
        blocks[shift] = slice(tensor_cols, tensor_cols + len(shifts))
    return LinearSystem(labels, len(shifts) * nq, row_ids, col_ids, values, blocks)


def _braid_rows(
    pairing: np.ndarray,
    degree: int,
    coupling: np.ndarray | None = None,
    names: tuple[str, str | None] = ("A", "K"),
) -> LinearSystem:
    """The braid-type system: one row per symmetric index s of length
    ``degree - 1`` (outer) and symmetric pair (a, b) (inner),

        P(T(s, a), b) + P(T(s, b), a) [+ C(a, b) * S(s)] = 0,

    through :func:`_packed_rows` with the test matrix of (a, b) holding
    column b of P at column a and column a of P at column b.  The pairing
    P is m x n (rectangular for a degenerate metric padded with zero
    columns); the optional coupling form C is n x n.  The rows are complex
    when P or C is.
    """
    m, n = pairing.shape
    a, b = _sym_index_array(n, 2).T
    q = np.arange(len(a))
    tests = np.zeros((len(a), m, n), dtype=np.result_type(pairing, float))
    tests[q, :, a] += pairing[:, b].T
    tests[q, :, b] += pairing[:, a].T
    return _packed_rows(tests, degree, None if coupling is None else coupling[a, b], names)
