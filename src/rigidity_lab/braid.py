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

Kernels are computed by full singular value decomposition with a relative
tolerance, and every rank decision is reported together with the spectrum
and the gap ratio that justifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .multilinear import (
    SPECTRAL_TOL,
    BilinForm,
    sym_index_count,
    _sym_index_array,
    _sym_index_position,
    _sym_indices,
)

#: Verdicts are downgraded to "indeterminate" when the singular-value gap
#: ratio at the rank cut falls below this factor.
GAP_VERDICT_THRESHOLD = 1e3


@dataclass
class LinearSystem:
    """A homogeneous linear system in labeled packed unknowns.

    ``unknown_labels[j]`` names column j as a tuple
    ``(tensor_name, sym_index, output_axis_or_None)``; ``rows`` holds one
    dense row per scalar constraint.  The right-hand side is identically
    zero.  ``blocks`` maps the names of contiguous unknown blocks to their
    column slices when the assembler knows them (see :func:`_braid_rows`).
    """

    unknown_labels: list[tuple]
    rows: np.ndarray
    blocks: dict[str, slice] = field(default_factory=dict)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.unknown_labels):
            raise ValueError(
                f"row matrix of shape {self.rows.shape} does not match "
                f"{len(self.unknown_labels)} unknowns"
            )

    @property
    def unknowns(self) -> int:
        return self.rows.shape[1]

    @property
    def equations(self) -> int:
        return self.rows.shape[0]

    def residual(self, vector: np.ndarray) -> float:
        """Max row residual of a candidate kernel vector."""
        return float(np.max(np.abs(self.rows @ np.asarray(vector, dtype=float)), initial=0.0))

    def coefficient_scale(self) -> float:
        return float(np.max(np.abs(self.rows), initial=0.0))


@dataclass
class KernelReport:
    """Numerically certified kernel of a homogeneous linear system.

    ``kernel_dim`` counts singular values below ``tol * sigma_max`` plus the
    columns beyond the row rank; ``gap_ratio`` measures how clear the rank
    cut is (last kept singular value over first dropped one, or over the
    threshold when nothing is dropped).  The verdict is ``rigid`` for a zero
    kernel, ``non_rigid`` otherwise, and ``indeterminate`` whenever the gap
    ratio is below 10^3.
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


def solve_kernel(
    system: LinearSystem,
    tol: float = SPECTRAL_TOL,
    want_basis: bool = False,
    split_blocks: dict[str, slice] | None = None,
) -> KernelReport:
    """SVD kernel of a homogeneous system with an explicit gap-ratio check.

    With ``split_blocks`` mapping block names to column slices, the report
    also carries the dimension of the kernel's projection onto each block.
    """
    rows = system.rows
    ncols = system.unknowns
    if rows.shape[0] == 0:
        svals = np.zeros(0)
        rank = 0
        vt = np.eye(ncols)
    else:
        _, svals, vt = np.linalg.svd(rows, full_matrices=True)
        smax = svals[0] if svals.size else 0.0
        rank = int(np.sum(svals >= tol * smax)) if smax > 0.0 else 0
    kernel_dim = ncols - rank
    gap_ratio = _gap_ratio(svals, rank, tol)
    basis = vt[rank:, :] if (want_basis or split_blocks) else None

    split = None
    if split_blocks is not None:
        split = {}
        for name, block in split_blocks.items():
            sub = basis[:, block] if basis is not None and basis.size else np.zeros((0, 0))
            if sub.size == 0:
                split[name] = 0
            else:
                sub_svals = np.linalg.svd(sub, compute_uv=False)
                sub_max = sub_svals[0] if sub_svals.size else 0.0
                split[name] = (
                    int(np.sum(sub_svals >= tol * sub_max)) if sub_max > 0.0 else 0
                )

    if gap_ratio < GAP_VERDICT_THRESHOLD:
        verdict = "indeterminate"
    else:
        verdict = "rigid" if kernel_dim == 0 else "non_rigid"
    return KernelReport(
        unknowns=ncols,
        equations=system.equations,
        singular_values=np.asarray(svals),
        kernel_dim=kernel_dim,
        tol=tol,
        gap_ratio=gap_ratio,
        verdict=verdict,
        kernel_basis=basis if want_basis else None,
        split=split,
        unknown_labels=list(system.unknown_labels),
    )


def _gap_ratio(svals: np.ndarray, rank: int, tol: float) -> float:
    if svals.size == 0 or svals[0] == 0.0:
        return float("inf")
    if rank == 0:
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
    form = BilinForm(np.asarray(j, dtype=float))
    if n is not None and form.n != n:
        raise ValueError(f"form has dimension {form.n}, expected {n}")
    return form


def classical_braid_kernel(
    j, n: int | None = None, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Kernel of ``J(A(u,v),w) + J(A(u,w),v) = 0`` over symmetric bilinear A.

    J must be nondegenerate (any signature); the kernel dimension is then 0
    in every dimension, which is the linearized form of 1-rigidity of
    pseudo-Riemannian metrics.
    """
    form = _as_form(j, n)
    if not form.nondegenerate:
        raise ValueError(
            f"form is degenerate: {form.zero_count} zero eigenvalue(s) "
            f"(signature {form.signature})"
        )
    system = classical_braid_system(form)
    return solve_kernel(system, tol=tol, want_basis=want_basis)


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
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    labels = [
        ("L", (i, j, k), out)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for out in range(n)
    ]

    def col(i, j, k, out):
        return ((i * n + j) * n + k) * n + out

    rows = []
    # symmetry in the first two arguments: L(i,j,k) - L(j,i,k) = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for out in range(n):
                    row = np.zeros(len(labels))
                    row[col(i, j, k, out)] += 1.0
                    row[col(j, i, k, out)] -= 1.0
                    rows.append(row)
    # skew-symmetry in the last two arguments: L(i,j,k) + L(i,k,j) = 0
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                for out in range(n):
                    row = np.zeros(len(labels))
                    row[col(i, j, k, out)] += 1.0
                    row[col(i, k, j, out)] += 1.0
                    rows.append(row)
    system = LinearSystem(unknown_labels=labels, rows=np.array(rows))
    return solve_kernel(system, tol=tol, want_basis=want_basis)


def generalized_braid_system(j, jp, n: int | None = None) -> LinearSystem:
    """Assemble the coupled (A, K) system over basis tuples.

    One scalar row per pair of symmetric pairs ((u,v), (w,w')):

        J(A(u,v,w), w') + J(A(u,v,w'), w) + K(u,v) * Jp(w,w') = 0

    Unknowns are the packed symmetric trilinear vector-valued A followed by
    the packed symmetric bilinear K, giving n*C(n+2,3) + n(n+1)/2 columns.
    Degenerate forms are allowed; they are exactly the interesting negative
    cases.
    """
    jf = _as_form(j, n)
    return _braid_rows(jf.matrix, 3, _as_form(jp, jf.n).matrix)


def generalized_braid_kernel(
    j, jp, n: int | None = None, tol: float = SPECTRAL_TOL, want_basis: bool = False
) -> KernelReport:
    """Joint kernel over (A, K) of the generalized braid system.

    For nondegenerate J and Jp in dimension >= 3 the kernel is {0}.  The
    report splits the kernel dimension into the dimensions of its
    projections onto the A-block and the K-block.
    """
    system = generalized_braid_system(j, jp, n)
    return solve_kernel(system, tol=tol, want_basis=want_basis, split_blocks=system.blocks)


@lru_cache(maxsize=None)
def _insert_positions(n: int, degree: int) -> np.ndarray:
    """``[s, a]`` -> packed position of ``sorted(s + (a,))`` for every
    symmetric index s of length ``degree - 1`` and every axis a."""
    pos = _sym_index_position(n, degree)
    table = np.array(
        [[pos[tuple(sorted(s + (a,)))] for a in range(n)] for s in _sym_indices(n, degree - 1)],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


def _braid_rows(
    pairing: np.ndarray,
    degree: int,
    coupling: np.ndarray | None = None,
    names: tuple[str, str | None] = ("A", "K"),
) -> LinearSystem:
    """The braid-type system shared by every braid and jet-level assembler.

    One row per symmetric index s of length ``degree - 1`` (outer) and
    symmetric pair (a, b) (inner):

        P(T(s, a), b) + P(T(s, b), a) [+ C(a, b) * S(s)] = 0

    T is a packed symmetric degree-``degree`` unknown on R^n with values of
    length m, where the pairing P is m x n (rectangular for a degenerate
    metric padded with zero columns); its columns come first, packed index
    outer and value axis inner.  The optional coupling form C (n x n) adds
    the packed scalar unknown S, indexed by s, after T.  The system's
    ``blocks`` name both column ranges.
    """
    m, n = pairing.shape
    shifts = _sym_indices(n, degree - 1)
    a, b = _sym_index_array(n, 2).T
    insert = _insert_positions(n, degree)
    tensor_cols = sym_index_count(n, degree) * m
    shift_cols = len(shifts) if coupling is not None else 0
    rows = np.zeros((len(shifts) * len(a), tensor_cols + shift_cols))
    r = np.arange(len(rows)).reshape(len(shifts), len(a), 1)
    out = np.arange(m)
    # within one row the columns of each term are distinct, so a buffered
    # fancy add applies every coefficient exactly once
    rows[r, insert[:, a, None] * m + out] += pairing.T[b]
    rows[r, insert[:, b, None] * m + out] += pairing.T[a]
    tensor, shift = names
    labels = [(tensor, idx, o) for idx in _sym_indices(n, degree) for o in range(m)]
    blocks = {tensor: slice(0, tensor_cols)}
    if coupling is not None:
        rows[r[..., 0], tensor_cols + np.arange(len(shifts))[:, None]] += coupling[a, b]
        labels += [(shift, idx, None) for idx in shifts]
        blocks[shift] = slice(tensor_cols, tensor_cols + shift_cols)
    return LinearSystem(unknown_labels=labels, rows=rows, blocks=blocks)
