"""Packed symmetric multilinear tensors and symmetric bilinear forms on R^n.

A symmetric degree-d tensor is stored on the canonical multi-index basis:
one coefficient per non-decreasing index tuple (there are C(n+d-1, d) of
them).  :func:`_packed_index` is the one map from index tuples to packed
positions.  Vector-valued tensors keep the output axis last, everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Default relative threshold for all spectral rank decisions in this package.
SPECTRAL_TOL = 1e-10


def sym_index_count(n: int, d: int) -> int:
    """Number of non-decreasing index tuples of length d over n axes."""
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def _sym_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations_with_replacement(range(n), d))


@lru_cache(maxsize=None)
def _sym_index_array(n: int, d: int) -> np.ndarray:
    """``_sym_indices(n, d)`` as a read-only (count, d) integer array."""
    tuples = _sym_indices(n, d)
    arr = np.array(tuples, dtype=np.intp).reshape(len(tuples), d)
    arr.setflags(write=False)
    return arr


def _packed_index(n: int, idx) -> np.ndarray:
    """Packed positions of the sorted tuples along the last axis of ``idx``:
    each sorted tuple, read as a base-n code, is binary-searched among the
    ascending codes of ``_sym_index_array``."""
    idx = np.sort(np.asarray(idx, dtype=np.intp), axis=-1)
    weights = n ** np.arange(idx.shape[-1] - 1, -1, -1, dtype=np.intp)
    return np.searchsorted(_sym_index_array(n, idx.shape[-1]) @ weights, idx @ weights)


def _full_positions(n: int, d: int) -> np.ndarray:
    """The (n,)*d table of packed positions of every full index tuple."""
    return _packed_index(n, np.moveaxis(np.indices((n,) * d), 0, -1))


@dataclass
class SymTensor:
    """Symmetric multilinear map on R^n in packed storage, the form in which
    prolongation spaces and rank-one witnesses are returned.

    ``coeffs`` has shape ``(P,)`` for scalar-valued tensors and ``(P, n)``
    for vector-valued ones, where ``P = C(n+d-1, d)`` and the output axis
    comes last.  The coefficients are read-only; :meth:`unpack` gives the
    full dense array and :meth:`norm` its Frobenius norm.
    """

    n: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        p = sym_index_count(self.n, self.degree)
        if self.coeffs.shape not in ((p,), (p, self.n)):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected "
                f"({p},) or ({p}, {self.n})"
            )
        self.coeffs.setflags(write=False)

    def unpack(self) -> np.ndarray:
        """Full dense array of shape (n,)*degree (+ (n,) when vector-valued)."""
        return np.take(self.coeffs, _full_positions(self.n, self.degree), axis=0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.unpack()))


def form_signature(matrix) -> tuple[int, int, int]:
    """Counts (p, q, z) of positive/negative/zero eigenvalues of a symmetric matrix.

    Eigenvalues with ``|lam| < SPECTRAL_TOL * max|lam|`` count as zero; the
    zero matrix reports (0, 0, n).  A :class:`BilinForm` carries its own
    ``signature``.
    """
    matrix = np.asarray(matrix, dtype=float)
    eigs = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    scale = np.max(np.abs(eigs)) if eigs.size else 0.0
    if scale == 0.0:
        return (0, 0, matrix.shape[0])
    cut = SPECTRAL_TOL * scale
    p = int(np.sum(eigs > cut))
    q = int(np.sum(eigs < -cut))
    return (p, q, matrix.shape[0] - p - q)


#: Largest order that :func:`positive_pivots` eliminates; its rounding there
#: stays below n (n + 1) 2^-53 <= 1.2e-13 of the matrix's 2-norm.
PIVOT_MAX_N = 32


def positive_pivots(stack, shift) -> np.ndarray:
    """For each symmetric matrix A_k of a (K, n, n) stack, whether
    elimination without pivoting keeps every pivot of A_k - shift[k] I
    positive and finite.

    A yes certifies that the shifted matrix, plus a perturbation of 2-norm
    at most n (n + 1) 2^-53 times its own, is positive definite (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Chs. 9-10),
    as long as its entries are normal numbers; an entry that underflows
    adds at most 2^-1074.  A pivot only ever decreases from its diagonal
    entry, so a non-finite entry and an overflow both end in a no.  Orders
    above PIVOT_MAX_N are not eliminated and read no.  Numpy only, with
    floating-point warnings silenced.
    """
    # matrix index last, so that each step works on contiguous rows
    m = np.array(np.moveaxis(np.asarray(stack, dtype=float), 0, -1), order="C")
    n, count = m.shape[0], m.shape[-1]
    if n > PIVOT_MAX_N:
        return np.zeros(count, dtype=bool)
    # the diagonal, where step j leaves pivot j and no later step writes
    pivots = m.reshape(n * n, count)[:: n + 1]
    with np.errstate(all="ignore"):
        pivots -= shift
        for j in range(n - 1):
            below = m[j + 1 :, j] / m[j, j]
            m[j + 1 :, j + 1 :] -= below[:, None] * m[None, j, j + 1 :]
        return ((pivots > 0.0) & (pivots < np.inf)).all(axis=0)


@dataclass
class BilinForm:
    """Symmetric bilinear form on R^n with spectral metadata.

    Storage enforces exact symmetry and finite entries; ``signature`` is the
    (p, q, z) count of positive/negative/zero eigenvalues from
    :func:`form_signature`, at ``SPECTRAL_TOL``, and ``rank = p + q``.
    """

    matrix: np.ndarray
    signature: tuple[int, int, int] = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            self.matrix = (m + m.T) / 2.0
        if not np.isfinite(self.matrix).all():
            if not np.isfinite(m).all():
                raise ValueError("form has a non-finite entry")
            raise ValueError("form's symmetrization (m + m^T) / 2 overflows")
        self.matrix.setflags(write=False)
        self.signature = form_signature(self.matrix)
        self.rank = self.signature[0] + self.signature[1]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def zero_count(self) -> int:
        return self.signature[2]

    @property
    def nondegenerate(self) -> bool:
        return self.signature[2] == 0

    def __call__(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))
