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


def enumerate_sym_indices(n: int, d: int) -> list[tuple[int, ...]]:
    """All non-decreasing index tuples of length d over axes 0..n-1.

    Lexicographically ordered, exhaustive and duplicate-free.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return list(_sym_indices(n, d))


@dataclass
class SymTensor:
    """Dense symmetric multilinear map on R^n in packed storage.

    ``coeffs`` has shape ``(P,)`` for scalar-valued tensors and ``(P, n)``
    for vector-valued ones, where ``P = C(n+d-1, d)`` and the output axis
    comes last.  Values are immutable after construction.
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

    @property
    def codomain(self) -> str:
        return "vector" if self.coeffs.ndim == 2 else "scalar"

    @property
    def is_vector_valued(self) -> bool:
        return self.coeffs.ndim == 2

    def evaluate(self, *args) -> float | np.ndarray:
        """Evaluate on ``degree`` vectors, symmetric under argument order."""
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        out = self.unpack()
        for a in args:
            v = np.asarray(a, dtype=float)
            if v.shape != (self.n,):
                raise ValueError(f"argument has shape {v.shape}, expected ({self.n},)")
            out = np.tensordot(v, out, axes=(0, 0))
        return out if self.is_vector_valued else float(out)

    __call__ = evaluate

    def unpack(self) -> np.ndarray:
        """Full dense array of shape (n,)*degree (+ (n,) when vector-valued)."""
        return np.take(self.coeffs, _full_positions(self.n, self.degree), axis=0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.unpack()))

    @staticmethod
    def pack_full(full: np.ndarray, degree: int) -> "SymTensor":
        """Pack an already-symmetric full array without averaging."""
        full = np.asarray(full, dtype=float)
        n = full.shape[0]
        # at degree 0 the read is full itself, a view: copy, then add the packed axis
        coeffs = np.array(full[tuple(_sym_index_array(n, degree).T)])
        return SymTensor(n=n, degree=degree, coeffs=coeffs.reshape(-1, *full.shape[degree:]))


def symmetrize(raw: np.ndarray, degree: int | None = None) -> SymTensor:
    """Symmetrize a full multilinear coefficient array into packed storage.

    The result averages the input over all argument orders, so it is
    idempotent on already-symmetric input.  A trailing axis of the same
    length as the others is interpreted as the output axis of a
    vector-valued map when ``degree`` says so; with ``degree=None`` an array
    of uniform axis length n and ndim d is read as a scalar-valued degree-d
    tensor.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 0:
        raise ValueError("cannot symmetrize a 0-dimensional array")
    n = raw.shape[0]
    if any(s != n for s in raw.shape):
        raise ValueError(f"all axes must have equal length, got shape {raw.shape}")
    if degree is None:
        degree = raw.ndim
    if raw.ndim not in (degree, degree + 1):
        raise ValueError(
            f"array of ndim {raw.ndim} does not match degree {degree} "
            "(scalar) or degree+1 (vector-valued)"
        )
    pos = _full_positions(n, degree).ravel()
    coeffs = np.zeros((sym_index_count(n, degree),) + raw.shape[degree:])
    # the arrangements of a tuple add up in lexicographic order
    np.add.at(coeffs, pos, raw.reshape(pos.size, *raw.shape[degree:]))
    counts = np.bincount(pos).reshape((-1,) + (1,) * (raw.ndim - degree))
    return SymTensor(n=n, degree=degree, coeffs=coeffs / counts)


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


def _checked_inverse(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] < 1e-12 * svals[0]:
        raise ValueError(
            f"map is numerically singular (sigma_min/sigma_max = "
            f"{0.0 if svals[0] == 0.0 else svals[-1] / svals[0]:.3e})"
        )
    return np.linalg.inv(m)


def _contract_slots(full: np.ndarray, m: np.ndarray, nslots: int) -> np.ndarray:
    # Contract matrix m into each of the first nslots axes, preserving order.
    out = full
    for _ in range(nslots):
        out = np.tensordot(out, m, axes=([0], [0]))
    return out


def pushforward(t: "SymTensor | BilinForm", m: np.ndarray) -> "SymTensor | BilinForm":
    """Transform a tensor by an invertible map m.

    Forms (scalar-valued tensors and BilinForm) transform by congruence,
    result(u_1, ..., u_d) = t(m u_1, ..., m u_d); vector-valued tensors
    transform equivariantly, result = m o t o (m^-1, ..., m^-1).  Either way
    the transform by m^-1 undoes the transform by m.
    """
    m = np.asarray(m, dtype=float)
    if isinstance(t, BilinForm):
        _checked_inverse(m)  # reject singular maps up front
        return BilinForm(m.T @ t.matrix @ m)
    if not isinstance(t, SymTensor):
        raise TypeError(f"expected SymTensor or BilinForm, got {type(t).__name__}")
    if m.shape != (t.n, t.n):
        raise ValueError(f"map has shape {m.shape}, expected ({t.n}, {t.n})")
    minv = _checked_inverse(m)
    full = t.unpack()
    if t.is_vector_valued:
        # inputs see m^-1 (contract m^-1 along each argument slot), output sees m;
        # after the slot loop the output axis sits first, tensordot puts it last
        out = _contract_slots(full, minv, t.degree)
        out = np.tensordot(out, m, axes=([0], [1]))
    else:
        out = _contract_slots(full, m, t.degree)
    return SymTensor.pack_full(out, t.degree)
