import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from rigidity_lab.gcs import GcsChart
from rigidity_lab.prolongation import MatrixAlgebra
from rigidity_lab.ratfield import RationalField

# tests that start ``python -m rigidity_lab`` find the package of this checkout
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_nondegenerate_form(rng, n, indefinite=None):
    """Well-conditioned symmetric form with eigenvalue magnitudes in [0.5, 2].

    ``indefinite=True`` forces mixed signs (needs n >= 2); ``None`` picks
    signs at random.
    """
    q = random_orthogonal(rng, n)
    mags = rng.uniform(0.5, 2.0, size=n)
    if indefinite is None:
        signs = rng.choice([-1.0, 1.0], size=n)
    elif indefinite:
        signs = rng.choice([-1.0, 1.0], size=n)
        if np.all(signs == signs[0]):
            signs[rng.integers(n)] *= -1.0
    else:
        signs = np.ones(n)
    return q @ np.diag(signs * mags) @ q.T


def random_well_conditioned(rng, n, spread=2.0):
    """Invertible map with singular values in [1/spread, spread]."""
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    s = rng.uniform(1.0 / spread, spread, size=n)
    return u @ np.diag(s) @ v


def full_matrix(entries, n):
    """The full symmetric n x n coefficient matrix of a chart's entries (its
    upper triangle), with a zero field wherever no entry is listed."""
    zero = RationalField.const(n + 1, 0)
    return [[entries.get((min(i, j), max(i, j)), zero) for j in range(n)] for i in range(n)]


def congruent_chart(chart, m):
    """The chart pulled back along x = M y for an integer matrix M: exact
    entries M^T A(r) M.  Only for charts that do not depend on x."""
    n = chart.n
    a = full_matrix(chart.entries, n)
    entries = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        entries[i, j] = RationalField.const(n + 1, 0)
        for k, l in itertools.product(range(n), repeat=2):
            if m[k][i] * m[l][j]:
                entries[i, j] = entries[i, j] + a[k][l].scale(m[k][i] * m[l][j])
    return GcsChart(n, chart.domain, chart.interval, entries, grid=chart.grid)


def conjugate(h, g):
    """The matrix algebra g h g^-1."""
    ginv = np.linalg.inv(g)
    return MatrixAlgebra(h.n, [g @ b @ ginv for b in h.orthonormalized_basis])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
