import os
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
