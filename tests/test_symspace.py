import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidity_lab import cli, symspace
from rigidity_lab.multilinear import SPECTRAL_TOL
from rigidity_lab.symspace import (
    SpdCurve,
    SpdPoint,
    arclength_reparam,
    circle_mean,
    curve_length,
    spd_inner,
)
from conftest import random_well_conditioned

CURVE_FILE = Path(__file__).parent / "data" / "rotation_orbit.json"


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def rotation_orbit(samples=181, diag=(2.0, 1.0)):
    thetas = np.linspace(0.0, np.pi, samples)
    mats = [rotation(a) @ np.diag(diag) @ rotation(a).T for a in thetas]
    return SpdCurve(thetas, mats, closed=True)


def random_spd(rng, n, shift=3.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def random_spd_curve(rng, n, samples=200):
    base = random_spd(rng, n)
    d1 = rng.standard_normal((n, n))
    d1 = (d1 + d1.T) / 2.0
    d2 = rng.standard_normal((n, n))
    d2 = (d2 + d2.T) / 2.0
    ts = np.linspace(0.0, 1.0, samples)
    mats = [base + np.sin(t) * d1 + 0.3 * t * t * d2 for t in ts]
    return SpdCurve(ts, mats)


class TestSpdInner:
    def test_one_dimensional_metric(self):
        # at the point x the squared speed of a tangent h is h^2 / x^2
        assert spd_inner(np.array([[2.0]]), np.array([[3.0]]), np.array([[3.0]])) == 2.25

    def test_trace_at_identity(self):
        assert spd_inner(np.eye(3), np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            b = random_spd(rng, 3)
            x = rng.standard_normal((3, 3))
            x = (x + x.T) / 2.0
            y = rng.standard_normal((3, 3))
            y = (y + y.T) / 2.0
            m = random_well_conditioned(rng, 3)
            lhs = spd_inner(m.T @ b @ m, m.T @ x @ m, m.T @ y @ m)
            rhs = spd_inner(b, x, y)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positive_definite(self, rng):
        b = random_spd(rng, 3)
        for _ in range(100):
            x = rng.standard_normal((3, 3))
            x = (x + x.T) / 2.0
            if np.max(np.abs(x)) == 0.0:
                continue
            assert spd_inner(b, x, x) > 0.0

    def test_rejects_asymmetric_tangent(self):
        with pytest.raises(ValueError, match="symmetric"):
            spd_inner(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_non_spd_point(self):
        with pytest.raises(ValueError):
            SpdPoint(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_point(self, value):
        # a NaN entry used to pass both comparisons of the positivity rule
        with pytest.raises(ValueError, match="matrix has a non-finite"):
            SpdPoint(np.array([[1.0, 0.0], [0.0, value]]))


class TestCurveLength:
    def test_constant_curve(self):
        ts = np.linspace(0.0, 1.0, 20)
        c = SpdCurve(ts, [np.eye(2)] * 20)
        assert curve_length(c) == 0.0

    def test_exponential_has_unit_speed(self):
        ts = np.linspace(0.0, 1.0, 201)
        c = SpdCurve(ts, [np.array([[np.exp(t)]]) for t in ts])
        assert curve_length(c) == pytest.approx(1.0, abs=1e-4)

    def test_pushforward_invariance(self, rng):
        c = random_spd_curve(rng, 2)
        m = random_well_conditioned(rng, 2)
        assert curve_length(c.pushforward(m)) == pytest.approx(curve_length(c), abs=1e-6)

    def test_grid_refinement_stability(self):
        def curve(samples):
            ts = np.linspace(0.0, 1.0, samples)
            return SpdCurve(
                ts, [np.diag([np.exp(t), 1.0 + t * t]) for t in ts]
            )

        coarse = curve_length(curve(100))
        fine = curve_length(curve(200))
        assert abs(fine - coarse) < 0.01 * abs(fine)

    def test_too_few_samples(self):
        c = SpdCurve([0.0], [np.eye(2)])
        with pytest.raises(ValueError):
            curve_length(c)

    @pytest.mark.parametrize("span", [1e150, 1e200, 1e300])
    def test_long_parameter_steps_keep_their_speed(self, span):
        # the tangents are about 1e-200 at span 1e200: their squares underflow
        c = SpdCurve([-span, 0.0, span], [[[1.0]], [[2.0]], [[4.0]]])
        assert c.speeds.tolist() == pytest.approx([1.0 / span, 0.75 / span, 0.5 / span], rel=1e-15)
        assert curve_length(c) == pytest.approx(1.5, rel=1e-12)

    def test_overflowing_length_is_refused(self):
        # both speeds are finite, the trapezoid over the long step is not
        c = SpdCurve([0.0, 1e200], [np.array([[1e-156]]), np.array([[1e154]])])
        assert np.all(np.isfinite(c.speeds))
        with pytest.raises(ValueError, match="length overflows"):
            curve_length(c)


class TestArclengthReparam:
    def test_already_arclength_fixed_point(self):
        ts = np.linspace(0.0, 1.0, 201)
        c = SpdCurve(ts, [np.array([[np.exp(t)]]) for t in ts])
        r = arclength_reparam(c, 201)
        for j in range(0, 201, 25):
            assert r.matrices[j, 0, 0] == pytest.approx(c.matrices[j, 0, 0], rel=1e-3)

    def test_quadratic_exponent_closed_form(self):
        # the curve e^{t^2} has arc length s(t) = t^2 under dx^2/x^2
        ts = np.linspace(0.0, 1.0, 401)
        c = SpdCurve(ts, [np.array([[np.exp(t * t)]]) for t in ts])
        r = arclength_reparam(c, 101)
        for j in range(101):
            assert r.matrices[j, 0, 0] == pytest.approx(np.exp(r.params[j]), abs=5e-3)

    def test_speed_constant_after_reparam(self, rng):
        c = random_spd_curve(rng, 2)
        r = arclength_reparam(c, 200)
        from rigidity_lab.symspace import _speeds

        speeds = _speeds(r)[1:-1]  # endpoints use one-sided differences
        assert np.max(speeds) - np.min(speeds) < 0.02 * np.mean(speeds)

    def test_total_length_preserved(self, rng):
        c = random_spd_curve(rng, 2)
        r = arclength_reparam(c, 300)
        assert curve_length(r) == pytest.approx(curve_length(c), rel=1e-3)

    def test_zero_length_rejected(self):
        ts = np.linspace(0.0, 1.0, 5)
        c = SpdCurve(ts, [np.eye(2)] * 5)
        with pytest.raises(ValueError, match="zero length"):
            arclength_reparam(c, 10)


class TestCircleMean:
    def test_constant_closed_curve(self):
        ts = np.linspace(0.0, 1.0, 10)
        b = np.diag([2.0, 5.0])
        c = SpdCurve(ts, [b] * 10, closed=True)
        assert np.allclose(circle_mean(c).matrix, b, atol=1e-14)

    def test_rotation_orbit_mean_is_isotropic(self):
        m = circle_mean(rotation_orbit()).matrix
        assert np.allclose(m, 1.5 * np.eye(2), atol=1e-6)

    def test_pushforward_equivariance(self, rng):
        orbit = rotation_orbit()
        m = random_well_conditioned(rng, 2)
        lhs = circle_mean(orbit.pushforward(m)).matrix
        rhs = m.T @ circle_mean(orbit).matrix @ m
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_start_point_independence(self):
        orbit = rotation_orbit()
        mats = list(orbit.matrices)
        k = 97
        rotated = mats[k:-1] + mats[:k] + [mats[k]]
        orbit2 = SpdCurve(orbit.params, rotated, closed=True)
        assert np.max(np.abs(circle_mean(orbit2).matrix - circle_mean(orbit).matrix)) < 1e-8

    def test_open_curve_rejected(self):
        ts = np.linspace(0.0, 1.0, 10)
        c = SpdCurve(ts, [np.eye(2)] * 10, closed=False)
        with pytest.raises(ValueError, match="closed"):
            circle_mean(c)


class TestPushforward:
    """``SpdCurve.pushforward(m)`` is the congruence b -> m^T b m, sample by sample."""

    def test_identity(self, rng):
        c = random_spd_curve(rng, 3, samples=20)
        assert c.pushforward(np.eye(3)).matrices.tobytes() == c.matrices.tobytes()

    def test_form_homogeneity(self, rng):
        c = random_spd_curve(rng, 3, samples=20)
        assert np.allclose(c.pushforward(5.0 * np.eye(3)).matrices, 25.0 * c.matrices)

    def test_form_round_trip(self, rng):
        c = random_spd_curve(rng, 3, samples=20)
        m = random_well_conditioned(rng, 3)
        back = c.pushforward(m).pushforward(np.linalg.inv(m))
        assert back.params.tobytes() == c.params.tobytes() and back.closed == c.closed
        assert np.max(np.abs(back.matrices - c.matrices)) < 1e-10

    def test_form_functorial(self, rng):
        # forms compose contravariantly: the inner map acts last
        c = random_spd_curve(rng, 3, samples=20)
        m1 = random_well_conditioned(rng, 3)
        m2 = random_well_conditioned(rng, 3)
        lhs = c.pushforward(m1 @ m2).matrices
        rhs = c.pushforward(m1).pushforward(m2).matrices
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_singular_map_rejected(self, rng):
        c = random_spd_curve(rng, 2, samples=5)
        with pytest.raises(ValueError, match="sample 0: matrix is not positive definite"):
            c.pushforward(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestSpdCurveValidation:
    def test_requires_increasing_params(self):
        with pytest.raises(ValueError, match="increasing"):
            SpdCurve([0.0, 0.0], [np.eye(2), np.eye(2)])

    def test_closed_requires_matching_endpoints(self):
        with pytest.raises(ValueError, match="closed"):
            SpdCurve(
                [0.0, 1.0], [np.eye(2), 2.0 * np.eye(2)], closed=True
            )

    def test_names_the_first_bad_sample(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        mats = [np.eye(2), np.eye(2), np.diag([1.0, np.nan]), np.diag([1.0, -1.0])]
        with pytest.raises(ValueError, match="sample 2: matrix has a non-finite"):
            SpdCurve(ts, mats)
        mats[2] = np.eye(2)
        with pytest.raises(ValueError, match="sample 3: matrix is not positive definite"):
            SpdCurve(ts, mats)

    def test_arrays_are_read_only_copies(self):
        ts = np.linspace(0.0, 1.0, 5)
        mats = np.stack([np.eye(2) * (1.0 + t) for t in ts])
        c = SpdCurve(ts, mats)
        assert ts.flags.writeable and mats.flags.writeable
        assert c.matrices.shape == (5, 2, 2) and c.n == 2
        for array in (c.params, c.matrices, c.speeds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.params = ts


def test_speeds_are_computed_once_per_curve(monkeypatch, tmp_path):
    # a closed curve with --resample measures two curves: the input (length,
    # mean and reparameterization share its speeds) and the resampled one
    calls = []
    original = symspace._speeds

    def counted(curve):
        calls.append(curve.params.size)
        return original(curve)

    monkeypatch.setattr(symspace, "_speeds", counted)
    out = tmp_path / "report.json"
    code = cli.main(
        ["symspace", "--curve", str(CURVE_FILE), "--resample", "33", "--output", str(out)]
    )
    assert code == 0
    samples = len(json.loads(CURVE_FILE.read_text())["samples"])
    assert calls == [samples, 33]


# -- reference: the per-sample loops the stacked expressions replace ----------


def loop_tangents(t, mats, closed):
    m = len(t)
    out = np.zeros_like(mats)
    if closed and m >= 3:
        k = m - 1
        dts = np.diff(t)
        for i in range(k):
            ip = (i + 1) % k
            im = (i - 1) % k
            dt_fwd = dts[i]
            dt_back = dts[i - 1] if i > 0 else dts[-1]
            out[i] = (mats[ip] - mats[im]) / (dt_fwd + dt_back)
        out[k] = out[0]
        return out
    for i in range(m):
        if i == 0:
            out[i] = (mats[1] - mats[0]) / (t[1] - t[0])
        elif i == m - 1:
            out[i] = (mats[-1] - mats[-2]) / (t[-1] - t[-2])
        else:
            out[i] = (mats[i + 1] - mats[i - 1]) / (t[i + 1] - t[i - 1])
    return out


def loop_speeds(t, mats, closed):
    speeds = np.zeros(len(t))
    for i, (b, x) in enumerate(zip(mats, loop_tangents(t, mats, closed))):
        val = float(np.trace(np.linalg.solve(b, x) @ np.linalg.solve(b, x)))
        speeds[i] = np.sqrt(max(val, 0.0))
    return speeds


def loop_reparam(t, mats, speeds, m):
    seg = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(t)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    target = np.linspace(0.0, s[-1], m)
    t_of_s = np.interp(target, s, t)
    out = []
    for tv in t_of_s:
        j = int(np.clip(np.searchsorted(t, tv) - 1, 0, len(t) - 2))
        w = (tv - t[j]) / (t[j + 1] - t[j])
        out.append((1.0 - w) * mats[j] + w * mats[j + 1])
    return target, np.stack([(x + x.T) / 2.0 for x in out])


def loop_mean(t, mats, speeds):
    num = np.zeros_like(mats[0])
    den = 0.0
    for k in range(len(t) - 1):
        dt = t[k + 1] - t[k]
        num += 0.5 * (speeds[k] * mats[k] + speeds[k + 1] * mats[k + 1]) * dt
        den += 0.5 * (speeds[k] + speeds[k + 1]) * dt
    mean = num / den
    return (mean + mean.T) / 2.0


class TestLoopOracle:
    """The stacked curve computations agree bit for bit with per-sample loops."""

    @staticmethod
    def raw_curve(rng, n, samples, closed):
        # uneven parameter steps; unsymmetrized samples exercise the symmetrization
        t = np.cumsum(rng.uniform(0.2, 1.8, samples)) / samples
        phase = 2.0 * np.pi * (t - t[0]) / (t[-1] - t[0])
        a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
        mats = [a @ a.T + np.cos(p) * b + np.sin(2.0 * p) * c + 4.0 * n * np.eye(n) for p in phase]
        if closed:
            mats[-1] = mats[0]
        return t, mats

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("samples", [4, 57])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_loops(self, rng, n, samples, closed):
        t, raw = self.raw_curve(rng, n, samples, closed)
        mats = np.stack([(x + x.T) / 2.0 for x in raw])
        curve = SpdCurve(t, raw, closed=closed)
        assert curve.matrices.tobytes() == mats.tobytes()
        assert symspace._tangents(curve).tobytes() == loop_tangents(t, mats, closed).tobytes()
        speeds = loop_speeds(t, mats, closed)
        assert curve.speeds.tobytes() == speeds.tobytes()
        assert curve_length(curve) == float(np.trapezoid(speeds, t))
        for m in (2, 3, 33):
            if closed and m < 4:
                with pytest.raises(ValueError, match=f"closed curve needs at least 4 samples, got {m}"):
                    arclength_reparam(curve, m)
                continue
            params, resampled = loop_reparam(t, mats, speeds, m)
            r = arclength_reparam(curve, m)
            assert r.params.tobytes() == params.tobytes()
            assert r.matrices.tobytes() == resampled.tobytes()
        if closed:
            assert circle_mean(curve).matrix.tobytes() == loop_mean(t, mats, speeds).tobytes()
        g = random_well_conditioned(rng, n)
        pushed = np.stack([g.T @ x @ g for x in mats])
        pushed = (pushed + pushed.swapaxes(1, 2)) / 2.0
        assert curve.pushforward(g).matrices.tobytes() == pushed.tobytes()


# -- reference: positivity by eigvalsh on every sample --------------------------


def eigvalsh_spd_stack(mats, label="sample {}"):
    """``symspace._spd_stack`` with one batched ``eigvalsh`` over every sample."""
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
        raise ValueError(f"expected square matrices, got shape {m.shape[1:]}")
    with np.errstate(all="ignore"):
        m = (m + m.swapaxes(1, 2)) / 2.0
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"{label.format(bad[0])} has a non-finite entry")
    eigs = np.linalg.eigvalsh(m)
    lo, hi = eigs[:, 0], eigs[:, -1]
    bad = np.flatnonzero(~((hi > 0.0) & (lo > SPECTRAL_TOL * hi)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"{label.format(k)} is not positive definite (eigenvalue range "
            f"[{lo[k]:.3e}, {hi[k]:.3e}])"
        )
    return m


def _stack_outcome(validate, mats):
    try:
        return validate(mats, "sample {}: matrix").tobytes()
    except ValueError as exc:
        return str(exc)


class TestSpdStackOracle:
    """Positivity by elimination against eigvalsh on every sample: the same
    stack or the same refusal."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        factors=st.lists(
            st.one_of(st.floats(0.5, 3.0), st.sampled_from([0.0, -1.0, 1e3, np.nan, np.inf])),
            min_size=1, max_size=12,
        ),
        power=st.sampled_from([-1060, -600, 0, 600, 1000]),
    )
    def test_matches_eigvalsh_everywhere(self, n, seed, factors, power):
        # sample k's least eigenvalue is factors[k] times SPECTRAL_TOL times
        # its largest, in stacks scaled by 2^power (subnormal to huge)
        rng = np.random.default_rng(seed)
        mats = []
        for f in factors:
            eigs = np.r_[1.0, rng.uniform(1.0, 2.0, n - 1)]
            eigs[0] = f * SPECTRAL_TOL * eigs.max() if np.isfinite(f) and f < 1e3 else f
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            mats.append(np.ldexp((q * eigs) @ q.T, power))
        with np.errstate(all="ignore"):
            mats = np.stack(mats)
        assert _stack_outcome(symspace._spd_stack, mats) == _stack_outcome(eigvalsh_spd_stack, mats)

    def test_planted_samples_near_the_cut(self, rng):
        # from the cut to 3 cuts, the elimination proves some samples and
        # eigvalsh decides the others, which all pass here
        n, factors = 4, np.linspace(1.01, 3.0, 200)
        mats = []
        for f in factors:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            mats.append((q * np.r_[f * SPECTRAL_TOL * 2.0, 1.0, 1.5, 2.0]) @ q.T)
        mats = np.stack(mats)
        rows = []
        eigvalsh = np.linalg.eigvalsh

        def counting(m):
            rows.append(len(m))
            return eigvalsh(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", counting)
            got = symspace._spd_stack(mats)
        assert got.tobytes() == eigvalsh_spd_stack(mats).tobytes()
        assert 0 < sum(rows) < len(mats)
