"""Seeded job mixes for the benchmark, with the verdicts each job must reach.

A workload is a list of jobs. Each job is the argv of one ``rigidity-lab``
invocation (without ``--output``), the input files it reads, and the
verdict-level report fields it must produce. The inputs come from the seed
alone: the same seed gives byte-identical jobs and files. The seed moves
values only, never shapes (dimensions, grid sizes, sample counts), so the
work a job does is the same for every seed.

Expected values come from the theory the package implements and from the
controls its tests pin:

* a generic structure in dimension n >= 3 is 2-rigid: level-2 kernel 0, and
  the level-1 kernel is the n-dimensional shift family (dk determines phi2);
* ``product_nonrigid`` at epsilon = 0 is the non-generic control with a
  3-dimensional level-2 kernel at n = 3; epsilon > 0 restores genericity;
* a generic lightlike metric in total dimension >= 4 (the lightcone, or the
  lift of a generic chart) is (3,1) sub-rigid;
* the generalized braid system has kernel 0 for nondegenerate J, Jp and
  n >= 3; ``Jp = diag(1, 0, ..., 0)`` at n = 6 leaves a kernel of dimension
  6 that projects onto 6 dimensions of A and of K;
* ``so`` has finite type 1, ``co`` finite type 2 with an n-dimensional first
  prolongation, span{R} finite type 1 when rank R >= 2 and infinite type with
  one-dimensional prolongations when rank R = 1; ``lightlike_orth`` contains
  the rank-one maps ``x -> f(x) e_n``, so it is infinite type and its order-d
  prolongation holds every symmetric (d+1)-form times e_n.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "chart-grid": "certify/lightlike on builtin and dense seeded charts; the exact grid passes in gcs and ratfield do most of the work",
    "kernel-solve": "generalized, classical and symskew braid systems, block-structured and dense; braid assembly and SVD do most of the work",
    "prolong-curves": "prolongation spaces, rank-one search and sampled SPD curves with 0.5-1 MB reports; reaches prolongation, symspace and reportio",
}

MAX_ORDER = 3


@dataclass
class Job:
    """One CLI invocation and the report fields it must produce."""

    name: str
    argv: list[str]
    expect: dict[str, object]
    files: dict[str, bytes] = field(default_factory=dict)


def build(workload: str, seed: int) -> list[Job]:
    """The job list of a workload for a seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload '{workload}'; choose from {', '.join(WHY)}")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng)


def serialize(jobs: list[Job]) -> bytes:
    """Canonical bytes of a job list and its files (for determinism checks)."""
    doc = [
        {
            "name": j.name,
            "argv": j.argv,
            "expect": j.expect,
            "files": {k: v.decode("ascii") for k, v in sorted(j.files.items())},
        }
        for j in jobs
    ]
    return json.dumps(doc, sort_keys=True).encode("ascii")


# -- checking reports -------------------------------------------------------


def check_report(doc: dict, expect: dict[str, object]) -> list[str]:
    """Mismatches between a report and the expected verdict-level fields.

    Keys are dotted paths into the report; ``*`` runs over every element of
    a list, which must be nonempty.
    """
    problems = []
    for path, want in expect.items():
        for where, got in _resolve(doc, path.split("."), []):
            if got != want:
                problems.append(f"{'.'.join(where) or path}: expected {want!r}, got {got!r}")
    return problems


_MISSING = object()


def _resolve(node, parts: list[str], where: list[str]):
    if not parts:
        yield where, node
        return
    head, rest = parts[0], parts[1:]
    if head == "*":
        if not isinstance(node, list) or not node:
            yield where + ["*"], _MISSING
            return
        for k, item in enumerate(node):
            yield from _resolve(item, rest, where + [str(k)])
        return
    if not isinstance(node, dict) or head not in node:
        yield where + [head], _MISSING
        return
    yield from _resolve(node[head], rest, where + [head])


# -- expected fields ------------------------------------------------------


def _gcs_rigid(n: int) -> dict[str, object]:
    return {
        "verdict": "2-rigid",
        "samples.*.verdict": "2-rigid",
        "samples.*.genericity.nondegenerate": True,
        "samples.*.level1.kernel_dim": n,
        "samples.*.level1.projection_dims": {"dk": n, "phi2": n},
        "samples.*.level2.kernel_dim": 0,
        "samples.*.level2.verdict": "rigid",
        "samples.*.level2.projection_dims": {"A": 0, "K": 0},
        "chart_genericity.nowhere_parameter_constant": True,
        "chart_genericity.generic": True,
    }


_PRODUCT_CONTROL = {
    "verdict": "non-rigid",
    "samples.*.verdict": "non-rigid",
    "samples.*.genericity.nondegenerate": False,
    "samples.*.level1.kernel_dim": 3,
    "samples.*.level2.kernel_dim": 3,
    "samples.*.level2.verdict": "non_rigid",
    "chart_genericity.nowhere_parameter_constant": True,
    "chart_genericity.generic": False,
}

_BRAID_RIGID = {
    "report.kernel_dim": 0,
    "report.verdict": "rigid",
    "report.projection_dims": {"A": 0, "K": 0},
}


def _finite(order: int, dims: dict[int, int]) -> dict[str, object]:
    return {
        "type.kind": "finite",
        "type.order": order,
        "prolongation_dims": {str(d): v for d, v in dims.items()},
    }


def _infinite(dims: dict[int, int]) -> dict[str, object]:
    return {"type.kind": "infinite", "prolongation_dims": {str(d): v for d, v in dims.items()}}


# -- value generators -----------------------------------------------------


def _num(x: float) -> str:
    return f"{x:.2f}"


def _point(rng: random.Random, n: int, half: float) -> str:
    """``--point=...`` with coordinates in [-half, half] (the ``=`` keeps a
    leading minus sign from reading as a flag)."""
    return "--point=" + ",".join(_num(rng.uniform(-half, half)) for _ in range(n))


def _param(rng: random.Random) -> str:
    """A parameter value inside the builtin interval [0.5, 2]."""
    return _num(rng.uniform(0.6, 1.9))


def _eighths(rng: random.Random, lo: int, hi: int, signed: bool = False) -> Fraction:
    """k/8 for a random odd k in [lo, hi]: an odd numerator keeps the
    denominator at 8, so the cost of exact arithmetic does not move with the
    seed."""
    value = Fraction(rng.randrange(lo | 1, hi + 1, 2), 8)
    return -value if signed and rng.random() < 0.5 else value


def _exps(nv: int, powers: dict[int, int] | None = None) -> list[int]:
    """Exponent vector over the variables (x_1, ..., x_n, r)."""
    e = [0] * nv
    for var, p in (powers or {}).items():
        e[var] += p
    return e


def dense_chart(rng: random.Random, n: int) -> dict:
    """A dense chart with rational denominators, positive on its whole box.

    On the box [-1, 1]^n x [1/2, 2], each off-diagonal entry
    ``(a + b x_p + c r) / (2 + x_q)`` with |a|, |b|, |c| <= 3/8 has absolute
    value at most 3/2, and each diagonal entry
    ``(s + t r + u x_k^2) / (1 + x_m^2 / 4)`` with s >= 57/8, t >= 17/8,
    u > 0 is at least 6.5 > 3/2 (n - 1) for n = 4, so the matrix is strictly
    diagonally dominant with a positive diagonal. The r-derivative is
    dominant the same way (diagonal >= 1.7, off-diagonal <= 3/8), so the
    chart is generic. Every coefficient is nonzero, so the term count does
    not depend on the seed.
    """
    if n != 4:
        raise ValueError("the dominance bounds are worked out for n = 4")
    nv = n + 1
    r = n  # index of the parameter variable
    entries = []
    for i in range(n):
        k, m = rng.randrange(n), rng.randrange(n)
        num = [
            (_eighths(rng, 57, 71), _exps(nv)),
            (_eighths(rng, 17, 23), _exps(nv, {r: 1})),
            (_eighths(rng, 1, 7), _exps(nv, {k: 2})),
        ]
        den = [(Fraction(1), _exps(nv)), (Fraction(1, 4), _exps(nv, {m: 2}))]
        entries.append(_entry(i, i, num, den))
    for i in range(n):
        for j in range(i + 1, n):
            p, q = rng.randrange(n), rng.randrange(n)
            num = [
                (_eighths(rng, 1, 3, signed=True), _exps(nv)),
                (_eighths(rng, 1, 3, signed=True), _exps(nv, {p: 1})),
                (_eighths(rng, 1, 3, signed=True), _exps(nv, {r: 1})),
            ]
            den = [(Fraction(2), _exps(nv)), (Fraction(1), _exps(nv, {q: 1}))]
            entries.append(_entry(i, j, num, den))
    return {
        "kind": "gcs",
        "n": n,
        "domain": [[-1, 1]] * n,
        "interval": [0.5, 2],
        "entries": entries,
    }


def _entry(i: int, j: int, num, den) -> dict:
    return {
        "i": i,
        "j": j,
        "num": [[str(c), e] for c, e in num],
        "den": [[str(c), e] for c, e in den],
    }


def dominant_form(rng: random.Random, n: int, indefinite: bool) -> list[list[float]]:
    """Dense symmetric form, nondegenerate by strict diagonal dominance.

    Diagonal magnitudes lie in [2, 3]; off-diagonal entries in
    [-0.25, 0.25] sum to at most 0.25 (n - 1) < 2 per row for n <= 8, so the
    signs of the diagonal give the signature.
    """
    if n > 8:
        raise ValueError("the dominance bound holds for n <= 8")
    signs = [1.0] * n
    if indefinite:
        negatives = rng.sample(range(n), rng.randint(1, n - 1))
        for k in negatives:
            signs[k] = -1.0
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = signs[i] * round(rng.uniform(2.0, 3.0), 3)
        for j in range(i + 1, n):
            v = round(rng.uniform(-0.25, 0.25), 3)
            if v == 0.0:
                v = 0.125
            m[i][j] = m[j][i] = v
    return m


def _positive_diag(rng: random.Random, n: int) -> str:
    return "diag:" + ",".join(_num(rng.uniform(0.5, 2.0)) for _ in range(n))


def _int_vector(rng: random.Random, n: int) -> list[int]:
    v = [rng.randint(-3, 3) for _ in range(n)]
    if not any(v):
        v[rng.randrange(n)] = 1
    return v


def rank_one_matrix(rng: random.Random, n: int) -> list[list[int]]:
    v, a = _int_vector(rng, n), _int_vector(rng, n)
    return [[v[i] * a[j] for j in range(n)] for i in range(n)]


def full_rank_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Integer matrix with diagonal 5..8 and off-diagonal entries in [-1, 1]:
    strictly diagonally dominant, hence of full rank n."""
    return [
        [rng.randint(5, 8) if i == j else rng.randint(-1, 1) for j in range(n)]
        for i in range(n)
    ]


def generator_matrices(rng: random.Random, n: int, count: int) -> list[list[list[float]]]:
    """``count`` fixed generic matrices times a seeded power of two.

    The rank-one search is a Nelder-Mead polish from starting points set by
    the subspace, and its cost varies fourfold between freshly drawn
    subspaces. Scaling every generator by 2^k changes no rounding, so the
    seed moves the values without moving the work.
    """
    base_rng = random.Random("generators")
    scale = 2.0 ** rng.randint(-3, 3)
    return [
        [[scale * round(base_rng.uniform(-1.0, 1.0), 3) for _ in range(n)] for _ in range(n)]
        for _ in range(count)
    ]


def spd_curve(rng: random.Random, n: int, samples: int, closed: bool) -> dict:
    """Curve ``t -> C(t) C(t)^T + I/2`` with a trigonometric C(t).

    Every sample is positive definite (at least I/2 before rounding to six
    decimals). A closed curve runs over one period, and its last sample is
    a copy of the first, so the endpoints agree exactly.
    """
    modes = [[[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)] for _ in range(5)]
    sweep = 2.0 * math.pi if closed else 1.5 * math.pi
    out = []
    for s in range(samples):
        t = s / (samples - 1)
        a = sweep * t
        weights = (1.0, math.cos(a), math.sin(a), math.cos(2 * a), math.sin(2 * a))
        c = [
            [sum(w * mode[i][j] for w, mode in zip(weights, modes)) for j in range(n)]
            for i in range(n)
        ]
        b = [
            [
                round(sum(c[i][k] * c[j][k] for k in range(n)) + (0.5 if i == j else 0.0), 6)
                for j in range(n)
            ]
            for i in range(n)
        ]
        out.append({"t": t, "matrix": b})
    if closed:
        out[-1]["matrix"] = [row[:] for row in out[0]["matrix"]]
    return {"closed": closed, "samples": out}


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


# -- workloads -------------------------------------------------------------


# Each workload has an odd number of jobs, so the pooled median job wall
# (job_p50_s) falls among the samples of one job rather than between two.


def _chart_grid(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (3, 4, 5):
        jobs.append(
            Job(
                f"conformal_flat-n{n}",
                ["certify", "--builtin", "conformal_flat", "--n", str(n),
                 _point(rng, n, 0.9), "--r", _param(rng)],
                _gcs_rigid(n),
            )
        )
    # a grid that differs from the chart's default also takes the CLI's
    # chart rebuild path, which validates the grid a second time
    jobs.append(
        Job(
            "conformal_flat-n3-grid8",
            ["certify", "--builtin", "conformal_flat", "--n", "3", "--grid", "8",
             _point(rng, 3, 0.9), "--r", _param(rng)],
            {**_gcs_rigid(3), "grid": 8, "chart_genericity.grid": 8},
        )
    )
    jobs.append(
        Job(
            "product_nonrigid-n3",
            ["certify", "--builtin", "product_nonrigid", "--n", "3",
             _point(rng, 3, 0.9), "--r", _param(rng)],
            _PRODUCT_CONTROL,
        )
    )
    eps = _eighths(rng, 1, 7)
    jobs.append(
        Job(
            "product_nonrigid-n4-eps",
            ["certify", "--builtin", "product_nonrigid", "--n", "4",
             "--params", json.dumps({"epsilon": str(eps)}),
             _point(rng, 4, 0.9), "--r-samples", "0.5,1,2"],
            _gcs_rigid(4),
        )
    )
    jobs.append(
        Job(
            "dense-chart-n4",
            ["certify", "--chart", "dense_chart.json", _point(rng, 4, 0.9), "--r", _param(rng)],
            _gcs_rigid(4),
            {"dense_chart.json": _json_bytes(dense_chart(rng, 4))},
        )
    )
    jobs.append(
        Job(
            "lightcone-n5",
            ["lightlike", "--builtin", "lightcone", "--n", "5",
             _point(rng, 4, 0.45), "--r", _param(rng)],
            {
                "verdict": "(3,1) sub-rigid",
                "samples.*.genericity.nondegenerate": True,
                "samples.*.step1.kernel_dim": 0,
                "samples.*.step2.kernel_dim": 0,
                "samples.*.step2.projection_dims": {"delta2": 0, "phi3": 0},
            },
        )
    )
    jobs.append(
        Job(
            "lightlike-lift-conformal_flat-n3",
            ["lightlike", "--builtin", "conformal_flat", "--n", "3",
             _point(rng, 3, 0.9), "--r", _param(rng)],
            {
                "verdict": "(3,1) sub-rigid",
                "samples.*.genericity.nondegenerate": True,
                "samples.*.step1.kernel_dim": 0,
                "samples.*.step2.kernel_dim": 0,
            },
        )
    )
    return jobs


def _kernel_solve(rng: random.Random) -> list[Job]:
    jobs = []
    # J = identity with a diagonal Jp: block-structured systems
    for n in (6, 7, 8, 9):
        jobs.append(
            Job(
                f"generalized-n{n}-diagonal",
                ["braid", "--n", str(n), "--J", "identity", "--Jp", _positive_diag(rng, n)],
                _BRAID_RIGID,
            )
        )
    # the same shapes with dense indefinite forms: no block structure
    for n in (7, 8):
        j = dominant_form(rng, n, indefinite=True)
        jp = dominant_form(rng, n, indefinite=True)
        jobs.append(
            Job(
                f"generalized-n{n}-dense",
                ["braid", "--n", str(n), "--J", json.dumps(j), "--Jp", json.dumps(jp)],
                _BRAID_RIGID,
            )
        )
    jobs.append(
        Job(
            "generalized-n6-degenerate",
            ["braid", "--n", "6", "--J", "identity", "--Jp", "diag:1,0,0,0,0,0", "--kernel-basis"],
            {
                "report.kernel_dim": 6,
                "report.verdict": "non_rigid",
                "report.projection_dims": {"A": 6, "K": 6},
            },
        )
    )
    jobs.append(
        Job(
            "classical-n8-minkowski",
            ["braid", "--variant", "classical", "--n", "8", "--J", "minkowski"],
            {"report.kernel_dim": 0, "report.verdict": "rigid"},
        )
    )
    jobs.append(
        Job(
            "classical-n8-dense",
            ["braid", "--variant", "classical", "--n", "8",
             "--J", json.dumps(dominant_form(rng, 8, indefinite=True))],
            {"report.kernel_dim": 0, "report.verdict": "rigid"},
        )
    )
    jobs.append(
        Job(
            "symskew-n5",
            ["braid", "--variant", "symskew", "--n", "5"],
            {"report.kernel_dim": 0, "report.verdict": "rigid"},
        )
    )
    jobs.append(
        Job(
            "product_nonrigid-n3-basis",
            ["certify", "--builtin", "product_nonrigid", "--n", "3", "--kernel-basis",
             _point(rng, 3, 0.9), "--r", _param(rng)],
            _PRODUCT_CONTROL,
        )
    )
    return jobs


def _sym_forms_dim(n: int, d: int) -> int:
    """Dimension of the symmetric (d+1)-forms on R^n."""
    return math.comb(n + d, d + 1)


def _prolong_curves(rng: random.Random) -> list[Job]:
    jobs = []
    orders = range(1, MAX_ORDER + 1)
    for n in (4, 5, 6):
        jobs.append(
            Job(
                f"co-n{n}",
                ["prolong", "--algebra", "co", "--n", str(n)],
                _finite(2, {d: (n if d == 1 else 0) for d in orders}),
            )
        )
    jobs.append(
        Job("so-n6", ["prolong", "--algebra", "so", "--n", "6"], _finite(1, {d: 0 for d in orders}))
    )
    for n in (4, 5):
        jobs.append(
            Job(
                f"lightlike_orth-n{n}",
                ["prolong", "--algebra", "lightlike_orth", "--n", str(n)],
                _infinite({d: _sym_forms_dim(n, d) for d in orders}),
            )
        )
    jobs.append(
        Job(
            "one_param-rank1-n4",
            ["prolong", "--algebra", "one_param", "--R", json.dumps(rank_one_matrix(rng, 4))],
            _infinite({d: 1 for d in orders}),
        )
    )
    jobs.append(
        Job(
            "one_param-rank1-n5",
            ["prolong", "--algebra", "one_param", "--R", json.dumps(rank_one_matrix(rng, 5))],
            _infinite({d: 1 for d in orders}),
        )
    )
    jobs.append(
        Job(
            "one_param-full-rank-n4",
            ["prolong", "--algebra", "one_param", "--R", json.dumps(full_rank_matrix(rng, 4))],
            _finite(1, {d: 0 for d in orders}),
        )
    )
    # a generic 3-dimensional subspace of gl(4) holds no rank-one matrix and
    # has a trivial first prolongation (52 constraints on 40 unknowns)
    jobs.append(
        Job(
            "custom-3gen-n4",
            ["prolong", "--algebra", "custom", "--generators",
             json.dumps(generator_matrices(rng, 4, 3))],
            _finite(1, {d: 0 for d in orders}),
        )
    )
    for n, samples, closed in ((3, 2000, True), (6, 400, True), (4, 500, False)):
        fname = f"curve_n{n}.json"
        argv = ["symspace", "--curve", fname]
        expect = {"samples": samples, "dimension": n, "closed": closed}
        if closed:
            argv += ["--resample", str(samples)]
            expect["resampled.samples"] = samples
        jobs.append(
            Job(
                f"symspace-{'closed' if closed else 'open'}-n{n}",
                argv,
                expect,
                {fname: _json_bytes(spd_curve(rng, n, samples, closed))},
            )
        )
    return jobs


_BUILDERS = {
    "chart-grid": _chart_grid,
    "kernel-solve": _kernel_solve,
    "prolong-curves": _prolong_curves,
}
