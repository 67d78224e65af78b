"""Seeded command lists for the three benchmark workloads, and their output checks.

A workload is a list of ``Command``s: the argv handed to ``wergm`` and a
check of what the command printed.  The seed fixes every input the
program sees (grid offsets, parameter points, chain seeds); the program
itself only sees the resulting argv.  Offsets are kept small so that the
amount of work per pass barely moves between seeds.

Why these three workloads (each one exercises some layers and bypasses
others, so a change to one layer has a workload where it should show and
one where it should not):

``phase-diagram``
    Reproduces the paper's tables and figures: the critical-corner table,
    the transition curve r(beta1) for p = 2 and p = 3, and the p = 3
    objective profiles with the V-region table.  ``phase_curve`` and the
    ``variational`` rescans and Newton tracking beneath it do almost all the
    work; ``graphs`` does none, so a sampler change should leave it
    unchanged.

``psi-laws``
    Many short one-shot commands: ``psi`` for the uniform, fair-coin and
    3-atom laws at p = 2, 3, 5, at points inside and outside the uniform
    law's V-region and on the p = 2 tie line, one ``rate`` grid per law,
    and ``gaussian`` at the three C11b points.  Every ``psi`` runs
    ``solve_psi`` cold (full scan, no continuation) and the finite-support
    path is several times costlier.  Interpreter start-up and CLI formatting
    are a large share, so set-up and ``cli`` regressions show here;
    ``phase_curve`` is unused.

``sampler``
    Metropolis chains at n = 40: two-star chains at the C09 points, a
    triangle chain at p = 3, and the 3-atom law in both CSV and JSON.
    ``graphs`` dominates (the O(n^2) two-star update, the O(n^3) triangle
    update and discrete draws).  The only ``variational`` work is one
    ``solve_psi`` per JSON command, in ``concentration_report``; a
    ``phase_curve`` change should leave this workload unchanged.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("phase-diagram", "psi-laws", "sampler")

#: C01 reference: p -> (theta0, n_theta0, u0, m_u0, g_theta0, f_u0), to 4 decimals.
C01_REFERENCE = {
    2: (0.0, 0.3333, 0.5, 3.0, 3.0, 3.0),
    3: (1.3251, 0.5575, 0.6073, 1.7937, 1.3222, 1.3222),
    5: (2.9869, 0.8324, 0.7183, 1.2014, 0.1059, 0.1059),
    10: (5.6256, 1.0894, 0.8259, 0.9180, -1.1723, -1.1723),
}
C01_TOL = 5e-4

#: Critical beta1 per p for the uniform law (C01, to the digits shown).
BETA1_C = {2: -3.0, 3: -1.3222, 5: -0.1059}

#: r(beta1) sampled on the uniform law's transition curve.  Linear
#: interpolation between these is within 0.01 of the curve, and on these
#: beta1 ranges the V-region reaches at least 0.19 either side of it, so a
#: point up to 0.12 off the interpolated curve has two local maxima.
CURVE_KNOTS = {
    2: ((-5.0, 5.0), (-4.0, 4.0)),
    3: ((-3.5, 3.880584968069403), (-2.5, 2.9025842657523326)),
    5: ((-2.0, 2.839003211056429), (-1.5, 2.3772785420987876), (-1.0, 1.931845415644574)),
}

#: The three edge-weight laws, as CLI flags, with their support interval.
LAWS = {
    "uniform": ((), (0.0, 1.0)),
    "coin": (("--dist", "bernoulli-half"), (0.0, 1.0)),
    "3-atom": (("--atoms", "0.2=0.3,0.5=0.4,0.8=0.3"), (0.2, 0.8)),
}

#: The C11b points (beta1, beta2, n) with their sample size.
C11B_POINTS = ((1.0, 0.0, 10), (1.0, 0.25, 10), (0.5, 0.4, 20))
C11B_SAMPLES = 100_000

#: C09 points (beta1, beta2, tolerance on |mean t_edge - u*|).
C09_POINTS = ((-5.0, 3.5, 0.03), (-2.5, 4.0, 0.03), (0.0, 0.0, 0.02))

#: A resync drift above this means the incremental density updates are wrong.
MAX_RESYNC_DRIFT = 1e-10

CHAIN_N = 40
ENTRIES_PER_SWEEP = CHAIN_N * (CHAIN_N + 1) // 2


class CheckError(Exception):
    """An output does not match what the command must produce."""


@dataclass
class Command:
    """One ``wergm`` invocation of a workload.

    ``work`` counts the workload's unit of work the command performs
    (curve points, psi solves or proposed chain entries; 0 for commands
    that only accompany it).  ``check(stdout, shared)`` raises
    ``CheckError`` on a wrong output and may return figures to report;
    ``shared`` is one dict per pass, so a later command can be compared
    with an earlier one.
    """

    argv: list[str]
    check: object
    work: int = 0
    label: str = ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _csv_rows(text: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    _require(reader.fieldnames == header, f"CSV header {reader.fieldnames} != {header}")
    rows = list(reader)
    for row in rows:
        for key in header:
            _require(math.isfinite(float(row[key])), f"non-finite {key} in {row}")
    return rows


def _grid(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _on_curve(p: int, beta1: float) -> float:
    """r(beta1) interpolated linearly between the knots around ``beta1``."""
    knots = CURVE_KNOTS[p]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if beta1 <= x1:
            return y0 + (beta1 - x0) * (y1 - y0) / (x1 - x0)
    raise ValueError(f"beta1 = {beta1} lies beyond the last knot for p = {p}")


# ---------------------------------------------------------------------------
# phase-diagram


def _check_critical_table(out: str, shared: dict) -> dict:
    keys = ("theta0", "n_theta0", "u0", "m_u0", "g_theta0", "f_u0")
    rows = _csv_rows(out, ["p", *keys, "beta1_c", "beta2_c"])
    _require([int(r["p"]) for r in rows] == [2, 3, 5, 10], "critical-table p column")
    for row in rows:
        ref = C01_REFERENCE[int(row["p"])]
        for key, want in zip(keys, ref):
            _require(abs(float(row[key]) - want) <= C01_TOL,
                     f"p={row['p']} {key}={row[key]} differs from C01 {want}")
        _require(float(row["beta1_c"]) == -float(row["f_u0"]), "beta1_c != -f(u0)")
        _require(float(row["beta2_c"]) == float(row["m_u0"]), "beta2_c != m(u0)")
    return {}


def _check_curve(p: int, grid: list[float]):
    def check(out: str, shared: dict) -> dict:
        rows = _csv_rows(out, ["beta1", "r", "u1_star", "u2_star", "psi"])
        _require(len(rows) == len(grid), f"{len(rows)} curve rows for {len(grid)} points")
        for row, beta1 in zip(rows, grid):
            b1, r = float(row["beta1"]), float(row["r"])
            u1, u2 = float(row["u1_star"]), float(row["u2_star"])
            _require(abs(b1 - beta1) <= 1e-9 * abs(beta1), f"beta1 {b1} != {beta1}")
            _require(0.0 < u1 < u2 < 1.0, f"maximizers {u1}, {u2} out of order")
            if p == 2:
                _require(abs(r + b1) <= 1e-6, f"p=2: |r + beta1| = {abs(r + b1):.3g} > 1e-6")
                _require(abs(u1 + u2 - 1.0) <= 1e-6, f"p=2: u1 + u2 = {u1 + u2} != 1")
            else:
                _require(r + b1 > 0.0, f"p={p}: r + beta1 = {r + b1} <= 0")
        return {}

    return check


def _check_figures(out_dir: Path, points, profile_points: int, grid: list[float]):
    def check(out: str, shared: dict) -> dict:
        payload = json.loads(out)
        files = payload["files"]
        _require(len(files) == len(points) + 1 and files[-1] == "vregion.csv",
                 f"figures wrote {files}")
        for name in files[:-1]:
            rows = _csv_rows((out_dir / name).read_text(encoding="utf-8"), ["u", "l", "l_d1"])
            _require(len(rows) == profile_points, f"{name}: {len(rows)} profile rows")
            us = [float(r["u"]) for r in rows]
            _require(all(0.0 < a < b < 1.0 for a, b in zip(us, us[1:])), f"{name}: u grid")
        rows = _csv_rows((out_dir / "vregion.csv").read_text(encoding="utf-8"),
                         ["beta1", "m_a", "m_b", "r"])
        _require(len(rows) == len(grid), f"{len(rows)} V-region rows for {len(grid)} points")
        for row in rows:
            b1, m_a, m_b, r = (float(row[k]) for k in ("beta1", "m_a", "m_b", "r"))
            _require(r + b1 > 0.0, f"p=3: r + beta1 = {r + b1} <= 0")
            _require(m_b < r < m_a, f"p=3: r = {r} outside ({m_b}, {m_a})")
        return {}

    return check


def _phase_diagram(rng: random.Random, out_dir: Path) -> list[Command]:
    commands = [Command(["critical-table", "--p", "2,3,5,10"], _check_critical_table,
                        label="critical-table")]
    # Curve grids: 6 points each, end points jittered by the seed.  p = 3
    # stays 0.2 below its corner, where the two maxima merge.
    for p, lo, hi in ((2, -8.0, -3.5), (3, -4.0, -1.6)):
        lo += rng.uniform(0.0, 0.3)
        hi -= rng.uniform(0.0, 0.2)
        grid = _grid(lo, hi, 6)
        spec = f"{_fmt(lo)}:{_fmt(hi)}:6"
        commands.append(Command(["phase-curve", "--p", str(p), "--beta1", spec],
                                _check_curve(p, grid), work=len(grid),
                                label=f"phase-curve p={p}"))
    points = [(-3.0 + rng.uniform(-0.3, 0.3), 3.4 + rng.uniform(-0.3, 0.3)),
              (-2.0 + rng.uniform(-0.3, 0.3), 2.4 + rng.uniform(-0.3, 0.3))]
    lo, hi = -4.5 + rng.uniform(0.0, 0.3), -1.5 - rng.uniform(0.0, 0.2)
    grid = _grid(lo, hi, 8)
    fig_dir = out_dir / "figures"
    argv = ["figures", "--p", "3", "--out-dir", str(fig_dir),
            "--points", ";".join(f"{_fmt(a)},{_fmt(b)}" for a, b in points),
            "--beta1", f"{_fmt(lo)}:{_fmt(hi)}:8"]
    commands.append(Command(argv, _check_figures(fig_dir, points, 512, grid),
                            work=len(grid), label="figures p=3"))
    return commands


# ---------------------------------------------------------------------------
# psi-laws


def _check_psi(support, *, tie: bool = False, c02: bool = False):
    lo, hi = support

    def check(out: str, shared: dict) -> dict:
        payload = json.loads(out)
        maxima = payload["maximizers"]
        _require(math.isfinite(payload["psi"]), "psi is not finite")
        _require(all(lo <= u <= hi for u in maxima), f"maximizers {maxima} outside {support}")
        _require(maxima == sorted(maxima), f"maximizers {maxima} not ascending")
        expected = {1: "unique", 2: "two-global"}.get(len(maxima))
        _require(payload["classification"] == expected,
                 f"{payload['classification']} with {len(maxima)} maximizers")
        if tie:
            # Every law here is symmetric about 1/2, so on beta2 = -beta1
            # (p = 2) the objective is symmetric and both maxima tie.
            _require(expected == "two-global", "tie-line point is not two-global")
            _require(abs(maxima[0] + maxima[1] - 1.0) <= 1e-6,
                     f"tie-line maximizers {maxima} not symmetric about 1/2")
        else:
            _require(expected == "unique", "off-tie point classified two-global")
        if c02:
            _require(abs(maxima[0] - 0.137) <= 1e-3 and abs(maxima[1] - 0.863) <= 1e-3,
                     f"C02 maximizers {maxima}")
            _require(abs(payload["psi"] + 1.0854) <= 1e-3, f"C02 psi {payload['psi']}")
        return {}

    return check


def _coin_rate(u: float) -> float:
    return u * math.log(2.0 * u) + (1.0 - u) * math.log(2.0 * (1.0 - u))


def _check_rate(law: str, grid: list[float]):
    def check(out: str, shared: dict) -> dict:
        rows = _csv_rows(out, ["u", "rate", "rate_d1", "rate_d2"])
        _require(len(rows) == len(grid), f"{len(rows)} rate rows for {len(grid)} points")
        us = [float(r["u"]) for r in rows]
        rates = [float(r["rate"]) for r in rows]
        slopes = [float(r["rate_d1"]) for r in rows]
        _require(all(x >= -1e-12 for x in rates), "negative rate")
        _require(all(float(r["rate_d2"]) > 0.0 for r in rows), "rate not convex")
        _require(all(a < b for a, b in zip(slopes, slopes[1:])), "rate_d1 not increasing")
        # The grid is symmetric about 1/2 and so are all three laws (C05).
        for a, b in zip(rates, reversed(rates)):
            _require(abs(a - b) <= 1e-10, f"rate not symmetric: {a} vs {b}")
        if law == "coin":
            for u, x in zip(us, rates):
                _require(abs(x - _coin_rate(u)) <= 1e-10, f"coin rate({u}) = {x}")
        return {}

    return check


def _check_gaussian(beta1: float, beta2: float, n: int):
    shrink = 1.0 - 2.0 * beta2
    psi_inf = beta1**2 / (2.0 * shrink)
    psi_n = psi_inf - math.log(shrink) / (2.0 * n)

    def check(out: str, shared: dict) -> dict:
        (row,) = _csv_rows(out, ["beta1", "beta2", "psi_n", "psi_inf", "mc_estimate", "std_error"])
        for key, want in (("psi_n", psi_n), ("psi_inf", psi_inf)):
            got = float(row[key])
            _require(abs(got - want) <= 1e-11 * max(1.0, abs(want)),
                     f"{key} = {got}, closed form {want}")
        se = float(row["std_error"])
        _require(se > 0.0, "non-positive standard error")
        # C11b is a known red: the z-score is reported, never gated.
        return {"mc_z": (float(row["mc_estimate"]) - psi_n) / se}

    return check


def _psi_laws(rng: random.Random, out_dir: Path) -> list[Command]:
    points = []
    for p in (2, 3, 5):
        knots = CURVE_KNOTS[p]
        beta1 = rng.uniform(knots[0][0], knots[-1][0])
        offset = rng.uniform(0.02, 0.12) * rng.choice((-1.0, 1.0))
        points.append((p, beta1, _on_curve(p, beta1) + offset))   # inside the V-region
        points.append((p, BETA1_C[p] + rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)))  # outside
    commands = []
    for law, (flags, support) in LAWS.items():
        for p, beta1, beta2 in points:
            argv = ["psi", "--p", str(p), "--beta1", _fmt(beta1), "--beta2", _fmt(beta2), *flags]
            commands.append(Command(argv, _check_psi(support), work=1, label=f"psi {law} p={p}"))
        # Below every law's corner on this line (3-atom: beta2 > 4.63).
        beta1 = -rng.uniform(5.5, 7.0)
        argv = ["psi", "--p", "2", "--beta1", _fmt(beta1), "--beta2", _fmt(-beta1), *flags]
        commands.append(Command(argv, _check_psi(support, tie=True), work=1,
                                label=f"psi {law} tie"))
    commands.append(Command(["psi", "--p", "2", "--beta1", "-5", "--beta2", "5"],
                            _check_psi((0.0, 1.0), tie=True, c02=True), work=1, label="psi C02"))
    for law, (flags, support) in LAWS.items():
        lo = support[0] + rng.uniform(0.02, 0.06)
        hi = support[0] + support[1] - lo
        grid = _grid(lo, hi, 19)
        argv = ["rate", "--u", f"{_fmt(lo)}:{_fmt(hi)}:19", *flags]
        commands.append(Command(argv, _check_rate(law, grid), label=f"rate {law}"))
    for beta1, beta2, n in C11B_POINTS:
        argv = ["gaussian", "--beta1", _fmt(beta1), "--beta2", _fmt(beta2), "--n", str(n),
                "--samples", str(C11B_SAMPLES), "--seed", str(rng.randrange(1, 2**31))]
        commands.append(Command(argv, _check_gaussian(beta1, beta2, n), label="gaussian C11b"))
    return commands


# ---------------------------------------------------------------------------
# sampler


def _check_sample_json(tol: float, key: str | None):
    def check(out: str, shared: dict) -> dict:
        payload = json.loads(out)
        _require(payload["classification"] == "unique", "chain target is not unique")
        (target,) = payload["targets"]
        mean = payload["mean_t_edge"]
        _require(abs(mean - target[0]) <= tol,
                 f"mean t_edge {mean} is {abs(mean - target[0]):.4f} from u* = {target[0]}")
        _require(abs(payload["deviations"][0][0] - abs(mean - target[0])) <= 1e-9,
                 "reported deviation disagrees with mean and target")
        _require(0.0 < payload["acceptance_rate"] <= 1.0, "acceptance rate out of range")
        _require(payload["max_resync_drift"] <= MAX_RESYNC_DRIFT,
                 f"resync drift {payload['max_resync_drift']:.3g}")
        if key is not None:
            shared[key] = mean
        return {}

    return check


def _check_sample_csv(sweeps: int, support, key: str):
    lo, hi = support

    def check(out: str, shared: dict) -> dict:
        rows = _csv_rows(out, ["sweep", "t_edge", "t_sub"])
        _require([int(r["sweep"]) for r in rows] == list(range(sweeps)), "sweep column")
        t_edge = [float(r["t_edge"]) for r in rows]
        _require(all(lo - 1e-9 <= x <= hi + 1e-9 for x in t_edge), "t_edge outside the support")
        # Same parameters and seed as the JSON command: same trajectory.
        mean = math.fsum(t_edge) / sweeps
        _require(abs(mean - shared[key]) <= 1e-9, f"CSV mean {mean} != JSON mean {shared[key]}")
        return {}

    return check


def _sampler(rng: random.Random, out_dir: Path) -> list[Command]:
    commands = []

    def sample(p, beta1, beta2, sweeps, burn_in, seed, fmt, flags, check, label):
        argv = ["sample", "--p", str(p), "--beta1", _fmt(beta1), "--beta2", _fmt(beta2),
                "--n", str(CHAIN_N), "--sweeps", str(sweeps), "--burn-in", str(burn_in),
                "--seed", str(seed), "--format", fmt, *flags]
        commands.append(Command(argv, check, work=(sweeps + burn_in) * ENTRIES_PER_SWEEP,
                                label=label))

    # Chains are shorter than C09's 2000 sweeps; at these points chains of
    # this length land within a third of the C09 tolerance (30 seeds each).
    for beta1, beta2, tol in C09_POINTS:
        sample(2, beta1, beta2, 200, 50, rng.randrange(1, 2**31), "json", (),
               _check_sample_json(tol, None), f"two-star ({beta1:g},{beta2:g})")
    # A single-phase triangle point: where a second local maximum competes
    # a chain this short can stay in the wrong basin.
    sample(3, -1.0, 1.0, 100, 50, rng.randrange(1, 2**31), "json", (),
           _check_sample_json(0.03, None), "triangle (-1,1)")
    flags, support = LAWS["3-atom"]
    seed = rng.randrange(1, 2**31)
    sample(2, 0.4, 0.4, 200, 50, seed, "json", flags,
           _check_sample_json(0.03, "atoms"), "3-atom json")
    sample(2, 0.4, 0.4, 200, 50, seed, "csv", flags,
           _check_sample_csv(200, support, "atoms"), "3-atom csv")
    return commands


def build(workload: str, seed: int, out_dir: Path) -> list[Command]:
    """The command list of ``workload`` for ``seed``; outputs go under ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    return {"phase-diagram": _phase_diagram, "psi-laws": _psi_laws,
            "sampler": _sampler}[workload](rng, out_dir)
