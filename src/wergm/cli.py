"""Command-line front end.

Every computation in the package is reachable here, emitting CSV or JSON
suitable for table-diffing::

    wergm rate --u 0.05:0.95:19
    wergm psi --p 2 --beta1 -5 --beta2 5
    wergm critical-table --p 2,3,5,10
    wergm phase-curve --p 2 --beta1 -8:-3.1:50
    wergm figures --p 2 --points="-5,3.5;-5,5" --out-dir figs
    wergm sample --p 2 --beta1 0 --beta2 0 --n 40 --sweeps 500 \\
        --burn-in 100 --seed 7 --format json
    wergm gaussian --beta1 1 --beta2 0.25 --n 10 --samples 100000 --seed 7

Conventions: floats are printed with 12 significant digits; CSV output is
comma-separated with a header row, LF line endings, and UTF-8 encoding;
JSON output is a single top-level object.  Stochastic commands require an
explicit ``--seed`` so repeated runs are byte-identical.  Any domain error
is reported as a one-line JSON record on stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from . import cramer
from .errors import InputValidationError, WergmError, check_seed

_MODULE = "cli"


def _fmt(x: float) -> str:
    """Canonical 12-significant-digit rendering of a float."""
    return f"{float(x):.12g}"


def _jf(x: float) -> float | None:
    """Float rounded to the same 12 significant digits for JSON payloads.

    NaN, an undefined value, becomes None (JSON null): JSON has no NaN.
    """
    if math.isnan(x):
        return None
    return float(_fmt(x))


def _invalid(message: str, operation: str, parameter: str) -> InputValidationError:
    return InputValidationError(
        message, module=_MODULE, operation=operation, offending_parameter=parameter
    )


def _parse_range(text: str, flag: str) -> list[float]:
    """Parse ``lo:hi:count`` into a grid, or a bare scalar into [value]."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise ValueError
            if count == 1:
                return [lo]
            step = (hi - lo) / (count - 1)
            return [lo + k * step for k in range(count)]
        raise ValueError
    except (ValueError, OverflowError):
        raise _invalid(
            f"{flag} expects a number or lo:hi:count, got {text!r}", "parse_range", flag
        ) from None


def _parse_dist(args) -> cramer.EdgeDistribution:
    """Resolve --dist / --atoms into an edge-weight law."""
    atoms = getattr(args, "atoms", None)
    if atoms is not None:
        pairs = []
        for chunk in atoms.split(","):
            try:
                value, prob = chunk.split("=")
                pairs.append((float(value), float(prob)))
            except ValueError:
                raise _invalid(
                    f"--atoms expects value=prob[,value=prob...], got {atoms!r}",
                    "parse_dist", "atoms",
                ) from None
        return cramer.finite_support(pairs)
    return cramer.NAMED_LAWS[getattr(args, "dist", "uniform01")]


@contextmanager
def _os_errors(path, operation: str, parameter: str):
    """Report an OSError on ``path`` as a typed record, not a traceback."""
    try:
        yield
    except OSError as err:
        raise _invalid(
            f"cannot write to {str(path)!r}: {err.strerror}", operation, parameter
        ) from None


def _create(path, operation: str, parameter: str):
    """Open ``path`` for writing as UTF-8 text with LF newlines."""
    with _os_errors(path, operation, parameter):
        return open(path, "w", encoding="utf-8", newline="")


def _check_out(args) -> None:
    """Raise the record opening ``args.out`` would, before any work, unopened."""
    out = getattr(args, "out", "-")
    if out == "-":
        return
    parent = os.path.dirname(os.path.abspath(out))
    with _os_errors(out, args.command, "out"):
        if not os.path.isdir(parent):
            os.stat(parent)  # a missing directory raises here
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


@contextmanager
def _open_out(args):
    """Yield a text stream for ``args.out``, with '-' meaning stdout."""
    if args.out == "-":
        yield sys.stdout
    else:
        with _create(args.out, args.command, "out") as handle:
            yield handle


def _write_csv(stream, header: list[str], rows) -> None:
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(stream, payload: dict) -> None:
    import json

    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rate(args) -> int:
    dist = _parse_dist(args)
    rows = []
    for u in _parse_range(args.u, "--u"):
        pair = cramer.dual_theta(dist, u)
        rows.append([_fmt(u), _fmt(cramer.rate_at(dist, pair)), _fmt(pair.theta),
                     _fmt(cramer.rate_d2_at(dist, pair))])
    with _open_out(args) as stream:
        _write_csv(stream, ["u", "rate", "rate_d1", "rate_d2"], rows)
    return 0


def _cmd_psi(args) -> int:
    from . import variational

    params = variational.ModelParams(args.beta1, args.beta2, args.p, _parse_dist(args))
    solution = variational.solve_psi(params)
    payload = {
        "p": args.p,
        "beta1": float(args.beta1),
        "beta2": float(args.beta2),
        "psi": _jf(solution.psi),
        "maximizers": [_jf(u) for u in solution.maximizers],
        "classification": solution.classification.value,
        "includes_endpoint": solution.includes_endpoint,
    }
    with _open_out(args) as stream:
        _write_json(stream, payload)
    return 0


def _cmd_critical_table(args) -> int:
    from . import critical

    try:
        p_list = [int(chunk) for chunk in args.p.split(",")]
    except ValueError:
        raise _invalid(
            f"--p expects a comma-separated integer list, got {args.p!r}",
            "critical-table", "p",
        ) from None
    rows = []
    for data in critical.critical_table(p_list):
        rows.append([
            str(data.p), _fmt(data.theta0), _fmt(data.n_theta0), _fmt(data.u0),
            _fmt(data.m_u0), _fmt(data.g_theta0), _fmt(data.f_u0),
            _fmt(data.beta1_c), _fmt(data.beta2_c),
        ])
    header = ["p", "theta0", "n_theta0", "u0", "m_u0", "g_theta0", "f_u0",
              "beta1_c", "beta2_c"]
    with _open_out(args) as stream:
        _write_csv(stream, header, rows)
    return 0


def _cmd_phase_curve(args) -> int:
    from . import phase_curve

    grid = _parse_range(args.beta1, "--beta1")
    rows = []
    for beta1 in grid:
        point = phase_curve.r_of_beta1(args.p, beta1)
        rows.append([
            _fmt(point.beta1), _fmt(point.r), _fmt(point.u1_star),
            _fmt(point.u2_star), _fmt(point.psi),
        ])
    header = ["beta1", "r", "u1_star", "u2_star", "psi"]
    with _open_out(args) as stream:
        _write_csv(stream, header, rows)
    return 0


def _profile_name(p: int, beta1: float, beta2: float) -> str:
    def tag(x: float) -> str:
        return _fmt(x).replace("-", "m").replace(".", "p")

    return f"profile_p{p}_b1_{tag(beta1)}_b2_{tag(beta2)}.csv"


def _cmd_figures(args) -> int:
    from . import critical, phase_curve, variational

    points = []
    try:
        for chunk in args.points.split(";"):
            beta1_text, beta2_text = chunk.split(",")
            points.append((float(beta1_text), float(beta2_text)))
    except ValueError:
        raise _invalid(
            f"--points expects 'b1,b2;b1,b2;...', got {args.points!r}",
            "figures", "points",
        ) from None
    if args.grid_points < 1:
        raise _invalid(
            f"--grid-points must be >= 1, got {args.grid_points}",
            "figures", "grid_points",
        )
    # One solve per u serves every point; if any u has no tilt, the first has none.
    profile = []
    for k in range(args.grid_points):
        u = (k + 1) / (args.grid_points + 1)
        try:
            profile.append((_fmt(u), cramer.dual_theta(cramer.UNIFORM01, u)))
        except WergmError as err:
            raise _invalid(
                f"--grid-points {args.grid_points} puts a profile point at u = {u!r}: {err}",
                "figures", "grid_points",
            ) from None
    out_dir = Path(args.out_dir)
    with _os_errors(out_dir, "figures", "out_dir"):
        out_dir.mkdir(parents=True, exist_ok=True)

    written = []
    for beta1, beta2 in points:
        params = variational.ModelParams(beta1, beta2, args.p)
        rows = [[u, _fmt(variational.objective_at(params, pair)),
                 _fmt(variational.objective_d1_at(params, pair))] for u, pair in profile]
        path = out_dir / _profile_name(args.p, beta1, beta2)
        with _create(path, "figures", "out_dir") as stream:
            _write_csv(stream, ["u", "l", "l_d1"], rows)
        written.append(path.name)

    if args.beta1 is None:
        corner = critical.find_theta0(args.p).beta1_c
        grid = _parse_range(f"{corner - 5.0}:{corner - 0.1}:25", "--beta1")
    else:
        grid = _parse_range(args.beta1, "--beta1")
    rows = []
    for beta1 in grid:
        bound, point = phase_curve._bound_and_tie(args.p, beta1)
        rows.append([_fmt(beta1), _fmt(bound.m_a), _fmt(bound.m_b), _fmt(point.r)])
    vregion = out_dir / "vregion.csv"
    with _create(vregion, "figures", "out_dir") as stream:
        _write_csv(stream, ["beta1", "m_a", "m_b", "r"], rows)
    written.append(vregion.name)

    _write_json(sys.stdout, {"out_dir": str(out_dir), "files": written})
    return 0


def _cmd_sample(args) -> int:
    from . import graphs, variational

    check_seed(args.seed, module=_MODULE, operation="sample", name="--seed")
    params = variational.ModelParams(args.beta1, args.beta2, args.p, _parse_dist(args))
    stats = graphs.run_sampler(
        params, args.n, sweeps=args.sweeps, burn_in=args.burn_in, seed=args.seed
    )
    if args.format == "csv":
        rows = [
            [str(k), _fmt(stats.t_edge_series[k]), _fmt(stats.t_sub_series[k])]
            for k in range(stats.sweeps)
        ]
        with _open_out(args) as stream:
            _write_csv(stream, ["sweep", "t_edge", "t_sub"], rows)
        return 0
    report = graphs.concentration_report(stats, params)
    payload = {
        "p": args.p,
        "beta1": float(args.beta1),
        "beta2": float(args.beta2),
        "n": args.n,
        "sweeps": args.sweeps,
        "burn_in": args.burn_in,
        "seed": args.seed,
        "mean_t_edge": _jf(stats.mean_t_edge),
        "mean_t_sub": _jf(stats.mean_t_sub),
        "se_t_edge": _jf(stats.se_t_edge),
        "se_t_sub": _jf(stats.se_t_sub),
        "acceptance_rate": _jf(stats.acceptance_rate),
        "max_resync_drift": _jf(stats.max_resync_drift),
        "classification": report.classification.value,
        "targets": [[_jf(a), _jf(b)] for a, b in report.targets],
        "deviations": [[_jf(a), _jf(b)] for a, b in report.deviations],
    }
    with _open_out(args) as stream:
        _write_json(stream, payload)
    return 0


def _cmd_gaussian(args) -> int:
    from . import gaussian_directed

    check_seed(args.seed, module=_MODULE, operation="gaussian", name="--seed")
    params = gaussian_directed.GaussianModelParams(args.beta1, args.beta2)
    exact = gaussian_directed.psi_n_exact(params, args.n)
    limit = gaussian_directed.psi_inf(params)
    estimate, std_error = gaussian_directed.psi_n_monte_carlo(
        params, args.n, args.samples, args.seed
    )
    row = [_fmt(args.beta1), _fmt(args.beta2), _fmt(exact), _fmt(limit),
           _fmt(estimate), _fmt(std_error)]
    header = ["beta1", "beta2", "psi_n", "psi_inf", "mc_estimate", "std_error"]
    with _open_out(args) as stream:
        _write_csv(stream, header, [row])
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like ``-8:-4:3`` or ``-5,3.5``.

    Stock argparse only treats ``-8`` / ``-8.5`` as values rather than
    flags; ranges and point lists start with a minus sign too, so widen
    the matcher to anything that begins ``-<digit>`` or ``-.<digit>``.
    (The stock matcher is assigned per instance, so override it there.)
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_dist_flags(sub):
    sub.add_argument(
        "--dist", default="uniform01", choices=list(cramer.NAMED_LAWS),
        help="edge-weight law (default uniform01)",
    )
    sub.add_argument(
        "--atoms", default=None,
        help="finite-support law as value=prob[,value=prob...]; overrides --dist",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wergm",
        description="Edge-weighted exponential random graph computations.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    sub = subparsers.add_parser("rate", help="large-deviation rate function table")
    sub.add_argument("--u", required=True, help="mean value or lo:hi:count grid")
    _add_dist_flags(sub)
    sub.add_argument("--out", default="-", help="output path (default stdout)")
    sub.set_defaults(handler=_cmd_rate)

    sub = subparsers.add_parser("psi", help="normalization constant and maximizers")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--beta1", type=float, required=True)
    sub.add_argument("--beta2", type=float, required=True)
    _add_dist_flags(sub)
    sub.add_argument("--out", default="-")
    sub.set_defaults(handler=_cmd_psi)

    sub = subparsers.add_parser("critical-table", help="critical corner per p")
    sub.add_argument("--p", required=True, help="comma-separated integer list")
    sub.add_argument("--out", default="-")
    sub.set_defaults(handler=_cmd_critical_table)

    sub = subparsers.add_parser("phase-curve", help="transition curve r(beta1)")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--beta1", required=True, help="value or lo:hi:count grid")
    sub.add_argument("--out", default="-")
    sub.set_defaults(handler=_cmd_phase_curve)

    sub = subparsers.add_parser(
        "figures", help="objective profiles and V-region boundary tables"
    )
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--points", required=True, help="'b1,b2;b1,b2;...'")
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--grid-points", type=int, default=512)
    sub.add_argument(
        "--beta1", default=None,
        help="V-region grid as lo:hi:count (default: 25 points below the corner)",
    )
    sub.set_defaults(handler=_cmd_figures)

    sub = subparsers.add_parser("sample", help="Metropolis trajectory statistics")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--beta1", type=float, required=True)
    sub.add_argument("--beta2", type=float, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--sweeps", type=int, required=True)
    sub.add_argument("--burn-in", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    _add_dist_flags(sub)
    sub.add_argument("--format", default="csv", choices=["csv", "json"])
    sub.add_argument("--out", default="-")
    sub.set_defaults(handler=_cmd_sample)

    sub = subparsers.add_parser(
        "gaussian", help="directed Gaussian model: exact vs Monte Carlo"
    )
    sub.add_argument("--beta1", type=float, required=True)
    sub.add_argument("--beta2", type=float, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", default="-")
    sub.set_defaults(handler=_cmd_gaussian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        return args.handler(args)
    except WergmError as err:
        import json

        sys.stderr.write(json.dumps(err.record()) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
