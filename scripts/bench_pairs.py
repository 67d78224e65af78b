"""Paired benchmark runs of a base commit against the working tree.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --out BENCH_10.json \\
        --workload phase-diagram,psi-laws,sampler \\
        --seeds 1,2,3 --pairs 10 --seconds 40 --base HEAD

The base commit's files are exported with ``git archive`` into a temporary
directory, so the base side runs exactly what that commit holds.  The change
side runs a copy, in another temporary directory, of the working tree's files
that git tracks or would add, so neither side starts with the bytecode
(``__pycache__``) of an earlier run.  ``--workload`` takes one workload or a
comma-separated list.  Pair ``k`` uses seed ``seeds[k % len(seeds)]`` and
runs ``perfbench/run.py`` (unmodified, ``--trace 0``) once on each side for
each workload in turn, alternating which side goes first.  The output file
holds one section per workload under ``workloads``: every run's last-line
JSON, each side's median and quartiles of every end-to-end metric named in
``BENCHMARK.json``, the number of pairs each side won (ties count for
neither), and whether the change's median beats the base's by more than the
base's interquartile range.  Both sides' ``src/`` line counts are kept once.

``--trace 1`` runs ``perfbench/run.py --trace 1`` (unmodified) on each side
instead, which times each layer in process, and reports the same summary
for the per-layer timings of ``PER_LAYER``: in-process gains that the
end-to-end times of short commands cannot resolve.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The per-layer timings compared by ``--trace 1``.
PER_LAYER = (
    "variational.solve_psi_ms_p50",
    "critical.find_theta0_ms_p50",
    "phase_curve.point_ms_p50",
    "phase_curve.bounding_point_ms_p50",
    "graphs.us_per_entry",
    "gaussian_directed.mc_ms_p50",
)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--workload", default="sampler",
                        help="one workload or a comma-separated list")
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer timings of traced runs")
    return parser.parse_args(argv)


def _export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files under ``dest``."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a deleted file stays listed until staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run in {root} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _metrics(runs: list[dict], better: dict[str, str]) -> dict:
    """Each metric's quartiles per side, pairs won and the IQR test."""
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        if not any(base + change):
            continue  # a layer this workload does not run reads 0
        won = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
        lost = sum(sign * (c - b) < 0.0 for b, c in zip(base, change))
        base_s, change_s = _summary(base), _summary(change)
        gap = sign * (change_s["median"] - base_s["median"])
        metrics[name] = {
            "better": direction,
            "base": base_s,
            "change": change_s,
            "pairs_won_by_change": won,
            "pairs_won_by_base": lost,
            "median_gap_exceeds_base_iqr": gap > base_s["q3"] - base_s["q1"],
        }
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    names = args.workload.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        per_layer = {m["name"]: m["better"] for m in bench["per_layer"]}
        better = {name: per_layer[name] for name in PER_LAYER}
        progress = "trace.overhead_ratio"
    else:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        progress = "wall_s"

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp:
        base_root, change_root = Path(tmp), Path(change_tmp)
        commit = _export(args.base, base_root)
        _copy_worktree(change_root)
        roots = {"base": base_root, "change": change_root}
        runs = {name: [] for name in names}
        for k in range(args.pairs):
            seed = seeds[k % len(seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for name in names:
                pair = {"pair": k, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(roots[side], name, seed, args.seconds, args.trace)
                    value = pair[side]["metrics"][progress]["value"]
                    print(f"{name} pair {k} seed {seed} {side:6s} {progress} {value:.4g}",
                          flush=True)
                runs[name].append(pair)
        base_lines, change_lines = _src_lines(base_root), _src_lines(change_root)

    sections = {
        name: {
            "all_correct": all(r[s]["correct"] for r in rs for s in ("base", "change")),
            "metrics": _metrics(rs, better),
            "runs": rs,
        }
        for name, rs in runs.items()
    }
    result = {
        "seeds": seeds,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "base_commit": commit,
        "change": "working tree",
        "src_lines": {"base": base_lines, "change": change_lines},
        "workloads": sections,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, section in sections.items():
        for metric, m in section["metrics"].items():
            print(f"{name:13s} {metric:33s} base {m['base']['median']:.4g}"
                  f" change {m['change']['median']:.4g}"
                  f"  won {m['pairs_won_by_change']}/{args.pairs}"
                  f"  gap > base IQR: {m['median_gap_exceeds_base_iqr']}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
