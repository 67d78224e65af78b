"""Check that a base commit and the working tree print the same results.

Usage, from the root of a checkout::

    python3 scripts/compare_outputs.py --base HEAD

Every command of the three benchmark workloads (``perfbench/workloads.py``)
at seeds 1, 2 and 3 runs once on each side, as ``python -m wergm`` in a
fresh interpreter with that side's ``src`` on ``PYTHONPATH``.  The base side
is a ``git archive`` export of ``--base``; the change side is the working
tree as it is.  Each side's commands write their files under a temporary
directory of its own, whose path reads ``<out>`` in stdout and stderr before
they are compared.  Every command whose exit code, stdout, stderr or written
files differ is listed, and the exit status is 1 if any does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]

from bench_pairs import _export  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _run_side(root: Path, out_root: Path) -> dict:
    """Run every command on one side; key -> (argv, code, stdout, stderr, files)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    results = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            out = out_root / f"{name}-{seed}"
            for index, command in enumerate(workloads.build(name, seed, out)):
                proc = subprocess.run([sys.executable, "-m", "wergm", *command.argv],
                                      cwd=root, env=env, capture_output=True, text=True)
                files = {str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
                results[(name, seed, index)] = (
                    [a.replace(str(out), "<out>") for a in command.argv],
                    proc.returncode,
                    proc.stdout.replace(str(out), "<out>"),
                    proc.stderr.replace(str(out), "<out>"),
                    files,
                )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        commit = _export(args.base, tmp / "base")
        base = _run_side(tmp / "base", tmp / "base-out")
        change = _run_side(ROOT, tmp / "change-out")

    parts = ("exit code", "stdout", "stderr", "files")
    differing = 0
    for key, (cmd, *base_result) in base.items():
        _, *change_result = change[key]
        diff = [part for part, b, c in zip(parts, base_result, change_result) if b != c]
        if diff:
            differing += 1
            name, seed, _ = key
            print(f"DIFFERS ({', '.join(diff)}): {name} seed {seed}: wergm {' '.join(cmd)}")
    print(f"{len(base)} commands, {differing} differ (base {commit[:12]} vs working tree)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
