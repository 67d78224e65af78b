"""Check that a base commit and the working tree print the same results.

Usage, from the root of a checkout::

    python3 scripts/compare_outputs.py --base HEAD

Every command of the three benchmark workloads (``perfbench/workloads.py``)
at seeds 1, 2 and 3 runs once on each side, as ``python -m wergm`` in a
fresh interpreter with that side's ``src`` on ``PYTHONPATH``, and so does
each malformed command of ``BAD_INPUTS``, whose error record is its
stderr, so that a changed record, or a file a failing command leaves
behind, shows as a difference, and each ``phase-curve`` command of
``CURVE_EDGES``, whose rows near the corners and at deep ties show the
digits a change to the tie search moves, each fair-coin command of
``COIN_TAILS``, which shows the digits a change to the coin's evaluators
moves in its tails, and each command of ``ENDPOINT_TIES``, whose maxima
lie within rounding of an atom endpoint's value.  The base side is a
``git archive`` export of ``--base``; the change side is the working tree
as it is.  Each side's commands write their files under a temporary
directory of its own, whose path reads ``<out>``, and the side's root
``<root>``, in stdout and stderr before they are compared.  Every command
whose exit code, stdout, stderr or written files differ is listed, the
workload commands, the bad inputs, the curve edges, the coin tails and the
endpoint ties are counted apart, and the exit status is 1 if any differs.
Under each one, for stdout, stderr and every written file that differs,
come the largest absolute and relative difference of each numeric CSV
column or JSON field that changed, then the changed lines: for a CSV table
of unchanged shape, each changed row's first cell and its changed cells as
``base→change``; otherwise a line diff (``-`` base, ``+`` change).  A file
that only one side wrote is named with its size.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
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

#: An integer beyond the float range, as a command-line count or order.
HUGE = "1" + "0" * 400

#: Malformed commands by name, each of which must end in one error record
#: and leave no file behind (``tests/test_cli.py`` runs them too).  A count
#: that is large but still finite as a float would build its grid or chain
#: before failing.  ``{out}`` in an argument is the command's own output
#: directory.
BAD_INPUTS = {
    "psi-p": ["psi", "--p", HUGE, "--beta1", "0", "--beta2", "0"],
    "critical-table-p": ["critical-table", "--p", HUGE],
    "sample-n": ["sample", "--p", "2", "--beta1", "0", "--beta2", "0", "--n", HUGE,
                 "--sweeps", "1", "--burn-in", "0", "--seed", "1"],
    "gaussian-samples": ["gaussian", "--beta1", "0", "--beta2", "0", "--n", "2",
                         "--samples", HUGE, "--seed", "1"],
    "rate-count": ["rate", "--u", f"0.1:0.9:{HUGE}"],
    "rate-nan": ["rate", "--u", "nan"],
    "psi-beta1-nan": ["psi", "--p", "2", "--beta1", "nan", "--beta2", "0"],
    "figures-points-nan": ["figures", "--p", "3", "--points", "nan,1",
                           "--out-dir", "{out}/figs"],
    "figures-above-corner": ["figures", "--p", "3", "--points=-3,3.1",
                             "--beta1=-1:-0.5:2", "--out-dir", "{out}/figs"],
    # /dev/null is a character device, so no directory can be made under it.
    "figures-out-dir-under-file": ["figures", "--p", "2", "--points=-5,3.5",
                                   "--out-dir", "/dev/null/figs"],
    # theta0 lies past THETA_MAX from p of about 1390 on.
    "critical-table-past-cap": ["critical-table", "--p", "1401"],
    "rate-past-cap": ["rate", "--u", "0.999"],
    "rate-out-is-dir": ["rate", "--u", "0.5", "--out", "/"],
    "rate-out-empty": ["rate", "--u", "0.5", "--out", ""],
    # open resolves ".." from /dev/null, which is not a directory.
    "rate-out-above-device": ["rate", "--u", "0.5", "--out", "/dev/null/.."],
    "figures-out-dir-through-device": ["figures", "--p", "2", "--points=-5,3.5",
                                       "--out-dir", "/dev/null/../figs"],
    # <out> does not exist when a command starts: open stops at it, while
    # figures makes it, reaches the name past the file system's limit, and
    # removes <out> again.
    "rate-out-name-too-long": ["rate", "--u", "0.5", "--out", "{out}/" + "a" * 300],
    "figures-out-dir-name-too-long": ["figures", "--p", "2", "--points=-5,3.5",
                                      "--out-dir", "{out}/" + "a" * 300],
    "rate-count-zero": ["rate", "--u", "0.3:0.7:0"],
    "rate-atoms-without-prob": ["rate", "--u", "0.5", "--atoms", "0.2:0.5"],
    "figures-points-without-comma": ["figures", "--p", "3", "--points", "1;2",
                                     "--out-dir", "{out}/figs"],
}

#: Transition-curve rows where the tie search is least well conditioned:
#: six beta1 within 0.1 of each corner (from 0.001 below it at p = 2, 3, 5,
#: 10 and 150), where the tie nears a double root, and three deep ties.
CURVE_EDGES = {
    "p2-corner": ["phase-curve", "--p", "2", "--beta1=-3.1:-3.001:6"],
    "p3-corner": ["phase-curve", "--p", "3", "--beta1=-1.42224:-1.32324:6"],
    "p5-corner": ["phase-curve", "--p", "5", "--beta1=-0.205891:-0.106891:6"],
    "p10-corner": ["phase-curve", "--p", "10", "--beta1=1.0723:1.1713:6"],
    "p150-corner": ["phase-curve", "--p", "150", "--beta1=18.7758:18.8748:6"],
    "p2-deep": ["phase-curve", "--p", "2", "--beta1=-1e12:-1e6:3"],
}

#: Fair-coin commands in the tails, where the coin's evaluators are most
#: sensitive to how its tilted sums are written: rates within 1e-3 of each
#: atom, maxima far into either tail and at the p = 2 corner, and a chain.
COIN_TAILS = {
    "rate-low": ["rate", "--dist", "bernoulli-half", "--u", "1e-12:1e-3:7"],
    "rate-high": ["rate", "--dist", "bernoulli-half", "--u", "0.999:0.999999999:7"],
    **{f"psi-{b1}-{b2}-p{p}": ["psi", "--dist", "bernoulli-half", "--p", p,
                               f"--beta1={b1}", f"--beta2={b2}"]
       for b1, b2, p in (("20", "0", "2"), ("-12", "6", "10"), ("-300", "300", "2"),
                         ("-30", "25", "3"), ("-0.5", "0.5", "2"), ("-1", "0.5", "5"))},
    "sample-json": ["sample", "--p", "2", "--beta1=-1", "--beta2", "1", "--n", "6",
                    "--sweeps", "50", "--burn-in", "5", "--seed", "3",
                    "--dist", "bernoulli-half", "--format", "json"],
}

#: Atom laws whose maximum lies so far into a tail that its value ties
#: the nearby endpoint atom's: a mean that floats can still tell from the
#: atom 0 (four psi points and a chain's targets), and a mean that rounds
#: onto the atom 1 or -1 and is reported as that endpoint.
ENDPOINT_TIES = {
    **{f"coin-{b1}-{b2}-p2": ["psi", "--dist", "bernoulli-half", "--p", "2",
                              f"--beta1={b1}", f"--beta2={b2}"]
       for b1, b2 in (("-20", "0"), ("-60", "0"), ("-40", "40"))},
    **{f"q0.3-{b1}-{b2}-p{p}": ["psi", "--atoms", "0=0.3,1=0.7", "--p", p,
                                f"--beta1={b1}", f"--beta2={b2}"]
       for b1, b2, p in (("-60", "0", "2"), ("-300", "40", "3"))},
    "q0.7-60-0-p2": ["psi", "--atoms", "0=0.7,1=0.3", "--p", "2", "--beta1=60",
                     "--beta2=0"],
    "three-atoms--20-0-p2": ["psi", "--atoms=-1=0.2,0.5=0.5,2=0.3", "--p", "2",
                            "--beta1=-20", "--beta2=0"],
    "sample-json": ["sample", "--p", "2", "--beta1=-20", "--beta2", "0", "--n", "6",
                    "--sweeps", "20", "--burn-in", "5", "--seed", "3",
                    "--atoms", "0=0.3,1=0.7", "--format", "json"],
}

#: The groups of single commands, by the name their commands are listed
#: and counted under.
GROUPS = {"bad input": BAD_INPUTS, "curve edge": CURVE_EDGES, "coin tail": COIN_TAILS,
          "endpoint tie": ENDPOINT_TIES}


def _run(root: Path, env: dict, argv: list[str], out: Path) -> tuple:
    """One command: (argv, code, stdout, stderr, files), with ``out`` as <out>."""
    proc = subprocess.run([sys.executable, "-m", "wergm", *argv],
                          cwd=root, env=env, capture_output=True, text=True)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}

    def mask(text: str) -> str:
        return (text.replace(str(out), "<out>").replace(str(root), "<root>")
                .replace(HUGE, "<401-digit integer>"))

    return [mask(a) for a in argv], proc.returncode, mask(proc.stdout), mask(proc.stderr), files


def _run_side(root: Path, out_root: Path) -> dict:
    """Run every command on one side; key -> (argv, code, stdout, stderr, files).

    A key is ``(group, name, seed, index)``: a workload command's group is
    ``"workload"``, and a single command's seed and index are None and 0.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    results = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            out = out_root / f"{name}-{seed}"
            for index, command in enumerate(workloads.build(name, seed, out)):
                results[("workload", name, seed, index)] = _run(root, env, command.argv, out)
    for group, commands in GROUPS.items():
        for name, argv in commands.items():
            out = out_root / group.replace(" ", "-") / name
            results[(group, name, None, 0)] = _run(
                root, env, [a.format(out=out) for a in argv], out)
    return results


def _numeric_fields(text: str) -> dict[str, list[float]]:
    """Numbers of a JSON or CSV text by field or column name, in order."""
    fields: dict[str, list[float]] = {}
    try:
        data = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            for name, cell in zip(rows[0], row):
                try:
                    fields.setdefault(name, []).append(float(cell))
                except ValueError:
                    pass
        return fields

    def walk(value, path: str) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                walk(item, f"{path}[]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            fields.setdefault(path, []).append(float(value))

    walk(data, "")
    return fields


def _describe(label: str, base: str, change: str) -> list[str]:
    """Per-field largest differences, then the changed lines, of one output."""
    lines = []
    base_fields, change_fields = _numeric_fields(base), _numeric_fields(change)
    for name, old in base_fields.items():
        new = change_fields.get(name)
        if new is None or len(new) != len(old):
            continue
        diffs = [(abs(c - b), abs(c - b) / abs(b) if b else math.inf)
                 for b, c in zip(old, new) if c != b]
        if diffs:
            lines.append(f"    {label} {name}: max abs {max(d for d, _ in diffs):.3g}, "
                         f"max rel {max(r for _, r in diffs):.3g} "
                         f"({len(diffs)} of {len(old)} values)")
    old_rows = list(csv.reader(io.StringIO(base)))
    new_rows = list(csv.reader(io.StringIO(change)))
    if (len(old_rows) == len(new_rows) > 1 and old_rows[0] == new_rows[0]
            and all(len(row) == len(old_rows[0]) for row in old_rows + new_rows)):
        # A CSV table of the same shape: each changed row as its changed cells.
        header = old_rows[0]
        for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
            cells = [f"{name} {a}→{b}" for name, a, b in zip(header, old_row, new_row)
                     if a != b]
            if cells:
                lines.append(f"    {label} {header[0]}={old_row[0]}: {', '.join(cells)}")
        return lines
    for line in difflib.unified_diff(base.splitlines(), change.splitlines(), n=0,
                                     lineterm=""):
        if not line.startswith(("---", "+++", "@@")):
            lines.append(f"    {label} {line}")
    return lines


def _details(base_result, change_result) -> list[str]:
    _, base_out, base_err, base_files = base_result
    _, change_out, change_err, change_files = change_result
    lines = []
    for label, old, new in (("stdout", base_out, change_out),
                            ("stderr", base_err, change_err)):
        if old != new:
            lines += _describe(label, old, new)
    for name in sorted(base_files.keys() | change_files.keys()):
        old, new = base_files.get(name), change_files.get(name)
        if old is None or new is None:
            side, data = ("change", new) if old is None else ("base", old)
            lines.append(f"    {name}: written by the {side} side only ({len(data)} bytes)")
        elif old != new:
            lines += _describe(name, old.decode("utf-8", "replace"),
                               new.decode("utf-8", "replace"))
    return lines


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
    counts = {group: [0, 0] for group in ("workload", *GROUPS)}  # commands, differing
    for key, (cmd, *base_result) in base.items():
        _, *change_result = change[key]
        diff = [part for part, b, c in zip(parts, base_result, change_result) if b != c]
        group, name, seed, _ = key
        counts[group][0] += 1
        if diff:
            counts[group][1] += 1
            where = f"{name} seed {seed}" if seed is not None else f"{group} {name}"
            print(f"DIFFERS ({', '.join(diff)}): {where}: wergm {' '.join(cmd)}")
            for line in _details(base_result, change_result):
                print(line)
    labels = {"workload": "commands", "bad input": "bad inputs", "curve edge": "curve edges",
              "coin tail": "coin tails", "endpoint tie": "endpoint ties"}
    print("; ".join(f"{total} {labels[group]}, {differ} differ"
                    for group, (total, differ) in counts.items())
          + f" (base {commit[:12]} vs working tree)")
    return 1 if any(differ for _, differ in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
