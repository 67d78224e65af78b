"""Benchmark of the ``wergm`` command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload psi-laws --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's commands as subprocesses, one at a time
(a closed loop with one client), cycling through the list until
``--seconds`` is used up, checks every output and reports the end-to-end
metrics.  Times are reported at a fixed machine speed: this process times a
fixed reference kernel between consecutive children and scales each
child's time by ``REFERENCE_S`` over the mean of the two kernel times
around it.  The host's speed changes by tens of percent within seconds,
and the kernel changes with it; a change to ``wergm`` does not move the
kernel.  The unscaled times are printed too.

``--trace 1`` runs each command in this process through ``wergm.cli.main``
three times: traced, untraced, traced.  It reports the per-layer metrics of
the first traced run of each command, fails if the two traced runs did not
do exactly the same work, and writes the spans under
``.bench_build/perfbench/``.  Workloads are defined in ``workloads.py``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up),
#: spread over the run so that they see the same machine as the commands.
SETUP_SAMPLES = 30

#: The reference kernel's time at the nominal machine speed.  Each child's
#: time is reported as if the kernels around it had taken this long.
REFERENCE_S = 0.06

#: A command running longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 60.0

#: What one unit of ``work_per_s`` is on each workload.
WORK_UNIT = {"phase-diagram": "curve_points_per_s", "psi-laws": "solves_per_s",
             "sampler": "entries_per_s"}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _wergm_error(stderr: str) -> str | None:
    """The first ``WergmError`` record on stderr, if any."""
    for line in stderr.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and {"module", "operation", "message"} <= record.keys():
            return line
    return None


class Outcomes:
    """Checks each execution of each command and keeps what they report."""

    def __init__(self, commands):
        self.commands = commands
        self.attempted = 0
        self.failures = []
        self.reports = [[] for _ in commands]
        self._first_output = [None] * len(commands)
        self._shared = {}

    def new_pass(self) -> None:
        self._shared = {}

    def record(self, index: int, code, stdout: str, stderr: str) -> None:
        command = self.commands[index]
        self.attempted += 1
        try:
            if code != 0:
                raise workloads.CheckError(f"exit status {code}: {stderr.strip()[-300:]}")
            error = _wergm_error(stderr)
            if error is not None:
                raise workloads.CheckError(f"error record {error}")
            if self._first_output[index] is None:
                self._first_output[index] = stdout
            elif stdout != self._first_output[index]:
                raise workloads.CheckError("output differs from the first run of the command")
            self.reports[index].append(command.check(stdout, self._shared) or {})
        except (workloads.CheckError, ValueError, KeyError, OSError) as err:
            self.failures.append(f"{command.label}: {type(err).__name__}: {err}")

    def mc_z(self) -> list[float]:
        return [r["mc_z"] for reports in self.reports for r in reports[:1] if "mc_z" in r]


# ---------------------------------------------------------------------------
# end to end: subprocesses


def _reference_kernel() -> float:
    """Time a fixed mix of interpreted loops and small numpy operations.

    This is the kind of work a ``wergm`` command does, so a slower or
    faster host moves both alike.
    """
    import numpy as np

    start = time.perf_counter()
    total, table = 0, {}
    for i in range(180_000):
        total += (i * i) % 7
        table[i & 1023] = total
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(4500):
        x = x + np.exp(-x).sum() * 1e-9
    return time.perf_counter() - start


class _Scaler:
    """Scales the times of consecutive jobs to the nominal machine speed.

    The reference kernel runs before the first job and after each one; a
    job's time is scaled by ``REFERENCE_S`` over the mean of the two kernel
    times around it.
    """

    def __init__(self):
        self.kernel = [_reference_kernel()]

    def scale(self, elapsed: float) -> float:
        self.kernel.append(_reference_kernel())
        return elapsed * REFERENCE_S / ((self.kernel[-2] + self.kernel[-1]) / 2.0)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], env: dict):
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        return time.perf_counter() - start, "timeout", err.stdout or "", err.stderr or ""
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 commands beyond it, and its level."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return math.nan, math.nan
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The CPUs of a shared virtual machine change speed independently within
    seconds; on one CPU the reference kernel sees the speed the commands see.
    The commands do their work in one thread and run one at a time, so they
    do not compete for it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_end_to_end(workload: str, commands, seconds: float) -> tuple[Outcomes, dict, dict]:
    _pin_to_one_cpu()
    env = _child_env()
    scaler = _Scaler()

    def run_child(argv):
        """Run one child; return its raw and its scaled time and its result."""
        elapsed, code, stdout, stderr = _run_child(argv, env)
        return elapsed, scaler.scale(elapsed), code, stdout, stderr

    import_argv = [sys.executable, "-c", "import wergm"]
    setup, raw_setup = [], []

    def time_setup():
        elapsed, scaled, code, _, stderr = run_child(import_argv)
        if code != 0:
            raise SystemExit(f"perfbench: 'import wergm' failed: {stderr.strip()}")
        raw_setup.append(elapsed)
        setup.append(scaled)

    time_setup()
    setup.clear()  # the first import fills the bytecode cache, as an install does
    raw_setup.clear()
    outcomes = Outcomes(commands)
    latencies = [[] for _ in commands]
    raw_latencies = [[] for _ in commands]
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        share = min(1.0, (time.perf_counter() - start) / seconds)
        if len(setup) < SETUP_SAMPLES * share:
            time_setup()
        if index == 0:
            outcomes.new_pass()
        elapsed, scaled, code, stdout, stderr = run_child(
            [sys.executable, "-m", "wergm", *commands[index].argv])
        raw_latencies[index].append(elapsed)
        latencies[index].append(scaled)
        outcomes.record(index, code, stdout, stderr)
        index = (index + 1) % len(commands)
        # Stop once a full pass is done and the next command would overrun.
        done = all(latencies)
        if done and time.perf_counter() + raw_latencies[index][-1] > deadline:
            break

    while len(setup) < 5:
        time_setup()
    metrics = _summary(commands, setup, latencies)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw = _summary(commands, raw_setup, raw_latencies)
    every = [x for series in latencies for x in series]
    tail, level = _tail(every)
    extra = {
        WORK_UNIT[workload]: metrics["work_per_s"],
        "cmd_tail_s": tail,
        "cmd_tail_percentile": level,
        "commands_timed": len(every),
        "passes_min": min(len(x) for x in latencies),
        "setup_samples": len(setup),
        "reference_kernel_s": statistics.median(scaler.kernel),
        **{f"raw_{name}": value for name, value in raw.items()},
    }
    return outcomes, metrics, extra


def _summary(commands, setup: list[float], latencies: list[list[float]]) -> dict:
    """The timed end-to-end metrics from set-up samples and per-command latencies.

    ``setup_s`` is the median time of ``import wergm`` in a fresh
    interpreter; ``wall_s`` the command list once, as the sum of each
    command's median; ``work_per_s`` the workload's work units (``Command.work``)
    over the summed medians of the commands that do them; ``cmd_p50_s`` the
    median over the commands of each command's median.
    """
    medians = [statistics.median(x) for x in latencies]
    work = sum(c.work for c in commands)
    work_time = sum(m for c, m in zip(commands, medians) if c.work)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(medians),
        "work_per_s": work / work_time,
        "cmd_p50_s": statistics.median(medians),
    }


# ---------------------------------------------------------------------------
# layer by layer: in process


def _run_in_process(cli, clear_cache, index: int, command, outcomes: Outcomes,
                    tracer=None) -> float:
    """One command through ``cli.main``, checked; returns its time in seconds."""
    # A subprocess starts with an empty find_theta0 cache; so does this.
    clear_cache()
    if tracer is not None:
        tracer.install()
        tracer.begin_command(index)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed command, run goes on
                code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes.record(index, code, out.getvalue(), err.getvalue())
    return elapsed


def run_traced(workload: str, seed: int, commands):
    sys.path.insert(0, str(SRC))
    import wergm
    import wergm.cli  # noqa: F401

    from tracing import Tracer

    # Taken before any wrapping: the wrapper has no cache_clear.
    clear_cache = wergm.critical.find_theta0.cache_clear
    outcomes = Outcomes(commands)
    tracers = (Tracer(wergm), Tracer(wergm))

    # Each command runs traced, untraced and traced again, each run scaled
    # to the nominal machine speed, so that the host's changes of speed
    # stay out of the overhead ratio.
    _pin_to_one_cpu()
    scaler = _Scaler()
    traced = untraced = 0.0
    for index, command in enumerate(commands):
        for tracer in (tracers[0], None, tracers[1]):
            elapsed = scaler.scale(
                _run_in_process(wergm.cli, clear_cache, index, command, outcomes, tracer))
            if tracer is None:
                untraced += elapsed
            else:
                traced += elapsed / 2.0

    first, second = (t.work_counts() for t in tracers)
    mismatched = [f"{k} = {first.get(k)} then {second.get(k)}"
                  for k in sorted(first.keys() | second.keys()) if first.get(k) != second.get(k)]

    metrics = tracers[0].metrics()
    z = outcomes.mc_z()
    metrics["gaussian_directed.mc_z"] = max((abs(x) for x in z), default=0.0)
    metrics["trace.overhead_ratio"] = traced / untraced

    SCRATCH.mkdir(parents=True, exist_ok=True)
    spans = SCRATCH / f"spans-{workload}-seed{seed}.jsonl"
    tracers[0].write_spans(spans, {"workload": workload, "seed": seed,
                                   "commands": [c.argv for c in commands]})
    extra = {"self_test": "identical work counts" if not mismatched else "MISMATCH",
             "spans_file": str(spans.relative_to(ROOT))}
    return outcomes, metrics, extra, mismatched


# ---------------------------------------------------------------------------


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wergm" / "__init__.py").is_file():
        print(f"perfbench: no wergm sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    units = _units(bool(args.trace))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        commands = workloads.build(args.workload, args.seed, out_dir)
        if args.trace:
            outcomes, metrics, extra, mismatched = run_traced(args.workload, args.seed, commands)
        else:
            outcomes, metrics, extra = run_end_to_end(args.workload, commands, args.seconds)
            mismatched = []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(outcomes.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands per pass {len(commands)}")
    for failure in outcomes.failures:
        print(f"  FAILED {failure}")
    for mismatch in mismatched:
        print(f"  SELF-TEST two traced passes of the same inputs differ: {mismatch}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    extra["mc_z_per_point"] = [round(z, 3) for z in outcomes.mc_z()]
    extra["failed_ratio"] = failed / outcomes.attempted
    extra["src_lines"] = _src_lines()
    for name, value in extra.items():
        print(f"  {name:40s} {value}  (reported, not gated)")
    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
