"""ergolab's benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload z-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ergolab is imported from `src/`.
Every invocation goes through the public entry point `ergolab.cli.main(argv)`
with freshly generated inputs and a fresh output directory, one at a time.

With `--trace 0` a run measures, within `--seconds`:
  setup_s      median wall time for a fresh interpreter to start and finish
               `import ergolab.cli`, a few at the start and one per round
  peak_rss_mb  median peak resident memory (VmHWM) of the invocations
  wall_norm    median over invocations of the wall time of `main`, artifacts
               included, divided by the median wall time of one pass of the
               reference loop (reference.py) that its interpreter runs next
Each round runs one invocation in a fresh interpreter, as a CLI user does.
It also prints the raw `wall_s` of those invocations (median, quartiles and
sample count); on a shared host that drifts with the host's load, which
`wall_norm` cancels, so `wall_norm` is the number BENCHMARK.json bounds.
With `--trace 1` it alternates untraced and traced invocations (spans.py)
and reports the per-layer metrics named in BENCHMARK.json.

Every invocation passes through the correctness gate (gate.py); failures
count against `fail_frac`.  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed`, `metrics`.
`--workload all` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from gate import Gate, snapshot
from spans import Recorder, traced
from workloads import NAMES, base_argv, output_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FIRST_SETUP_SAMPLES = 3
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150.0
# A fresh interpreter reports the moment `import ergolab.cli` finished
# (perf_counter is CLOCK_MONOTONIC, one clock for every process on Linux).
SETUP_CODE = "import time\nimport ergolab.cli\nprint(repr(time.perf_counter()))\n"
# One invocation in a fresh interpreter reports that moment, the wall time of
# `main`, its own VmHWM (a child's ru_maxrss would also count the resident
# memory of the parent that spawned it) and then the median reference pass.
CHILD_CODE = (
    "import sys, time\nfrom ergolab.cli import main\nimported = time.perf_counter()\n"
    "code = main(sys.argv[3:])\nwall = time.perf_counter() - imported\n"
    "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')).split()[1]\n"
    "sys.path.insert(0, sys.argv[2])\nfrom reference import REF_SHARE, median_pass\n"
    "ref = median_pass(REF_SHARE * wall)\n"
    "open(sys.argv[1], 'w').write(f'{imported!r} {wall!r} {hwm} {ref!r}')\nsys.exit(code)\n"
)


def child_env() -> dict:
    # bytecode caches stay on, as for an installed package
    env = {k: v for k, v in os.environ.items() if k not in ("ERGOLAB_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _problem_of(exc_text: str) -> str:
    return exc_text.strip().splitlines()[-1] if exc_text.strip() else "no output"


def call_cli(cli, argv: List[str]) -> Tuple[str, Optional[str]]:
    """Run `cli.main(argv)` in this process: its stdout, and its failure or None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:  # this invocation's failure; the run goes on
            return stdout.getvalue(), _problem_of(traceback.format_exc())
    if code != 0:
        return stdout.getvalue(), f"exit code {code}: {_problem_of(stderr.getvalue())}"
    return stdout.getvalue(), None


class Workload:
    """One workload at one seed: its inputs, its gate and the invocations made so far."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        from ergolab import cli  # after main() has put src/ first on sys.path

        self.cli = cli
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.argv = base_argv(name, seed, work_dir)
        self.gate = Gate(name, seed)
        self.attempted = 0
        self.problems: List[str] = []

    def _record(self, stdout: str, error: Optional[str], out_dir: Path) -> None:
        problem = self.gate.check(error, None if error else snapshot(stdout, out_dir))
        self.attempted += 1
        if problem:
            self.problems.append(problem)
        shutil.rmtree(out_dir)

    def invoke(self) -> float:
        """One in-process invocation; returns its wall seconds."""
        gc.collect()
        start = time.perf_counter()
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        stdout, error = call_cli(self.cli, self.argv + output_argv(self.name, out_dir))
        seconds = time.perf_counter() - start
        self._record(stdout, error, out_dir)
        return seconds

    def invoke_child(self) -> Dict[str, float]:
        """One invocation in a fresh interpreter: its `setup_s`, `wall_s`, `peak_rss_mb` and `wall_norm`."""
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        log = Path(tempfile.mkdtemp(dir=self.work_dir))
        argv = [str(log / "report"), str(HERE), *self.argv, *output_argv(self.name, out_dir)]
        with open(log / "stdout", "w+", encoding="utf-8") as out, open(log / "stderr", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD_CODE, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT
            )
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            elapsed = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        error = None
        if proc.returncode != 0 or "Traceback" in stderr:
            error = f"child exit code {proc.returncode}: {_problem_of(stderr)}"
        self._record(stdout, error, out_dir)
        report = log / "report"
        # without a report the invocation failed, which the gate has counted
        imported, wall, hwm_kb, ref = report.read_text().split() if report.is_file() else (start, elapsed, 0, elapsed)
        shutil.rmtree(log)
        return {"setup_s": float(imported) - start, "wall_s": float(wall), "peak_rss_mb": int(hwm_kb) / 1024.0,
                "wall_norm": float(wall) / float(ref)}


def time_setup() -> float:
    """Wall seconds for a fresh interpreter to start and import ergolab.cli."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT, check=True, timeout=60,
                          capture_output=True, text=True)
    return float(proc.stdout) - start


def repeat(step: Callable[[], object], minimum: int, deadline: float) -> list:
    """Call `step` at least `minimum` times, then while another call fits before `deadline`."""
    results, last = [], 0.0
    while len(results) < minimum or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - start
    return results


def measure_end_to_end(wl: Workload, seconds: float) -> Dict[str, list]:
    """Invocations, each in a fresh interpreter, until `seconds` are spent."""
    deadline = time.perf_counter() + seconds
    time_setup()  # compiles bytecode caches, which an installed package ships with
    samples: Dict[str, list] = {"setup_s": [time_setup() for _ in range(FIRST_SETUP_SAMPLES)],
                                "wall_s": [], "peak_rss_mb": [], "wall_norm": []}

    def one_round():
        for name, value in wl.invoke_child().items():
            samples[name].append(value)

    repeat(one_round, MIN_ROUNDS, deadline)
    return samples


def measure_traced(wl: Workload, seconds: float) -> Dict[str, list]:
    deadline = time.perf_counter() + seconds
    untraced: List[float] = []
    recorders: List[Recorder] = []
    traced_walls: List[float] = []

    def pair():
        untraced.append(wl.invoke())
        recorder = Recorder()
        with traced(recorder):
            traced_walls.append(wl.invoke())
        recorders.append(recorder)

    repeat(pair, MIN_TRACED_PAIRS, deadline)
    counters = [dict(r.counts) for r in recorders]
    if any(c != counters[0] for c in counters):
        wl.problems.append("counters differ between traced invocations")
    samples: Dict[str, list] = {}
    for recorder in recorders:
        for name, value in recorder.metrics().items():
            samples.setdefault(name, []).append(value)
    overhead = statistics.median(traced_walls) - statistics.median(untraced)
    samples["trace.overhead_s"] = [overhead]
    recorders[-1].save(
        OUT / f"trace-{wl.name}-seed{wl.seed}",
        {"workload": wl.name, "seed": wl.seed, "traced_wall_s": traced_walls, "untraced_wall_s": untraced},
    )
    return samples


def describe(name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    line = f"  {name:<40} {med:>14.6g} {unit:<6} median of {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  [q1 {q1:.6g}, q3 {q3:.6g}]"
    return line


def run_one(bench: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = Workload(name, seed, work_dir)
        samples = measure_traced(wl, seconds) if trace else measure_end_to_end(wl, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    failed = len(wl.problems)
    print(f"workload {name} seed {seed} trace {int(trace)}: {wl.attempted} invocations, {failed} failed")
    metrics = {}
    for spec in wanted:
        values = samples[spec["name"]]
        print(describe(spec["name"], spec["unit"], values))
        metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
    if not trace:
        print(describe("wall_s", "s", samples["wall_s"]) + "  (raw; drifts with host load)")
    print(f"  {'fail_frac':<40} {failed / max(wl.attempted, 1):>14.6g} {'':<6} {failed} of {wl.attempted} invocations")
    for problem in wl.problems[:5]:
        print(f"  FAILED: {problem}")
    return {"correct": not wl.problems, "attempted": wl.attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    units = {name: spec["unit"] for name, spec in next(iter(results.values()))["metrics"].items()}
    units["fail_frac"] = "fraction"
    print("\n" + f"{'metric':<40}{'unit':<10}" + "".join(f"{n:>14}" for n in results))
    for metric, unit in units.items():
        cells = []
        for res in results.values():
            value = res["failed"] / res["attempted"] if metric == "fail_frac" else res["metrics"][metric]["value"]
            cells.append(f"{value:>14.6g}")
        print(f"{metric:<40}{unit:<10}" + "".join(cells))
    return results


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ergolab" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not an ergolab source checkout (need src/ergolab and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ERGOLAB_SEED", None)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(run_one(bench, args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
