"""Record the gate's reference outputs from the program as it stands.

    python3 perfbench/record_refs.py 0-9

Writes refs/<workload>-seed<n>.json.gz for each seeded workload and seed, and
refs/<workload>.json.gz once for each unseeded one.  Record only from a
commit whose outputs are known good: the gate then holds later commits to them.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
from gate import snapshot, write_ref
from workloads import NAMES, SEEDED, base_argv, output_argv


def record(workload: str, seed: int, work_dir: Path) -> Path:
    from ergolab import cli  # after main() has put src/ first on sys.path

    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    stdout, error = run.call_cli(cli, base_argv(workload, seed, work_dir) + output_argv(workload, out_dir))
    if error:
        raise SystemExit(f"{workload} seed {seed} failed ({error}); not recording")
    path = write_ref(workload, seed, snapshot(stdout, out_dir))
    shutil.rmtree(out_dir)
    return path


def main(argv) -> int:
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        for workload in NAMES:
            for seed in seeds if workload in SEEDED else seeds[:1]:
                print(record(workload, seed, work_dir))
    finally:
        shutil.rmtree(work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
