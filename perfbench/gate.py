"""Correctness gate behind `fail_frac`: every invocation's outputs are checked.

An invocation's outputs are its stdout (with the output directory replaced by
`<out>`) and the artifacts it wrote: `report.json`, `modulus.json` and
`averages.csv`.  Where a reference recorded from the program exists for the
workload and seed (`refs/`), the outputs must match it: integers, strings,
booleans and structure exactly, floats to 1e-12 relative.  Seeded workloads
are also checked against invariants: the observable's norm recomputed here
from the seed, and the bound and eta recomputed from it through ergolab's
public API.  That is all the gate has for a seed without a stored reference.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from workloads import SEEDED, config_for

REL_TOL = 1e-12
REF_DIR = Path(__file__).resolve().parent / "refs"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def snapshot(stdout: str, out_dir: Path) -> dict:
    """The outputs of one invocation in comparable form."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            files[path.name] = json.loads(text)
        elif path.suffix == ".csv":
            files[path.name] = [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
        else:
            files[path.name] = text
    return {"stdout": stdout.replace(str(out_dir), "<out>").splitlines(), "files": files}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def diff(ref, got, path: str = "") -> Optional[str]:
    """The first place where `got` differs from `ref`, or None."""
    if type(ref) is not type(got):
        return f"{path}: expected {type(ref).__name__} {ref!r}, got {type(got).__name__} {got!r}"
    if isinstance(ref, float):
        return None if _close(ref, got) else f"{path}: expected {ref!r}, got {got!r}"
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        items = ((k, ref[k], got[k]) for k in ref)
    elif isinstance(ref, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        items = ((i, a, b) for i, (a, b) in enumerate(zip(ref, got)))
    else:
        return None if ref == got else f"{path}: expected {ref!r}, got {got!r}"
    for key, a, b in items:
        problem = diff(a, b, f"{path}/{key}")
        if problem:
            return problem
    return None


def ref_path(workload: str, seed: int) -> Path:
    stem = f"{workload}-seed{seed}" if workload in SEEDED else workload
    return REF_DIR / f"{stem}.json.gz"


def write_ref(workload: str, seed: int, snap: dict) -> Path:
    path = ref_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(snap, indent=1, sort_keys=True) + "\n"
    path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    return path


def _run_invariants(workload: str, seed: int, snap: dict) -> List[str]:
    """Checks that hold for `ergolab run` on the generated config, whatever the seed."""
    import ergolab as E

    cfg = config_for(workload, seed)
    epsilons, window = cfg["epsilons"], cfg["window"]
    group = E.group_by_name(cfg["group"])
    p = float(cfg["p"])
    values = np.random.default_rng(seed).normal(0.0, 1.0, size=cfg["system"]["points"])
    norm = float(np.mean(np.abs(values) ** p) ** (1.0 / p))  # uniform weights; not via lp_norm
    modulus = E.ConvexityModulus.hanner(p)
    files = snap["files"]
    problems = []
    if sorted(files) != ["averages.csv", "modulus.json", "report.json"]:
        return [f"artifacts {sorted(files)}"]
    report = files["report.json"]
    if report["seed"] != seed or report["all_verdicts_true"] is not True:
        problems.append(f"report seed {report['seed']} / all_verdicts_true {report['all_verdicts_true']}")
    if len(report["reports"]) != len(epsilons):
        return problems + [f"{len(report['reports'])} reports for {len(epsilons)} epsilons"]
    for k, (rep, eps) in enumerate(zip(report["reports"], epsilons)):
        eta = E.default_eta(modulus, norm, eps)
        bound = E.theorem_bound(modulus, norm, eps, eta)
        chain, beta = rep["chain"], rep["beta_used"]
        if rep["epsilon"] != eps or not _close(rep["norm_x"], norm) or not _close(rep["eta"], eta):
            problems.append(f"reports/{k}: epsilon, norm_x or eta differs from the recomputed value")
        if rep["bound"] != bound:
            problems.append(f"reports/{k}: bound {rep['bound']} != theorem_bound {bound}")
        if not rep["count"] == len(chain) - 1 <= bound or rep["verdict"] is not True:
            problems.append(f"reports/{k}: count {rep['count']}, chain {len(chain)}, bound {bound}")
        if any(not 1 <= n <= window for n in chain) or any(
            b < beta[a - 1] for a, b in zip(chain, chain[1:])
        ):
            problems.append(f"reports/{k}: chain {chain} is not at distance")
        line = f"eps={eps} count={rep['count']} bound={rep['bound']} verdict=True"
        if k >= len(snap["stdout"]) or snap["stdout"][k] != line:
            problems.append(f"stdout line {k} is not {line!r}")
    family = E.standard_family(group, window)
    rows = files["averages.csv"]
    if [r[:2] for r in rows[1:]] != [[n, family.card(n)] for n in range(1, window + 1)]:
        problems.append("averages.csv: rows are not n, |F_n| for n = 1..window")
    elif any(not 0.0 <= r[2] <= norm * (1 + REL_TOL) for r in rows[1:]):
        problems.append("averages.csv: an average has a norm above ||f|| (A_n is a contraction)")
    if len(files["modulus.json"]["entries"]) != window * len(epsilons):
        problems.append("modulus.json: not one entry per (n, eps)")
    return problems


class Gate:
    """Checks the invocations of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        path = ref_path(workload, seed)
        self.reference = json.loads(gzip.decompress(path.read_bytes())) if path.is_file() else None
        if self.reference is None and workload not in SEEDED:
            raise FileNotFoundError(f"no reference output {path} for the unseeded workload {workload}")

    def check(self, error: Optional[str], snap: Optional[dict]) -> Optional[str]:
        """None when the invocation is correct, else the first problem found.

        `error` is the invocation's own failure (exit code, traceback), if any;
        `snap` its outputs from `snapshot` otherwise."""
        if error:
            return error
        if self.reference is not None:
            problem = diff(self.reference, snap)
            if problem:
                return f"differs from {ref_path(self.workload, self.seed).name} at {problem}"
        if self.workload in SEEDED:
            problems = _run_invariants(self.workload, self.seed, snap)
            if problems:
                return "; ".join(problems)
        return None
