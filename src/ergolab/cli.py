"""Command-line harness: thin wrappers over the library plus a batch runner.

Exit codes: 0 all verdicts true, 2 a verdict failed, 1 config or domain error.
Identical config + seed gives byte-identical CSV/JSON artifacts; the env var
ERGOLAB_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .convexity import ConvexityModulus
from .dynamics import (
    FiniteMeasureSystem,
    Observable,
    average_sequence,
    ergodic_average,
    lp_norm,
)
from .errors import ConfigError, ErgolabError
from .fluctuation import (
    Branch,
    FluctuationReport,
    max_chain,
    corollary_bound,
    default_eta,
    theorem_bound,
    verify_corollary,
    verify_main_theorem,
)
from .folner import (
    FolnerFamily,
    ModulusTable,
    RefinedFamily,
    as_fraction,
    build_modulus_table,
    convergence_modulus,
    family_from_jsonable,
    fast_refinement,
    greedy_folner,
    standard_family,
)
from .groups import Group, group_by_name


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _cfg_get(cfg: dict, key: str, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    return cfg[key]


def _cfg_section(cfg: dict, key: str, default=None, required: bool = False) -> dict:
    value = _cfg_get(cfg, key, default, required)
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value


def _cfg_int(value, what: str, lo: int, hi: Optional[int] = None) -> int:
    """value as an integer with lo <= value < hi (no upper limit if hi is None), else a ConfigError.

    JSON integers and integral numbers such as 3.0 pass; booleans, strings,
    fractional numbers and infinities are refused rather than truncated.
    """
    n = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if n < lo or (hi is not None and n >= hi):
        upper = "" if hi is None else f" and below {hi}"
        raise ConfigError(f"{what} must be an integer >= {lo}{upper}, got {value!r}")
    return n


def _cfg_int_list(value, what: str, lo: int) -> List[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of integers, got {value!r}")
    return [_cfg_int(v, f"{what} entry", lo) for v in value]


def _cfg_float(cfg: dict, key: str, default: Optional[float] = None) -> float:
    """cfg[key] as a finite number; default when absent, required when default is None."""
    value = _cfg_get(cfg, key, default, required=default is None)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _cfg_floats(cfg: dict, key: str) -> List[float]:
    value = _cfg_get(cfg, key, required=True)
    problem = ConfigError(f"{key} must be a nonempty list of numbers, got {value!r}")
    if not isinstance(value, list) or not value:
        raise problem
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise problem from exc


def _build_system(cfg: dict, group: Group) -> FiniteMeasureSystem:
    sys_cfg = _cfg_section(cfg, "system", required=True)
    points = _cfg_int(_cfg_get(sys_cfg, "points", required=True), "system points", 1)
    weights = _cfg_get(sys_cfg, "weights", "uniform")
    if weights == "uniform":
        weights = [Fraction(1, points)] * points
    elif isinstance(weights, list):
        if len(weights) != points:
            raise ConfigError(f"{len(weights)} weights for {points} points")
        weights = [as_fraction(w) for w in weights]
    else:
        raise ConfigError('weights must be "uniform" or a list of rational strings')
    generators = {
        name: _cfg_int_list(perm, f"generator {name!r}", 0)
        for name, perm in _cfg_section(sys_cfg, "generators", required=True).items()
    }
    try:
        system = FiniteMeasureSystem(group, weights, generators)
        system.validate_action()
    except ErgolabError as exc:
        raise ConfigError(f"system does not validate: {exc}") from exc
    return system


def _build_observable(cfg: dict, system: FiniteMeasureSystem, rng: np.random.Generator) -> Observable:
    p = _cfg_float(cfg, "p")
    spec = _cfg_section(cfg, "observable", required=True)
    kind = spec.get("type")
    if kind == "explicit":
        try:
            values = np.asarray(_cfg_get(spec, "values", required=True), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"observable values must be a list of numbers: {exc}") from exc
    elif kind == "indicator":
        values = np.zeros(system.n_points)
        point = _cfg_int(_cfg_get(spec, "point", required=True), "indicator point", 0, system.n_points)
        values[point] = 1.0
    elif kind == "random":
        dist = spec.get("distribution", "normal")
        scale = _cfg_float(spec, "scale", 1.0)
        if scale < 0:
            raise ConfigError(f"observable scale must be >= 0, got {scale!r}")
        if dist == "normal":
            values = rng.normal(0.0, scale, size=system.n_points)
        elif dist == "uniform":
            values = rng.uniform(-scale, scale, size=system.n_points)
        else:
            raise ConfigError(f"unknown observable distribution {dist!r}")
    else:
        raise ConfigError(f"unknown observable type {spec.get('type')!r}")
    f = system.observable(values, p)
    if spec.get("norm") is not None:
        cur = lp_norm(system, f)
        if cur == 0:
            raise ConfigError("cannot rescale the zero observable to a target norm")
        f = Observable(f.values * (_cfg_float(spec, "norm") / cur), p)
    return f


def _build_convexity(cfg: dict) -> ConvexityModulus:
    p = _cfg_float(cfg, "p")
    spec = _cfg_section(cfg, "modulus", {"type": "hanner" if p >= 2 else "small-p"})
    return ConvexityModulus.from_config(spec, default_p=p)


def _eta_value(cfg: dict) -> Optional[float]:
    spec = _cfg_section(cfg, "eta", {"type": "default"})
    if spec.get("type") == "default":
        return None
    if spec.get("type") == "fixed":
        return _cfg_float(spec, "value")
    raise ConfigError(f"unknown eta policy {spec!r}")


def _build_main_family(cfg: dict, group: Group, window: int) -> FolnerFamily:
    spec = _cfg_section(cfg, "family", {"type": "standard"})
    kind = spec.get("type", "standard")
    if kind == "standard":
        return standard_family(group, max(window, _cfg_int(spec.get("n_max", window), "family n_max", 1)))
    if kind == "greedy":
        n_max = _cfg_int(_cfg_get(spec, "n_max", required=True), "family n_max", 1)
        return greedy_folner(group, n_max, _cfg_int(spec.get("budget", 10_000), "family budget", 1))
    if kind == "explicit":
        sets = _cfg_get(spec, "sets", required=True)
        return family_from_jsonable({"kind": "explicit", "group": group.name, "sets": sets})
    raise ConfigError(f"family type {kind!r} is not valid for main-mode verification")


def _seed(cfg: dict) -> int:
    env = os.environ.get("ERGOLAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"ERGOLAB_SEED must be an integer, got {env!r}") from exc
        return _cfg_int(seed, "ERGOLAB_SEED", 0)
    return _cfg_int(_cfg_get(cfg, "seed", 0), "seed", 0)


def _averages_rows(
    system: FiniteMeasureSystem,
    family: FolnerFamily,
    f: Observable,
    window: int,
    defect_against: List[int],
    refined: bool,
) -> List[str]:
    header = ["n", "card", "norm_Anf"] + [f"defect_{N}" for N in defect_against]
    if refined:
        header.insert(1, "source_index")
    rows = [",".join(header)]
    avgs = average_sequence(system, family, f, window)
    defect_refs = {N: ergodic_average(system, family, N, f) for N in defect_against}
    for n in range(1, window + 1):
        cells = [str(n)]
        if refined:
            cells.append(str(family.indices[n - 1]))
        cells.append(str(family.card(n)))
        cells.append(_fmt(lp_norm(system, avgs[n - 1])))
        for N in defect_against:
            a_n_ref = ergodic_average(system, family, n, defect_refs[N])
            cells.append(_fmt(lp_norm(system, Observable(avgs[n - 1].values - a_n_ref.values, f.p))))
        rows.append(",".join(cells))
    return rows


@dataclass
class ExperimentResult:
    exit_code: int
    reports: List[FluctuationReport] = field(default_factory=list)
    paths: Dict[str, str] = field(default_factory=dict)
    seed: int = 0


def exit_code_for(reports: List[FluctuationReport]) -> int:
    return 0 if all(r.verdict for r in reports) else 2


def run_experiment(config: dict, out_dir=None, write: bool = True) -> ExperimentResult:
    """Execute one experiment config: verify, then emit averages.csv/report.json/modulus.json."""
    group = group_by_name(_cfg_get(config, "group", required=True))
    seed = _seed(config)
    rng = np.random.default_rng(seed)
    system = _build_system(config, group)
    f = _build_observable(config, system, rng)
    conv = _build_convexity(config)
    eta_cfg = _eta_value(config)
    epsilons = _cfg_floats(config, "epsilons")
    window = _cfg_int(_cfg_get(config, "window", required=True), "window", 1)
    mode = _cfg_get(config, "verify", "main")
    defect_against = _cfg_int_list(_cfg_get(config, "defect_against", []), "defect_against", 1)
    lam = _cfg_int(_cfg_get(config, "lambda", 1), "lambda", 1)
    norm = lp_norm(system, f)

    reports: List[FluctuationReport] = []
    table: Optional[ModulusTable] = None

    if mode == "main":
        family = _build_main_family(config, group, window)
        if window > family.n_max:
            raise ConfigError(f"window {window} exceeds family length {family.n_max}")
        if norm > 0.0:
            tolerances = [Branch.of(conv, norm, eps, eta_cfg).tolerance for eps in epsilons]
            table = build_modulus_table(family, range(1, window + 1), tolerances, m_max=window)
        for eps in epsilons:
            reports.append(
                verify_main_theorem(system, family, table, conv, f, eps, eta=eta_cfg, window=window)
            )
        csv_family, csv_window, refined = family, window, False
    elif mode == "corollary":
        fam_cfg = _cfg_section(config, "family", {"type": "refined"})
        if fam_cfg.get("type", "refined") != "refined":
            raise ConfigError("corollary mode requires a refined family")
        count = _cfg_int(fam_cfg.get("count", 8), "family count", 1)
        source_n_max = _cfg_int(fam_cfg.get("source_n_max", 10**30), "family source_n_max", 1)
        source = standard_family(group, source_n_max)
        families = []
        entries = []
        for eps in epsilons:
            if norm == 0.0:
                families.append(standard_family(group, max(window, count)))
                reports.append(
                    verify_corollary(
                        system, families[-1], lam, conv, f, eps, eta=eta_cfg, window=count
                    )
                )
                continue
            eps_fast = Branch.of(conv, norm, eps, eta_cfg).tolerance
            refined_family = fast_refinement(source, eps_fast, count=count)
            families.append(refined_family)
            reports.append(
                verify_corollary(
                    system, refined_family, lam, conv, f, eps, eta=eta_cfg, window=count
                )
            )
            # the last refined index has no within-window modulus (beta(n) > n)
            entries.extend(
                convergence_modulus(refined_family, n, eps_fast, m_max=count)
                for n in range(1, count)
            )
        if entries:
            table = ModulusTable(group.name, "refined", entries)
        csv_family, csv_window, refined = families[0], count, isinstance(families[0], RefinedFamily)
    else:
        raise ConfigError(f'verify must be "main" or "corollary", got {mode!r}')

    result = ExperimentResult(exit_code=exit_code_for(reports), reports=reports, seed=seed)
    if write:
        out = Path(out_dir if out_dir is not None else _cfg_get(config, "output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        rows = _averages_rows(system, csv_family, f, csv_window, defect_against, refined)
        (out / "averages.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        report_doc = {
            "seed": seed,
            "config": config,
            "all_verdicts_true": result.exit_code == 0,
            "reports": [r.to_jsonable() for r in reports],
        }
        (out / "report.json").write_text(_json_text(report_doc), encoding="utf-8")
        modulus_doc = table.to_jsonable() if table is not None else {"entries": []}
        (out / "modulus.json").write_text(_json_text(modulus_doc), encoding="utf-8")
        result.paths = {
            "averages": str(out / "averages.csv"),
            "report": str(out / "report.json"),
            "modulus": str(out / "modulus.json"),
        }
    return result


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _family_for_args(group: Group, kind: str, n_max: int, budget: int) -> FolnerFamily:
    if kind == "standard":
        return standard_family(group, n_max)
    if kind == "greedy":
        return greedy_folner(group, n_max, budget)
    raise ConfigError(f"unknown family kind {kind!r}")


def _cmd_folner_build(args) -> int:
    group = group_by_name(args.group)
    family = _family_for_args(group, args.kind, args.n_max, args.budget)
    for n in range(1, family.n_max + 1):
        print(f"{n} {family.card(n)}")
    if args.out:
        Path(args.out).write_text(_json_text(family.to_jsonable()), encoding="utf-8")
    return 0


def _cmd_folner_check(args) -> int:
    group = group_by_name(args.group)
    family = _family_for_args(group, args.family, max(args.window, args.n), args.budget)
    entry = convergence_modulus(family, args.n, as_fraction(args.eps), m_max=args.window)
    print(entry.value)
    return 0


def _cmd_folner_refine(args) -> int:
    group = group_by_name(args.group)
    source = standard_family(group, args.source_n_max)
    refined = fast_refinement(source, as_fraction(args.eps), count=args.count)
    print(" ".join(str(i) for i in refined.indices))
    if args.out:
        Path(args.out).write_text(_json_text(refined.to_jsonable()), encoding="utf-8")
    return 0


def _parse_ns(spec: str) -> List[int]:
    if "-" in spec and "," not in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",") if tok]


def _cmd_modulus_compute(args) -> int:
    group = group_by_name(args.group)
    ns = _parse_ns(args.ns)
    family = _family_for_args(group, args.family, max(max(ns), args.window), args.budget)
    table = build_modulus_table(family, ns, [as_fraction(args.eps)], m_max=args.window)
    for n in ns:
        print(f"{n} {table.value(n, as_fraction(args.eps))}")
    if args.out:
        Path(args.out).write_text(_json_text(table.to_jsonable()), encoding="utf-8")
    return 0


def _cmd_avg_run(args) -> int:
    config = load_config(args.config)
    group = group_by_name(_cfg_get(config, "group", required=True))
    system = _build_system(config, group)
    rng = np.random.default_rng(_seed(config))
    f = _build_observable(config, system, rng)
    window = _cfg_int(_cfg_get(config, "window", required=True), "window", 1)
    family = _build_main_family(config, group, window)
    defect_against = _cfg_int_list(_cfg_get(config, "defect_against", []), "defect_against", 1)
    rows = _averages_rows(system, family, f, window, defect_against, False)
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fluct_count(args) -> int:
    data = [float(tok) for tok in args.data.split(",") if tok != ""]
    L = len(data)
    beta = None
    if args.beta:
        beta = [int(tok) for tok in args.beta.split(",") if tok != ""]
    elif args.lam is not None:
        beta = [n + args.lam for n in range(1, L + 1)]
    report = max_chain(np.abs(np.subtract.outer(data, data)), args.eps, beta=beta)
    print(report.count)
    return 0


def _modulus_from_args(args) -> ConvexityModulus:
    if args.modulus == "hanner":
        return ConvexityModulus.hanner(args.p)
    if args.modulus == "small-p":
        return ConvexityModulus.small_p(args.p)
    if args.modulus == "p-uniform":
        if args.K is None:
            raise ConfigError("--K is required for the p-uniform modulus")
        return ConvexityModulus.p_uniform(args.K, args.p)
    if args.modulus == "auto":
        return ConvexityModulus.for_lp(args.p)
    raise ConfigError(f"unknown modulus {args.modulus!r}")


def _cmd_bound_eval(args) -> int:
    modulus = _modulus_from_args(args)
    eta = default_eta(modulus, args.norm, args.eps) if args.eta is None else args.eta
    if args.lam is not None:
        print(corollary_bound(modulus, args.norm, args.eps, eta, args.lam, lower=args.lower))
    else:
        print(theorem_bound(modulus, args.norm, args.eps, eta, lower=args.lower))
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    config["verify"] = args.which
    result = run_experiment(config, out_dir=args.out_dir, write=args.out_dir is not None)
    for rep in result.reports:
        print(
            f"eps={rep.epsilon} count={rep.count} bound={rep.bound} verdict={rep.verdict}"
        )
    return result.exit_code


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_dir=args.out_dir, write=True)
    for rep in result.reports:
        print(
            f"eps={rep.epsilon} count={rep.count} bound={rep.bound} verdict={rep.verdict}"
        )
    for name in sorted(result.paths):
        print(f"{name}: {result.paths[name]}")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ergolab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_folner = sub.add_parser("folner", help="build, check or refine Folner families")
    folner_sub = p_folner.add_subparsers(dest="subcommand", required=True)

    b = folner_sub.add_parser("build")
    b.add_argument("--group", required=True)
    b.add_argument("--kind", default="standard", choices=["standard", "greedy"])
    b.add_argument("--n-max", type=int, required=True, dest="n_max")
    b.add_argument("--budget", type=int, default=10_000)
    b.add_argument("--out")
    b.set_defaults(func=_cmd_folner_build)

    c = folner_sub.add_parser("check")
    c.add_argument("--group", required=True)
    c.add_argument("--family", default="standard", choices=["standard", "greedy"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--eps", required=True)
    c.add_argument("--window", type=int, required=True)
    c.add_argument("--budget", type=int, default=10_000)
    c.set_defaults(func=_cmd_folner_check)

    r = folner_sub.add_parser("refine")
    r.add_argument("--group", required=True)
    r.add_argument("--eps", required=True)
    r.add_argument("--count", type=int, default=8)
    r.add_argument("--source-n-max", type=int, default=10**12, dest="source_n_max")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_folner_refine)

    p_mod = sub.add_parser("modulus", help="compute convergence moduli")
    mod_sub = p_mod.add_subparsers(dest="subcommand", required=True)
    mc = mod_sub.add_parser("compute")
    mc.add_argument("--group", required=True)
    mc.add_argument("--family", default="standard", choices=["standard", "greedy"])
    mc.add_argument("--ns", required=True, help="indices, e.g. 1-10 or 1,3,5")
    mc.add_argument("--eps", required=True)
    mc.add_argument("--window", type=int, required=True)
    mc.add_argument("--budget", type=int, default=10_000)
    mc.add_argument("--out")
    mc.set_defaults(func=_cmd_modulus_compute)

    p_avg = sub.add_parser("avg", help="ergodic average tables")
    avg_sub = p_avg.add_subparsers(dest="subcommand", required=True)
    ar = avg_sub.add_parser("run")
    ar.add_argument("--config", required=True)
    ar.add_argument("--out")
    ar.set_defaults(func=_cmd_avg_run)

    p_fl = sub.add_parser("fluct", help="fluctuation counting")
    fl_sub = p_fl.add_subparsers(dest="subcommand", required=True)
    fc = fl_sub.add_parser("count")
    fc.add_argument("--eps", type=float, required=True)
    fc.add_argument("--data", required=True, help="comma-separated real sequence")
    fc.add_argument("--beta", help="comma-separated beta values, one per index")
    fc.add_argument("--lam", type=int, help="use beta(n) = n + lam")
    fc.set_defaults(func=_cmd_fluct_count)

    p_bd = sub.add_parser("bound", help="theorem/corollary bound evaluation")
    bd_sub = p_bd.add_subparsers(dest="subcommand", required=True)
    be = bd_sub.add_parser("eval")
    be.add_argument("--p", type=float, required=True)
    be.add_argument("--eps", type=float, required=True)
    be.add_argument("--norm", type=float, required=True)
    be.add_argument("--eta", type=float)
    be.add_argument("--lower", type=float)
    be.add_argument("--lam", type=int)
    be.add_argument("--modulus", default="auto", choices=["auto", "hanner", "small-p", "p-uniform"])
    be.add_argument("--K", type=float)
    be.set_defaults(func=_cmd_bound_eval)

    p_ver = sub.add_parser("verify", help="verify the main theorem or the corollary")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    for which in ("main", "corollary"):
        v = ver_sub.add_parser(which)
        v.add_argument("--config", required=True)
        v.add_argument("--out-dir", dest="out_dir")
        v.set_defaults(func=_cmd_verify, which=which)

    p_run = sub.add_parser("run", help="run a full experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", dest="out_dir")
    p_run.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ErgolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
