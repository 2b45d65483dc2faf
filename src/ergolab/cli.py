"""Command-line harness: thin wrappers over the library plus a batch runner.

Exit codes: 0 all verdicts true, 2 a verdict failed, 1 config or domain error.
Identical config + seed gives byte-identical CSV/JSON artifacts; the env var
ERGOLAB_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from .config import get, get_choice, get_float, get_floats, get_int, get_ints, get_section, get_str
from .convexity import ConvexityModulus
from .dynamics import (
    FiniteMeasureSystem,
    Observable,
    average_block,
    average_sequence,
    lp_norm,
    lp_norms,
)
from .errors import ConfigError, ErgolabError, StructureError
from .fluctuation import (
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

# the most indices one `--ns` span (lo-hi) may name, each a modulus computation, and the most
# `folner build --n-max` and `folner refine --count` may ask for, each a printed line or index
NS_SPAN_CAP = 10_000
# a config's `window`, and the `--window` of `folner check` and `modulus compute`, stay below this,
# so a window x window float64 distance table stays below 2**27 bytes
WINDOW_LIMIT = 2**12


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path, text: Optional[str]) -> None:
    """text as the UTF-8 file at path, or with text None, path as a directory with its parents;
    an OSError is a ConfigError naming path, so the command exits 1 rather than with a traceback."""
    path = Path(path)
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: undecodable UTF-8 or JSON
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parsed(token: str, convert: Callable, name: str):
    """convert(token) for a value given on the command line; a ConfigError if it does not parse."""
    try:
        return convert(token)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot read {token!r} as {convert.__name__}") from exc


class _Number(argparse.Action):
    """A numeric flag: stores convert(value), and a value that does not parse
    is a ConfigError (exit 1) rather than argparse's usage error (exit 2)."""

    def __init__(self, option_strings, dest, convert: Callable, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.convert = convert

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _parsed(values, self.convert, self.option_strings[0]))


class _Path(argparse.Action):
    """An output path flag: an empty value (`--out=`) names no path, and is a ConfigError (exit 1)
    before any work, rather than read as no flag or, by `Path("")`, as the current directory."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == "":
            raise ConfigError(f"{self.option_strings[0]} names no path")
        setattr(namespace, self.dest, values)


def _parsed_list(text: str, convert: Callable, name: str) -> list:
    return [_parsed(tok, convert, name) for tok in text.split(",") if tok != ""]


def _within_half_range(x: float, name: str) -> None:
    """Refuse x with a ConfigError unless |x| <= half the float range, so x - y is finite for any such y."""
    if not 2 * abs(x) <= sys.float_info.max:  # nan and inf fail too
        raise ConfigError(f"{name} must be finite and at most {sys.float_info.max / 2!r} in size, got {x!r}")


def _seed(cfg: dict) -> int:
    env = os.environ.get("ERGOLAB_SEED")
    if env is None:
        return get_int(cfg, "seed", 0)
    return get_int({"ERGOLAB_SEED": _parsed(env, int, "ERGOLAB_SEED")}, "ERGOLAB_SEED")


def _system(spec: dict, group: Group) -> FiniteMeasureSystem:
    points = get_int(spec, "points", lo=1)
    perms = get_section(spec, "generators")
    generators = {name: get_ints(perms, name) for name in perms}
    lengths = {name: len(perm) for name, perm in generators.items()}
    if set(lengths.values()) != {points}:  # before the weights, a list of `points` of them, are built
        raise ConfigError(f"{points} points need generators of {points} entries each, got lengths {lengths}")
    weights = get(spec, "weights", "uniform")
    if weights == "uniform":
        weights = [Fraction(1, points)] * points
    elif isinstance(weights, list):
        if len(weights) != points:
            raise ConfigError(f"{len(weights)} weights for {points} points")
        weights = [as_fraction(w) for w in weights]
    else:
        raise ConfigError('weights must be "uniform" or a list of rational strings')
    try:
        return FiniteMeasureSystem(group, weights, generators)
    except ErgolabError as exc:
        raise ConfigError(f"system does not validate: {exc}") from exc


def _observable(spec: dict, system: FiniteMeasureSystem, p: float, seed: int) -> Observable:
    kind = get_choice(spec, "type", ("explicit", "indicator", "random"))
    if kind == "explicit":
        values = np.asarray(get_floats(spec, "values"), dtype=float)
    elif kind == "indicator":
        values = np.zeros(system.n_points)
        values[get_int(spec, "point", hi=system.n_points)] = 1.0
    else:
        dist = get_choice(spec, "distribution", ("normal", "uniform"), "normal")
        scale = get_float(spec, "scale", 1.0)
        if scale < 0:
            raise ConfigError(f"observable scale must be >= 0, got {scale!r}")
        rng = np.random.default_rng(seed)  # only here: other observables never import numpy.random
        if dist == "normal":
            values = rng.normal(0.0, scale, size=system.n_points)
        else:
            _within_half_range(scale, "uniform observable scale")  # numpy needs the width of [-scale, scale] finite
            values = rng.uniform(-scale, scale, size=system.n_points)
    f = system.observable(values, p)
    target = get_float(spec, "norm", None)
    if target is not None:
        if target < 0:
            raise ConfigError(f"observable norm must be >= 0, got {target!r}")
        cur = lp_norm(system, f)
        if cur == 0:
            raise ConfigError("cannot rescale the zero observable to a target norm")
        f = Observable(f.values * (target / cur), p)
    return f


def _family(spec: dict, group: Group, window: int) -> FolnerFamily:
    """The family a `family` section names, at least `window` long."""
    kind = get_choice(spec, "type", ("standard", "greedy", "explicit"), "standard")
    if kind == "standard":
        family = standard_family(group, max(window, get_int(spec, "n_max", window, lo=1)))
    elif kind == "greedy":
        family = greedy_folner(group, get_int(spec, "n_max", lo=1))
    else:
        sets = get(spec, "sets")
        try:
            family = family_from_jsonable({"kind": "explicit", "group": group.name, "sets": sets})
        except TypeError as exc:
            raise ConfigError(f"sets must be a list of lists of group elements: {exc}") from exc
    if window > family.n_max:
        raise ConfigError(f"window {window} exceeds family length {family.n_max}")
    return family


@dataclass
class _Inputs:
    """The config keys that `run` and `avg run` share, each read and checked here once."""

    group: Group
    seed: int
    system: FiniteMeasureSystem
    f: Observable
    window: int
    defect_against: List[int]
    family: dict  # the `family` section, read by _family

    @classmethod
    def read(cls, config: dict) -> "_Inputs":
        group = group_by_name(get(config, "group"))
        seed = _seed(config)
        system = _system(get_section(config, "system"), group)
        f = _observable(get_section(config, "observable"), system, get_float(config, "p"), seed)
        window = get_int(config, "window", lo=1, hi=WINDOW_LIMIT)
        defect_against = get_ints(config, "defect_against", [], lo=1)
        return cls(group, seed, system, f, window, defect_against, get_section(config, "family", {}))


def _check_defect_against(n_max: int, defect_against: List[int]) -> None:
    """Refuse, before verifying, defect indices past the run's family length, which averages.csv cannot take."""
    for N in defect_against:  # each an int >= 1, as `_Inputs.read` reads them
        if N > n_max:
            raise StructureError(f"family index must be in [1, {n_max}], got {N!r}")


def _averages_csv(system, family: FolnerFamily, f: Observable, avgs: List[Observable], defect_against: List[int]):
    """The averages.csv text for avgs = [A_1 f, ..., A_window f] on family."""
    refined = isinstance(family, RefinedFamily)
    header = ["n", "card", "norm_Anf"] + [f"defect_{N}" for N in defect_against]
    if refined:
        header.insert(1, "source_index")
    rows = [",".join(header)]
    window = len(avgs)
    # refs[n - 1, :, j] = A_n A_N f for N = defect_against[j]: one pass for the A_N f, one for the window
    refs = np.empty((window, system.n_points, 0))
    stacked = np.stack([a.values for a in avgs])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, with no numpy warning
        if defect_against:
            a_n_f = average_block(system, family, defect_against, f.values)  # row j is A_N f
            refs = average_block(system, family, range(1, window + 1), a_n_f.T)
        defects = [stacked - refs[:, :, j] for j in range(len(defect_against))]
        if not all(np.isfinite(d).all() for d in defects):
            raise StructureError("observable values must be finite")  # as the defect's Observable would say
        # one block norm per column, the norm_Anf and each defect_N: `lp_norms` rows are `lp_norm`'s, bitwise
        columns = [lp_norms(system, block, f.p) for block in [stacked] + defects]
    if not np.isfinite(columns).all():
        raise StructureError("the L^p norms of the observable's averages are not finite")
    for n in range(1, window + 1):
        cells = [str(n)]
        if refined:
            cells.append(str(family.indices[n - 1]))
        cells.append(str(family.card(n)))
        cells += [_fmt(column[n - 1]) for column in columns]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


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
    inp = _Inputs.read(config)
    system, f, window = inp.system, inp.f, inp.window
    conv = ConvexityModulus.from_config(get_section(config, "modulus", {}), default_p=f.p)
    eta_spec = get_section(config, "eta", {"type": "default"})
    fixed_eta = get_choice(eta_spec, "type", ("default", "fixed")) == "fixed"
    eta = get_float(eta_spec, "value") if fixed_eta else None
    epsilons = get_floats(config, "epsilons")
    corollary = get_choice(config, "verify", ("main", "corollary"), "main") == "corollary"
    lam = get_int(config, "lambda", 1, lo=1)

    if corollary:  # the verifier refines the standard boxes `count` long: the run's real window
        get_choice(inp.family, "type", ("refined",), "refined")
        window = get_int(inp.family, "count", 8, lo=1, hi=WINDOW_LIMIT)
        source = standard_family(inp.group, get_int(inp.family, "source_n_max", 10**30, lo=1))
        _check_defect_against(window, inp.defect_against)
        reports = verify_corollary(system, source, lam, conv, f, epsilons, window, eta=eta)
    else:
        family = _family(inp.family, inp.group, window)
        _check_defect_against(family.n_max, inp.defect_against)
        reports = verify_main_theorem(system, family, None, conv, f, epsilons, window, eta=eta)
    csv_family, table = reports[0].family, reports[0].modulus_table  # the first eps's family, the one table

    result = ExperimentResult(exit_code=exit_code_for(reports), reports=reports, seed=inp.seed)
    if write:
        out = Path(out_dir if out_dir is not None else get_str(config, "output_dir", "."))
        _write(out, None)
        _write(out / "averages.csv", _averages_csv(system, csv_family, f, reports[0].averages, inp.defect_against))
        report_doc = {
            "seed": inp.seed,
            "config": config,
            "all_verdicts_true": result.exit_code == 0,
            "reports": [r.to_jsonable() for r in reports],
        }
        _write(out / "report.json", _json_text(report_doc))
        _write(out / "modulus.json", table.to_json_text() if table is not None else _json_text({"entries": []}))
        result.paths = {
            "averages": str(out / "averages.csv"),
            "report": str(out / "report.json"),
            "modulus": str(out / "modulus.json"),
        }
    return result


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_folner_build(args) -> int:
    n_max = get_int({"--n-max": args.n_max}, "--n-max", lo=1, hi=NS_SPAN_CAP + 1)
    spec = {"type": args.kind, "n_max": n_max}
    family = _family(spec, group_by_name(args.group), n_max)
    for n in range(1, family.n_max + 1):
        print(f"{n} {family.card(n)}")
    if args.out is not None:
        _write(args.out, _json_text(family.to_jsonable()))
    return 0


def _cli_window(args) -> int:
    """The `--window` flag, refused like a config's `window` unless 1 <= window < WINDOW_LIMIT."""
    return get_int({"--window": args.window}, "--window", lo=1, hi=WINDOW_LIMIT)


def _cmd_folner_check(args) -> int:
    window = _cli_window(args)
    n_max = max(window, args.n)
    spec = {"type": args.family, "n_max": n_max}
    family = _family(spec, group_by_name(args.group), n_max)
    print(convergence_modulus(family, args.n, as_fraction(args.eps), m_max=window).value)
    return 0


def _cmd_folner_refine(args) -> int:
    group = group_by_name(args.group)
    source = standard_family(group, args.source_n_max)
    count = get_int({"--count": args.count}, "--count", lo=1, hi=NS_SPAN_CAP + 1)
    refined = fast_refinement(source, as_fraction(args.eps), count=count)
    print(" ".join(str(i) for i in refined.indices))
    if args.out is not None:
        _write(args.out, _json_text(refined.to_jsonable()))
    return 0


def _parse_ns(spec: str) -> List[int]:
    if "-" in spec and "," not in spec:
        lo, hi = (_parsed(tok, int, "--ns") for tok in spec.split("-", 1))
        if hi - lo >= NS_SPAN_CAP:
            raise ConfigError(f"--ns span {spec!r} names {hi - lo + 1} indices; the cap is {NS_SPAN_CAP}")
        ns = list(range(lo, hi + 1))
    else:
        ns = _parsed_list(spec, int, "--ns")
    if not ns:
        raise ConfigError(f"--ns names no index: {spec!r}")
    return ns


def _cmd_modulus_compute(args) -> int:
    ns = _parse_ns(args.ns)
    window = _cli_window(args)
    n_max = max(max(ns), window)
    spec = {"type": args.family, "n_max": n_max}
    family = _family(spec, group_by_name(args.group), n_max)
    eps = as_fraction(args.eps)
    table = build_modulus_table(family, ns, [eps], m_max=window)
    row = table.entries_at(eps)  # one lookup of the tolerance, however many ns
    print("\n".join(f"{n} {row[n].value}" for n in ns))
    if args.out is not None:
        _write(args.out, table.to_json_text())
    return 0


def _cmd_avg_run(args) -> int:
    inp = _Inputs.read(load_config(args.config))
    family = _family(inp.family, inp.group, inp.window)
    avgs = average_sequence(inp.system, family, inp.f, inp.window)
    csv = _averages_csv(inp.system, family, inp.f, avgs, inp.defect_against)
    if args.out is not None:
        _write(args.out, csv)
        print(args.out)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_fluct_count(args) -> int:
    data = _parsed_list(args.data, float, "--data")
    for x in data:
        _within_half_range(x, "--data value")
    beta = None
    if args.beta is not None:  # `--beta=` names no value, which max_chain refuses as `--beta ,` is
        if args.lam is not None:
            raise ConfigError("--beta and --lam each give beta; pass one of them")
        beta = _parsed_list(args.beta, int, "--beta")
    elif args.lam is not None:
        beta = [n + args.lam for n in range(1, len(data) + 1)]
    report = max_chain(np.abs(np.subtract.outer(data, data)), args.eps, beta=beta)
    print(report.count)
    return 0


def _cmd_bound_eval(args) -> int:
    # `--modulus auto` names no type, which selects the default by p
    named = (("type", args.modulus), ("p", args.p), ("K", args.K))
    spec = {key: v for key, v in named if v not in (None, "auto")}
    modulus = ConvexityModulus.from_config(spec)
    eta = default_eta(modulus, args.norm, args.eps) if args.eta is None else args.eta
    if args.lam is not None:
        print(corollary_bound(modulus, args.norm, args.eps, eta, args.lam, lower=args.lower))
    else:
        print(theorem_bound(modulus, args.norm, args.eps, eta, lower=args.lower))
    return 0


def _cmd_run(args) -> int:
    """`run`, or `verify main|corollary` (args.which): verify forces the config's
    mode, writes artifacts only with --out-dir and prints no paths."""
    config = load_config(args.config)
    if args.which is not None:
        config["verify"] = args.which
    write = args.which is None or args.out_dir is not None
    result = run_experiment(config, out_dir=args.out_dir, write=write)
    for rep in result.reports:
        print(f"eps={rep.epsilon} count={rep.count} bound={rep.bound} verdict={rep.verdict}")
    if args.which is None:
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
    b.add_argument("--n-max", action=_Number, convert=int, required=True, dest="n_max")
    b.add_argument("--out", action=_Path)
    b.set_defaults(func=_cmd_folner_build)

    c = folner_sub.add_parser("check")
    c.add_argument("--group", required=True)
    c.add_argument("--family", default="standard", choices=["standard", "greedy"])
    c.add_argument("--n", action=_Number, convert=int, required=True)
    c.add_argument("--eps", required=True)
    c.add_argument("--window", action=_Number, convert=int, required=True)
    c.set_defaults(func=_cmd_folner_check)

    r = folner_sub.add_parser("refine")
    r.add_argument("--group", required=True)
    r.add_argument("--eps", required=True)
    r.add_argument("--count", action=_Number, convert=int, default=8)
    r.add_argument("--source-n-max", action=_Number, convert=int, default=10**12, dest="source_n_max")
    r.add_argument("--out", action=_Path)
    r.set_defaults(func=_cmd_folner_refine)

    p_mod = sub.add_parser("modulus", help="compute convergence moduli")
    mod_sub = p_mod.add_subparsers(dest="subcommand", required=True)
    mc = mod_sub.add_parser("compute")
    mc.add_argument("--group", required=True)
    mc.add_argument("--family", default="standard", choices=["standard", "greedy"])
    mc.add_argument("--ns", required=True, help=f"indices, e.g. 1-10 or 1,3,5; a span names at most {NS_SPAN_CAP}")
    mc.add_argument("--eps", required=True)
    mc.add_argument("--window", action=_Number, convert=int, required=True)
    mc.add_argument("--out", action=_Path)
    mc.set_defaults(func=_cmd_modulus_compute)

    p_avg = sub.add_parser("avg", help="ergodic average tables")
    avg_sub = p_avg.add_subparsers(dest="subcommand", required=True)
    ar = avg_sub.add_parser("run")
    ar.add_argument("--config", required=True)
    ar.add_argument("--out", action=_Path)
    ar.set_defaults(func=_cmd_avg_run)

    p_fl = sub.add_parser("fluct", help="fluctuation counting")
    fl_sub = p_fl.add_subparsers(dest="subcommand", required=True)
    fc = fl_sub.add_parser("count")
    fc.add_argument("--eps", action=_Number, convert=float, required=True)
    fc.add_argument("--data", required=True, help="comma-separated real sequence")
    fc.add_argument("--beta", help="comma-separated beta values, one per index")
    fc.add_argument("--lam", action=_Number, convert=int, help="use beta(n) = n + lam")
    fc.set_defaults(func=_cmd_fluct_count)

    p_bd = sub.add_parser("bound", help="theorem/corollary bound evaluation")
    bd_sub = p_bd.add_subparsers(dest="subcommand", required=True)
    be = bd_sub.add_parser("eval")
    be.add_argument("--p", action=_Number, convert=float, required=True)
    be.add_argument("--eps", action=_Number, convert=float, required=True)
    be.add_argument("--norm", action=_Number, convert=float, required=True)
    be.add_argument("--eta", action=_Number, convert=float)
    be.add_argument("--lower", action=_Number, convert=float)
    be.add_argument("--lam", action=_Number, convert=int)
    be.add_argument("--modulus", default="auto", choices=["auto", "hanner", "small-p", "p-uniform"])
    be.add_argument("--K", action=_Number, convert=float)
    be.set_defaults(func=_cmd_bound_eval)

    p_ver = sub.add_parser("verify", help="verify the main theorem or the corollary")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    for which in ("main", "corollary"):
        v = ver_sub.add_parser(which)
        v.add_argument("--config", required=True)
        v.add_argument("--out-dir", action=_Path, dest="out_dir")
        v.set_defaults(func=_cmd_run, which=which)

    p_run = sub.add_parser("run", help="run a full experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", action=_Path, dest="out_dir")
    p_run.set_defaults(func=_cmd_run, which=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except ErgolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse has printed its usage error (2) or its help (0)
        return exc.code
    return code


if __name__ == "__main__":
    sys.exit(main())
