"""CLI subcommands as thin wrappers: printed numbers equal library results."""

import contextlib
import gzip
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    ConvexityModulus,
    average_defect,
    average_sequence,
    convergence_modulus,
    group_by_name,
    lp_norm,
    max_chain,
    rotation_system,
    standard_family,
    theorem_bound,
    torus_translation_system,
)
from ergolab.cli import NS_SPAN_CAP, WINDOW_LIMIT, exit_code_for, main, run_experiment
from ergolab.fluctuation import FluctuationReport
from ergolab.groups import MAX_DIMENSION, HeisenbergGroup, from_block

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "configs" / "demo.json"
COROLLARY = REPO / "configs" / "corollary.json"
README = REPO / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def demo_config():
    return json.loads(DEMO.read_text())


def test_bound_eval_matches_library(capsys):
    code, out, _ = run_cli(capsys, "bound", "eval", "--p", "2", "--eps", "0.5", "--norm", "1")
    assert code == 0
    hm = ConvexityModulus.hanner(2)
    expected = theorem_bound(hm, 1.0, 0.5, 0.25 * hm(0.5))
    assert out.strip() == str(expected) == "503"


def test_bound_eval_corollary_mode(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "eval", "--p", "2", "--eps", "0.5", "--norm", "1", "--lam", "2"
    )
    assert code == 0
    assert out.strip() == str(2 * 503 + 2)


def test_fluct_count_matches_library(capsys):
    code, out, _ = run_cli(capsys, "fluct", "count", "--eps", "1", "--data", "0,1,0,1")
    assert code == 0
    data = [0.0, 1.0, 0.0, 1.0]
    expected = max_chain([[abs(a - b) for b in data] for a in data], 1.0).count
    assert out.strip() == str(expected) == "3"


def test_fluct_count_at_distance(capsys):
    code, out, _ = run_cli(
        capsys, "fluct", "count", "--eps", "1", "--data", "0,1,0,1", "--lam", "2"
    )
    assert code == 0 and out.strip() == "1"


def test_fluct_count_refuses_beta_and_lam_together(capsys):
    argv = ["fluct", "count", "--eps", "0.5", "--data", "0,1,0,1,0,1", "--beta", "3,4,5,6,7,8", "--lam", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err == "error: --beta and --lam each give beta; pass one of them\n"


def test_fluct_count_refuses_an_empty_beta_as_it_refuses_a_lone_comma(capsys):
    for beta in ("--beta=", "--beta=,"):
        code, out, err = run_cli(capsys, "fluct", "count", "--eps", "0.5", "--data", "0,1,0,1,0,1", beta)
        assert (code, out) == (1, "") and err == "error: beta needs one value per index, got 0 for length 6\n", beta


def test_folner_check_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "folner", "check", "--group", "Z", "--family", "standard",
        "--n", "5", "--eps", "1/10", "--window", "60",
    )
    assert code == 0
    expected = convergence_modulus(standard_family(group_by_name("Z"), 60), 5, "1/10").value
    assert out.strip() == str(expected) == "50"


def test_folner_build_and_refine(capsys, tmp_path):
    out_file = tmp_path / "fam.json"
    code, out, _ = run_cli(
        capsys, "folner", "build", "--group", "Z", "--kind", "greedy",
        "--n-max", "4", "--out", str(out_file),
    )
    assert code == 0
    assert out.splitlines()[0] == "1 1"
    assert json.loads(out_file.read_text())["provenance"] == "greedy-constructed"

    code, out, _ = run_cli(capsys, "folner", "refine", "--group", "Z", "--eps", "1/2", "--count", "5")
    assert code == 0 and out.split() == ["1", "2", "4", "8", "16"]


def test_modulus_compute(capsys, tmp_path):
    out_file = tmp_path / "mod.json"
    code, out, _ = run_cli(
        capsys, "modulus", "compute", "--group", "Z", "--ns", "1-3",
        "--eps", "1/4", "--window", "40", "--out", str(out_file),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1 4", "2 8", "3 12"]
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "analytic" and doc["certified_up_to"] is None


def test_greedy_modulus_matches_the_stored_benchmark_reference(capsys, tmp_path):
    # the greedy-z workload's argv; its reference is read, never written, here
    ref = json.loads(gzip.decompress((REPO / "perfbench" / "refs" / "greedy-z.json.gz").read_bytes()))
    out_file = tmp_path / "modulus.json"
    code, out, _ = run_cli(
        capsys, "modulus", "compute", "--group", "Z", "--family", "greedy", "--ns", "1-6",
        "--eps", "1/2", "--window", "8", "--out", str(out_file),
    )
    assert code == 0
    assert out.splitlines() == ref["stdout"]
    assert json.loads(out_file.read_text()) == ref["files"]["modulus.json"]


def test_ns_span_past_the_cap_is_refused_before_any_work(capsys):
    ok = ["--group", "Z", "--eps", "1/2", "--window", "3"]
    for spec in (f"1-{NS_SPAN_CAP + 1}", "1-100000000000000000000", "0-100000000000000000000"):
        code, out, err = run_cli(capsys, "modulus", "compute", "--ns", spec, *ok)
        assert code == 1 and out == "", spec
        assert err.startswith("error: --ns") and str(NS_SPAN_CAP) in err and "Traceback" not in err, spec
    code, out, _ = run_cli(capsys, "modulus", "compute", "--ns", f"1-{NS_SPAN_CAP}", *ok)
    assert code == 0 and out.splitlines()[-1] == f"{NS_SPAN_CAP} {2 * NS_SPAN_CAP}"  # 2n/(2m+1) < 1/2 from m = 2n


def test_folner_build_past_the_span_cap_is_refused_before_any_line(capsys, monkeypatch):
    built = []
    monkeypatch.setattr("ergolab.cli.standard_family", lambda *a: built.append(a))
    monkeypatch.setattr("ergolab.cli.greedy_folner", lambda *a: built.append(a))
    for kind in ("standard", "greedy"):
        for n_max in (str(NS_SPAN_CAP + 1), "100000000000000000000", "0", "-3"):
            code, out, err = run_cli(capsys, "folner", "build", "--group", "Z", "--kind", kind, "--n-max", n_max)
            assert code == 1 and out == "", (kind, n_max)
            assert err.startswith("error: --n-max") and str(NS_SPAN_CAP + 1) in err and "Traceback" not in err
    assert built == []  # refused before any family is built
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "folner", "build", "--group", "Z", "--n-max", str(NS_SPAN_CAP))
    assert code == 0 and out.splitlines()[-1] == f"{NS_SPAN_CAP} {2 * NS_SPAN_CAP + 1}"


def test_folner_refine_past_the_span_cap_is_refused_before_any_refinement(capsys, monkeypatch):
    refined = []
    monkeypatch.setattr("ergolab.cli.fast_refinement", lambda *a, **k: refined.append(a))
    # past eps 2 every next index qualifies, so a count of 10^8 would refine 10^8 steps
    for count in (str(NS_SPAN_CAP + 1), "100000000", "0", "-3"):
        code, out, err = run_cli(capsys, "folner", "refine", "--group", "Z", "--eps", "3", "--count", count)
        assert code == 1 and out == "", count
        assert err.startswith("error: --count") and str(NS_SPAN_CAP + 1) in err and "Traceback" not in err
    assert refined == []  # refused before any refinement
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "folner", "refine", "--group", "Z", "--eps", "3", "--count", str(NS_SPAN_CAP))
    assert code == 0 and out.split() == [str(i) for i in range(1, NS_SPAN_CAP + 1)]


def test_fluct_count_refuses_data_past_half_the_float_range(capsys):
    half = sys.float_info.max / 2
    for data in ("0,inf,1", "0,1e308,-1e308", "nan,0", "1,-inf", f"0,{half * (1 + 2**-52)!r}"):
        code, out, err = run_cli(capsys, "fluct", "count", "--eps", "1", "--data", data)
        assert code == 1 and out == "", data
        assert err.startswith("error: --data") and "Traceback" not in err, data
    # at half the range every difference is finite: the two ends are 2 * half apart, past eps
    code, out, _ = run_cli(capsys, "fluct", "count", "--eps", "1", "--data", f"0,{half!r},{-half!r}")
    assert code == 0 and out == "2\n"


def test_lattice_dimension_past_the_cap_exits_one(capsys):
    for group in ("Z^3000", "Z^100000000000000000000"):
        code, out, err = run_cli(capsys, "folner", "build", "--group", group, "--kind", "greedy", "--n-max", "2")
        assert code == 1 and out == "" and "Traceback" not in err, group
        assert err.startswith("error:") and str(MAX_DIMENSION) in err, group


def test_huge_point_count_is_refused_before_the_weights_are_built(tmp_path, capsys):
    for points in (10**30, 10**9):
        config = demo_config()
        config["system"]["points"] = points  # the generator still has 12 entries
        cfg = tmp_path / "points.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "") and "Traceback" not in err, points
        assert err == f"error: {points} points need generators of {points} entries each, got lengths {{'t': 12}}\n"


@pytest.mark.parametrize("d", [5, 10])
def test_run_refuses_generators_that_are_no_action_naming_the_relation(tmp_path, capsys, d):
    # t_(d-1) = (0 1) and t_d = (1 2) do not commute, so these are no action of Z^d
    generators = {f"t{i}": [0, 1, 2] for i in range(1, d + 1)}
    generators[f"t{d - 1}"], generators[f"t{d}"] = [1, 0, 2], [0, 2, 1]
    config = {
        "group": f"Z^{d}",
        "system": {"points": 3, "weights": "uniform", "generators": generators},
        "observable": {"type": "explicit", "values": [1.0, 0.0, 0.0]},
        "p": 2,
        "epsilons": [0.2],
        "window": 1,
    }
    cfg = tmp_path / "no-action.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "") and "Traceback" not in err
    relation = f"t{d - 1} t{d} = t{d} t{d - 1}"
    assert err == f"error: system does not validate: action is not a homomorphism: the Z^{d} relation {relation} fails\n"
    assert not (tmp_path / "out").exists()


def test_window_at_or_past_the_limit_exits_one_naming_it(tmp_path, capsys):
    assert WINDOW_LIMIT >= 400 and 8 * WINDOW_LIMIT**2 <= 2**27  # every committed and benchmark window fits
    for window in (10**30, 1e308, WINDOW_LIMIT, WINDOW_LIMIT + 1):
        config = demo_config()
        config["window"] = window
        cfg = tmp_path / "window.json"
        cfg.write_text(json.dumps(config))
        for argv in (("run",), ("verify", "corollary")):  # corollary mode only echoes it, but reads it the same way
            code, out, err = run_cli(capsys, *argv, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
            assert (code, out) == (1, "") and "Traceback" not in err, window
            assert err.startswith("error: window") and str(WINDOW_LIMIT) in err, window


@pytest.mark.parametrize("second", [[1, True, 0], [True, 1, 0]], ids=["int-first", "bool-first"])
def test_explicit_set_elements_are_checked_before_duplicates_merge(tmp_path, capsys, second):
    config = demo_config()
    config["window"] = 2
    config["family"] = {"type": "explicit", "sets": [[0], second]}
    cfg = tmp_path / "explicit.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", "error: Z element must be an int, got True\n")


def test_corollary_count_at_or_past_the_window_limit_exits_one_naming_it(tmp_path, capsys):
    # the count is the corollary run's window; the zero observable makes no refinement, only averages
    for count in (10**8, WINDOW_LIMIT, 0):
        config = json.loads(COROLLARY.read_text())
        config["observable"] = {"type": "explicit", "values": [0.0] * 12}
        config["family"]["count"] = count
        cfg = tmp_path / "count.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "") and "Traceback" not in err, count
        assert err.startswith("error: count") and str(WINDOW_LIMIT) in err, count
    config["family"]["count"] = WINDOW_LIMIT - 1
    cfg.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "verify", "corollary", "--config", str(cfg))
    assert code == 0


@pytest.mark.parametrize("group", ["Z^2", "H3"])
@pytest.mark.parametrize(
    "command", [["folner", "check", "--n", "1"], ["modulus", "compute", "--ns", "1"]], ids=["folner-check", "modulus"]
)
def test_flag_window_outside_its_range_is_refused_before_any_family(capsys, monkeypatch, group, command):
    built = count_calls(monkeypatch, "ergolab.folner", "standard_family")
    for window in (0, -4, WINDOW_LIMIT, 10**9):
        argv = [*command, "--group", group, "--eps", "1/2", "--window", str(window)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --window must be an integer >= 1 and below {WINDOW_LIMIT}, got {window}\n"
    assert built == []
    if group == "Z^2":  # analytic moduli: the last window below the limit is taken
        code, out, _ = run_cli(capsys, *command, "--group", group, "--eps", "1/2", "--window", str(WINDOW_LIMIT - 1))
        assert (code, out.split()[-1]) == (0, "4")


def test_run_evaluates_the_convexity_modulus_once_per_eps(tmp_path, monkeypatch):
    config = demo_config()
    config["epsilons"] = [0.05, 0.1, 0.2]
    calls = []
    evaluate = ConvexityModulus.__call__
    monkeypatch.setattr(ConvexityModulus, "__call__", lambda self, eps: calls.append(eps) or evaluate(self, eps))
    result = run_experiment(config, out_dir=tmp_path)
    assert len(calls) == 3 and result.exit_code == 0
    # modulus.json is the table the verifier certified against
    doc = json.loads((tmp_path / "modulus.json").read_text())
    assert doc == result.reports[0].modulus_table.to_jsonable()
    assert len({e["eps"] for e in doc["entries"]}) == 3


def _workloads():
    """perfbench/workloads.py, read as a module and never written."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["z-wide", "z2-torus"])
def test_run_matches_the_stored_benchmark_reference(capsys, tmp_path, workload):
    # the seeded workloads' configs at seed 0; their references are read, never written, here
    ref = json.loads(gzip.decompress((REPO / "perfbench" / "refs" / f"{workload}-seed0.json.gz").read_bytes()))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_workloads().config_for(workload, 0)))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
    assert code == 0
    assert out.replace(str(out_dir), "<out>").splitlines() == ref["stdout"]
    for name in ("report.json", "modulus.json"):
        assert json.loads((out_dir / name).read_text()) == ref["files"][name], name
    # the reference holds the parsed cells; str gives back each cell's text (floats by repr)
    csv = "".join(",".join(map(str, row)) + "\n" for row in ref["files"]["averages.csv"])
    assert (out_dir / "averages.csv").read_text() == csv


COROLLARY_RUNS = {"corollary": None, "corollary-3eps": [0.3, 0.28, 0.26]}  # 0.2 runs out of source_n_max 10^15


def corollary_run_config(tmp_path, name) -> Path:
    """configs/corollary.json as written to tmp_path, with the epsilons of COROLLARY_RUNS[name] if any."""
    config = json.loads(COROLLARY.read_text())
    if COROLLARY_RUNS[name] is not None:
        config["epsilons"] = COROLLARY_RUNS[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    return cfg


@pytest.mark.parametrize("name", COROLLARY_RUNS)
def test_corollary_run_matches_the_stored_artifacts(capsys, tmp_path, name):
    # tests/data/<name> holds the stdout and the three artifacts, byte for byte, as the run first wrote them
    expected = REPO / "tests" / "data" / name
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "--config", str(corollary_run_config(tmp_path, name)), "--out-dir", str(out_dir))
    assert code == 0
    assert out.replace(str(out_dir), "<out>") == (expected / "stdout.txt").read_text()
    for artifact in ("report.json", "averages.csv", "modulus.json"):
        assert (out_dir / artifact).read_bytes() == (expected / artifact).read_bytes(), artifact


def test_corollary_run_makes_one_verifier_call_and_one_branch_per_eps(tmp_path, monkeypatch):
    from ergolab import fluctuation

    cfg = corollary_run_config(tmp_path, "corollary-3eps")
    verifier_calls = count_calls(monkeypatch, "ergolab.fluctuation", "verify_corollary")
    norms = []
    norm = fluctuation.lp_norm
    monkeypatch.setattr(fluctuation, "lp_norm", lambda *args: norms.append(args) or norm(*args))
    evaluations = []
    modulus = ConvexityModulus.__call__
    monkeypatch.setattr(ConvexityModulus, "__call__", lambda self, eps: evaluations.append(eps) or modulus(self, eps))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (len(verifier_calls), len(evaluations), len(norms)) == (1, 3, 1)


def test_avg_run_matches_library(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    config = demo_config()
    config["window"] = 10
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "avg", "run", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,card,norm_Anf"
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    fam = standard_family(group_by_name("Z"), 10)
    avgs = average_sequence(system, fam, f, 10)
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert cells[1] == str(2 * n + 1)
        assert float(cells[2]) == lp_norm(system, avgs[n - 1])  # exact repr round-trip
    assert code == 0


def test_avg_run_defect_columns(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    config = demo_config()
    config["window"] = 8
    config["defect_against"] = [1, 2]
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "avg", "run", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,card,norm_Anf,defect_1,defect_2"
    # defect columns are ||A_n f - A_n A_N f||_p; zero on the diagonal index
    from ergolab import Observable, average_sequence, ergodic_average

    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    fam = standard_family(group_by_name("Z"), 8)
    a2 = ergodic_average(system, fam, 2, f)
    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[0])
        a_n_a2 = ergodic_average(system, fam, n, a2)
        a_n = ergodic_average(system, fam, n, f)
        expected = lp_norm(system, Observable(a_n.values - a_n_a2.values, 2))
        assert float(cells[4]) == expected


def test_run_demo_config_exit_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "--config", str(DEMO), "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "averages.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "modulus.json").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_verdicts_true"] is True
    assert report["seed"] == 42
    assert all(r["verdict"] for r in report["reports"])


def test_run_invariant_observable_counts_zero(tmp_path):
    config = demo_config()
    config["observable"] = {"type": "explicit", "values": [0.7] * 12}
    config["window"] = 20
    result = run_experiment(config, out_dir=tmp_path)
    assert result.exit_code == 0
    assert all(r.count == 0 for r in result.reports)


def test_run_is_byte_identical_across_reruns(tmp_path):
    config = demo_config()
    config["observable"] = {"type": "random", "distribution": "normal", "scale": 1.0}
    config["window"] = 25
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out_dir=a)
    run_experiment(config, out_dir=b)
    for name in ("averages.csv", "report.json", "modulus.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    config = demo_config()
    config["observable"] = {"type": "random", "distribution": "normal", "scale": 1.0}
    config["window"] = 10
    monkeypatch.setenv("ERGOLAB_SEED", "777")
    result = run_experiment(config, out_dir=tmp_path)
    assert result.seed == 777
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 777


def test_negative_env_seed_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ERGOLAB_SEED", "-1")
    code, _, err = run_cli(capsys, "run", "--config", str(DEMO), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "ERGOLAB_SEED" in err


def test_bad_eta_config_exits_one(tmp_path, capsys):
    config = demo_config()
    hm = ConvexityModulus.hanner(2)
    config["eta"] = {"type": "fixed", "value": hm(0.3)}  # >= u(eps)/2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert "eta" in err


def test_fixed_eta_refused_at_the_second_eps_exits_one(tmp_path, capsys):
    config = demo_config()
    hm = ConvexityModulus.hanner(2)
    config["epsilons"] = [0.3, 0.05]
    config["eta"] = {"type": "fixed", "value": 0.3 * hm(0.3)}  # inside u(0.3)/2, outside u(0.05)/2
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps(config))
    for argv in (("run",), ("verify", "main")):
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == (
            f"error: eta violates its precondition 0 < eta < u(eps)/2: eta={0.3 * hm(0.3)}, "
            f"u(eps)/2={0.5 * hm(0.05)}\n"
        )


def test_wrong_observable_length_is_reported_once(tmp_path, capsys):
    config = demo_config()
    config["observable"] = {"type": "explicit", "values": [1.0] * 11}
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: observable length 11 does not match 12 points\n"


def test_negative_observable_norm_is_a_config_error(tmp_path, capsys):
    config = demo_config()
    config["observable"] = {"type": "indicator", "point": 0, "norm": -1}
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "norm" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("observable", "oops"),
        ("eta", "x"),
        ("observable", {"type": "indicator", "point": 1000000}),
        ("system", {"points": "x", "weights": "uniform", "generators": {"t": [1, 0]}}),
        ("system", {"points": 2.5, "weights": "uniform", "generators": {"t": [1, 0]}}),
        ("system", {"points": True, "weights": "uniform", "generators": {"t": [0]}}),
        ("observable", {"type": "indicator", "point": float("inf")}),
        ("epsilons", "abc"),
        ("p", "x"),
        ("window", "x"),
        ("seed", "x"),
        ("defect_against", ["x"]),
        ("lambda", "x"),
        ("family", {"type": "standard", "n_max": "x"}),
        ("family", {"type": "greedy"}),
        ("eta", {"type": "fixed", "value": "x"}),
        ("eta", {"type": "fixed"}),
        ("observable", {"type": "random", "scale": "x"}),
        ("observable", {"type": "explicit"}),
        ("system", {"points": 2, "weights": "uniform", "generators": {"t": "x"}}),
        ("group", []),
        ("modulus", {"type": "p-uniform"}),
        ("modulus", {"type": "p-uniform", "K": "x"}),
        ("modulus", {"type": "hanner", "p": "x"}),
        ("output_dir", 5),
        ("family", {"type": "explicit", "sets": 5}),
        ("family", {"type": "explicit", "sets": [5]}),
        # past float range: numpy's uniform width and K * eps^(p+1) overflow
        ("observable", {"type": "random", "distribution": "uniform", "scale": 1e308}),
        ("modulus", {"type": "p-uniform", "K": 0.0625, "p": -1e308}),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, key, value):
    config = demo_config()
    config[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    # output_dir is read only when no --out-dir is given
    out_dir = [] if key == "output_dir" else ["--out-dir", str(tmp_path)]
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), *out_dir)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["modulus", "compute", "--group", "Z", "--ns", "1-x", "--eps", "1/4", "--window", "40"],
        ["modulus", "compute", "--group", "Z", "--ns", ",", "--eps", "1/4", "--window", "40"],
        ["fluct", "count", "--eps", "1", "--data", "a,b"],
        ["fluct", "count", "--eps", "1", "--data", "0,1", "--beta", "x"],
    ],
    ids=["ns-range", "ns-empty", "data", "beta"],
)
def test_malformed_argv_value_is_a_config_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--p", ["bound", "eval", "--p", "x", "--eps", "0.5", "--norm", "1"]),
        ("--eps", ["fluct", "count", "--eps", "x", "--data", "0,1"]),
        ("--n-max", ["folner", "build", "--group", "Z", "--n-max", "x"]),
        ("--window", ["modulus", "compute", "--group", "Z", "--ns", "1", "--eps", "1/4", "--window", "4.5"]),
        ("--lam", ["bound", "eval", "--p", "2", "--eps", "0.5", "--norm", "1", "--lam", "x"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_non_numeric_flag_value_is_a_config_error_naming_the_flag(capsys, flag, argv):
    # argparse's own type check would exit 2 (a failed verdict) with a usage line
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag}:") and "usage:" not in err and "Traceback" not in err


def test_fluct_count_refuses_nan_eps(capsys):
    code, out, err = run_cli(capsys, "fluct", "count", "--eps", "nan", "--data", "0,1,0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    code, out, _ = run_cli(capsys, "fluct", "count", "--eps", "inf", "--data", "0,1,0")
    assert code == 0 and out.strip() == "0"


WRONG_TYPED = ("x", ["x"], None, True, 2.5, -1, float("inf"), {})
# demo.json lacks the corollary-mode family keys, lambda, a random observable
# with a target norm, defect_against and a p-uniform modulus; corollary.json has them
BASES = {"demo": DEMO, "corollary": COROLLARY}


def _config_keys(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _config_keys(value, prefix + (key,))


BASE_PATHS = [(base, path) for base, file in BASES.items() for path in _config_keys(json.loads(file.read_text()))]


# 110 derandomised examples fall 51 on demo.json and 59 on corollary.json
@settings(max_examples=110, deadline=None, derandomize=True)
@given(base_path=st.sampled_from(BASE_PATHS), value=st.sampled_from(WRONG_TYPED))
def test_wrong_typed_config_key_never_escapes(base_path, value):
    base, path = base_path
    config = json.loads(BASES[base].read_text())
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--out-dir", tmp])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")


# one bad value per kind: none, bool, negative, zero, fraction, past int64 and float range,
# strings, empty and nested containers
MUTANT_VALUES = (None, True, -1, 0, 0.5, 10**30, 2**63, 1e308, -1e308, "x", "", [], {}, [0], [[]])
# working commands; any value token (after the subcommand) may be replaced
MUTANT_ARGV = (
    ["folner", "check", "--group", "Z^2", "--n", "2", "--eps", "1/2", "--window", "6"],
    ["folner", "refine", "--group", "Z", "--eps", "1/2", "--count", "3"],
    ["folner", "build", "--group", "Z", "--kind", "greedy", "--n-max", "4"],
    ["modulus", "compute", "--group", "H3", "--ns", "1-2", "--eps", "1/2", "--window", "4"],
    ["modulus", "compute", "--group", "Z", "--family", "greedy", "--ns", "1-3", "--eps", "1/2", "--window", "6"],
    ["fluct", "count", "--eps", "0.5", "--data", "0,1,0,1", "--lam", "1"],
    ["bound", "eval", "--p", "2", "--eps", "0.5", "--norm", "1"],
)
MUTANT_TOKENS = ("0", "-1", "1.5", "abc", "", "1/0", "nan", "inf", "1e999", "Z^0", "Z^65", "H4", "--", "1-", "3-1", ",")


@st.composite
def mutated_invocations(draw, tmp):
    """The argv of one invocation: a config of BASES with one key set to a bad value under
    run, verify corollary or verify main, or a working command with one value token replaced."""
    if draw(st.booleans()):
        base, path = draw(st.sampled_from(BASE_PATHS))
        config = json.loads(BASES[base].read_text())
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = draw(st.sampled_from(MUTANT_VALUES))
        cfg = Path(tmp) / "mutant.json"
        cfg.write_text(json.dumps(config))
        command = draw(st.sampled_from([["run"], ["verify", "corollary"], ["verify", "main"]]))
        return [*command, "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")]
    argv = list(draw(st.sampled_from(MUTANT_ARGV)))
    argv[draw(st.sampled_from(range(3, len(argv), 2)))] = draw(st.sampled_from(MUTANT_TOKENS))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_or_argv_never_escapes(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(mutated_invocations(tmp))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2), argv


def test_verify_main_at_a_tiny_tolerance(tmp_path, capsys):
    # the branch tolerance at eps 1e-05 needs analytic moduli near 10^18 and past it
    config = demo_config()
    config["observable"] = {"type": "random", "distribution": "normal", "scale": 1.0}
    config["epsilons"] = [1e-05, 0.05]
    config["window"] = 50
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "verify", "main", "--config", str(cfg))
    assert code == 0
    assert out.count("verdict=True") == 2


def test_verify_corollary_cli(tmp_path, capsys):
    config = demo_config()
    config["family"] = {"type": "refined", "count": 6}
    config["lambda"] = 1
    cfg = tmp_path / "cor.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "verify", "corollary", "--config", str(cfg))
    assert code == 0
    assert "verdict=True" in out


def test_exit_code_for_reports():
    good = FluctuationReport(epsilon=0.3, mode="plain", chain=[1], count=0, verdict=True)
    bad = FluctuationReport(epsilon=0.3, mode="plain", chain=[1, 2], count=1, verdict=False)
    assert exit_code_for([good, good]) == 0
    assert exit_code_for([good, bad]) == 2


def test_missing_config_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/x.json")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "content", [b'{"group": "\xff\xfe"}', b"[" * 100_000], ids=["not-utf-8", "nested-past-the-recursion-limit"]
)
def test_undecodable_config_is_a_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.startswith(f"error: cannot load config {cfg}: ")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["folner", "build", "--group", "Z", "--n-max", "2", "--out"], "missing/fam.json"),
        (["folner", "refine", "--group", "Z", "--eps", "1/2", "--count", "2", "--out"], "missing/fam.json"),
        (["modulus", "compute", "--group", "Z", "--ns", "1-2", "--eps", "1/2", "--window", "5", "--out"],
         "missing/mod.json"),
        (["avg", "run", "--config", str(DEMO), "--out"], "missing/avg.csv"),
        (["run", "--config", str(DEMO), "--out-dir"], "file"),
        (["verify", "main", "--config", str(DEMO), "--out-dir"], "file/sub"),
    ],
    ids=["folner-build", "folner-refine", "modulus-compute", "avg-run", "run", "verify-main"],
)
def test_a_write_that_fails_is_a_config_error_naming_the_path(tmp_path, capsys, argv, target):
    # --out into a missing directory, --out-dir onto a file or under one
    (tmp_path / "file").write_text("kept")
    code, _, err = run_cli(capsys, *argv, str(tmp_path / target))
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"] and (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("empty", [["--out="], ["--out", ""]], ids=["joined", "separate"])
@pytest.mark.parametrize(
    "argv",
    [
        ["folner", "build", "--group", "Z", "--n-max", "2"],
        ["folner", "refine", "--group", "Z", "--eps", "1/2", "--count", "2"],
        ["modulus", "compute", "--group", "Z", "--ns", "1-2", "--eps", "1/2", "--window", "5"],
        ["avg", "run", "--config", str(DEMO)],
    ],
    ids=["folner-build", "folner-refine", "modulus-compute", "avg-run"],
)
def test_an_empty_out_is_refused_naming_the_flag(tmp_path, monkeypatch, capsys, argv, empty):
    # an empty --out names no path: refused before any work, so nothing is written or printed
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv, *empty) == (1, "", "error: --out names no path\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("empty", [["--out-dir="], ["--out-dir", ""]], ids=["joined", "separate"])
@pytest.mark.parametrize(
    "argv",
    [["run", "--config", str(DEMO)], ["verify", "main", "--config", str(DEMO)],
     ["verify", "corollary", "--config", str(COROLLARY)]],
    ids=["run", "verify-main", "verify-corollary"],
)
def test_an_empty_out_dir_is_refused_naming_the_flag(tmp_path, monkeypatch, capsys, argv, empty):
    # an empty --out-dir names no directory: refused before any work, so no artifact lands in the
    # current directory, which Path("") would name
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv, *empty) == (1, "", "error: --out-dir names no path\n")
    assert list(tmp_path.iterdir()) == []


# sha256 of the artifacts `run` writes for configs/demo.json
DEMO_DIGESTS = {
    "averages.csv": "5666dd38e700b90ff0a38adff3267e4d1ac0191f0d09015c817a1084869e4e41",
    "modulus.json": "11fc3d2e01b94517026e25348dd0a5c8e0e831173aee771e3486957341940e01",
    "report.json": "e0e37c507fa3808101e2117c5e61b88b925ac75ce371bd0f9d914bc528cfb9ac",
}


def test_a_run_with_no_random_observable_never_imports_numpy_random(tmp_path):
    # demo.json's observable is an indicator: a fresh interpreter runs it with no numpy.random
    script = (
        "import sys\nfrom ergolab.cli import main\n"
        f"code = main(['run', '--config', {str(DEMO)!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == DEMO_DIGESTS


def count_calls(monkeypatch, module: str, name: str) -> list:
    """One entry per call of ergolab's public `module.name`, under every name an ergolab module binds it to."""
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ergolab" or mod_name.startswith("ergolab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_run_averages_the_window_once_and_builds_one_distance_table(tmp_path, monkeypatch):
    config = demo_config()
    config["epsilons"] = [0.05, 0.1, 0.2]
    distances = count_calls(monkeypatch, "ergolab.dynamics", "lp_distances")
    sequences = count_calls(monkeypatch, "ergolab.dynamics", "average_sequence")
    result = run_experiment(config, out_dir=tmp_path)
    assert [rep.epsilon for rep in result.reports] == [0.05, 0.1, 0.2]
    assert (len(distances), len(sequences)) == (1, 1)


def test_run_acts_once_per_element_of_the_window(tmp_path, monkeypatch):
    # the z2-torus benchmark input at seed 1: a 10x10 torus, window 30
    system = torus_translation_system(10, 10)
    config = {
        "group": "Z^2",
        "system": {"points": 100, "weights": "uniform",
                   "generators": {k: v.tolist() for k, v in system.generators.items()}},
        "observable": {"type": "random", "distribution": "normal", "scale": 1.0},
        "p": 2,
        "modulus": {"type": "hanner"},
        "epsilons": [0.05],
        "window": 30,
        "seed": 1,
    }
    calls = []  # every element handed to the block action, in order
    act_block = type(system).act_block
    monkeypatch.setattr(
        type(system), "act_block", lambda self, block: calls.extend(from_block(block)) or act_block(self, block)
    )
    torus_translation_system(10, 10)
    assert calls == []  # building a system checks the relations on the generators, acting on no element
    run_experiment(config, out_dir=tmp_path)
    boxes = standard_family(group_by_name("Z^2"), 30)
    assert len(calls) == boxes.card(30) == 3_721
    assert len(set(calls)) == len(calls)


def test_avg_run_with_defects_makes_three_averaging_passes(tmp_path, monkeypatch):
    # one pass for the window, one for every A_N f, one for A_n over the block of A_N f
    system = torus_translation_system(5, 4)
    config = {
        "group": "Z^2",
        "system": {"points": 20, "weights": "uniform",
                   "generators": {k: v.tolist() for k, v in system.generators.items()}},
        "observable": {"type": "explicit", "values": [(7 * i % 11) / 3 - 1 for i in range(20)]},
        "p": 2,
        "window": 6,
        "defect_against": [1, 2, 6],
    }
    cfg = tmp_path / "torus.json"
    cfg.write_text(json.dumps(config))
    passes = count_calls(monkeypatch, "ergolab.dynamics", "average_block")
    assert main(["avg", "run", "--config", str(cfg), "--out", str(tmp_path / "avg.csv")]) == 0
    assert len(passes) == 3
    header, *rows = (tmp_path / "avg.csv").read_text().splitlines()
    assert header == "n,card,norm_Anf,defect_1,defect_2,defect_6"
    # each defect cell is bitwise ||A_n f - A_n A_N f||, as average_defect computes it alone
    f = system.observable(config["observable"]["values"], 2)
    boxes = standard_family(group_by_name("Z^2"), 6)
    for n, row in enumerate(rows, start=1):
        assert row.split(",")[3:] == [repr(average_defect(system, boxes, N, n, f)) for N in (1, 2, 6)]


@pytest.mark.parametrize("p", [2, 3, 1.7])
def test_averages_csv_cells_are_bitwise_the_norm_of_their_row(tmp_path, p):
    # the norm and defect columns are block norms; each cell is still lp_norm of its own row, bitwise
    system = rotation_system(24)
    config = {
        "group": "Z",
        "system": {"points": 24, "weights": "uniform", "generators": {"t": [(s + 1) % 24 for s in range(24)]}},
        "observable": {"type": "random", "distribution": "normal", "scale": 1.0},
        "p": p,
        "window": 120,
        "seed": 5,
        "defect_against": [1, 7, 120],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["avg", "run", "--config", str(cfg), "--out", str(tmp_path / "avg.csv")]) == 0
    header, *rows = (tmp_path / "avg.csv").read_text().splitlines()
    assert header == "n,card,norm_Anf,defect_1,defect_7,defect_120"
    values = np.random.default_rng(5).normal(0.0, 1.0, size=24)
    f = system.observable(values, p)
    boxes = standard_family(group_by_name("Z"), 120)
    avgs = average_sequence(system, boxes, f, 120)
    for n, row in enumerate(rows, start=1):
        cells = row.split(",")
        assert cells[2] == repr(lp_norm(system, avgs[n - 1]))
        assert cells[3:] == [repr(average_defect(system, boxes, N, n, f)) for N in (1, 7, 120)]


def test_a_defect_row_that_overflows_is_refused_as_its_observable_would_be(tmp_path, capsys):
    # F_1 = {1}: A_n A_1 f is A_n f shifted by one point, and f - (f shifted) overflows on 2 points
    config = {
        "group": "Z",
        "system": {"points": 2, "weights": "uniform", "generators": {"t": [1, 0]}},
        "observable": {"type": "explicit", "values": [1.7e308, -1.7e308]},
        "p": 2,
        "window": 2,
        "family": {"type": "explicit", "sets": [[1], [2]]},
        "defect_against": [1],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with np.errstate(over="ignore"):
        code, out, err = run_cli(capsys, "avg", "run", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: observable values must be finite\n")


def test_modulus_compute_looks_its_tolerance_up_once(capsys, monkeypatch):
    from ergolab.folner import ModulusTable

    lookups = []
    entries_at = ModulusTable.entries_at
    monkeypatch.setattr(ModulusTable, "entries_at", lambda self, eps: lookups.append(eps) or entries_at(self, eps))
    monkeypatch.setattr(ModulusTable, "value", lambda self, n, eps: pytest.fail("value() looks eps up per n"))
    code, out, _ = run_cli(capsys, "modulus", "compute", "--group", "Z", "--ns", "1-500", "--eps", "1/7", "--window", "9")
    assert (code, len(lookups)) == (0, 1)
    family = standard_family(group_by_name("Z"), 500)
    assert out == "".join(f"{n} {convergence_modulus(family, n, Fraction(1, 7)).value}\n" for n in range(1, 501))


@pytest.mark.parametrize(
    "mode, verifier, defect_against, n_max",
    [
        ("main", "verify_main_theorem", [1, 5000], 60),  # the window-60 box family
        ("corollary", "verify_corollary", [1, 5000], 8),  # the refined family, count 8
        ("corollary", "verify_corollary", [1, 5, 60], 8),  # inside the window, past the refined family
    ],
)
def test_defect_index_past_the_csv_family_is_refused_before_verifying(
    tmp_path, capsys, monkeypatch, mode, verifier, defect_against, n_max
):
    config = demo_config()
    config["defect_against"] = defect_against
    cfg = tmp_path / "defect.json"
    cfg.write_text(json.dumps(config))
    calls = count_calls(monkeypatch, "ergolab.fluctuation", verifier)
    for out_dir in ((), ("--out-dir", str(tmp_path / "out"))):
        code, out, err = run_cli(capsys, "verify", mode, "--config", str(cfg), *out_dir)
        assert (code, out) == (1, "")
        assert err == f"error: family index must be in [1, {n_max}], got {defect_against[-1]}\n"
    assert calls == []


def test_readme_library_sketch_runs():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_print_what_they_claim(capsys):
    examples = [
        line.split("# ->") for line in README.read_text().splitlines() if line.startswith("ergolab ") and "# ->" in line
    ]
    assert [(shlex.split(command)[1:3], expected.strip()) for command, expected in examples] == [
        (["folner", "check"], "50"), (["folner", "refine"], "1 2 4 8 16 32"), (["fluct", "count"], "3"),
        (["bound", "eval"], "503"),
    ]
    for command, expected in examples:
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert (code, out.strip()) == (0, expected.strip()), command


def overflowing_config(values, p, **observable):
    return {
        "group": "Z",
        "system": {"points": len(values), "weights": "uniform", "generators": {"t": [*range(1, len(values)), 0]}},
        "observable": {"type": "explicit", "values": values, **observable},
        "p": p,
        "epsilons": [0.1],
        "window": 5,
    }


@pytest.mark.parametrize(
    "command, values, p, observable, message",
    [
        ("run", [1.7e308, -1.7e308] * 6, 2, {}, "the observable's L^p norm is not finite (p = 2.0)"),
        # rescaling to a target norm divides by the norm: an overflow made it the zero observable
        ("run", [1.7e308, -1.7e308] * 6, 2, {"norm": 1.0}, "the observable's L^p norm is not finite (p = 2.0)"),
        ("avg run", [1.7e308, -1.7e308] * 6, 2, {}, "the observable's ergodic averages are not finite"),
        ("avg run", [1.7e308] * 12, 1.0000001, {}, "the observable's ergodic averages are not finite"),  # finite norm
    ],
    ids=["run", "run-rescaled", "avg-run", "avg-run-finite-norm"],
)
def test_an_overflowing_observable_is_refused_with_no_numpy_warning(
    tmp_path, capsys, command, values, p, observable, message
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overflowing_config(values, p, **observable)))
    out_flag = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        code, out, err = run_cli(capsys, *command.split(), "--config", str(cfg), *out_flag)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def spy_box_overlaps(monkeypatch):
    """Record (radii, entries returned) for every H3 box_overlaps call."""
    calls = []
    count = HeisenbergGroup.box_overlaps

    def spy(self, r, block):
        out = count(self, r, block)
        calls.append((r, out.size))
        return out

    monkeypatch.setattr(HeisenbergGroup, "box_overlaps", spy)
    return calls


def test_h3_modulus_counts_chunks_of_radii_down_to_its_answer(capsys, monkeypatch):
    calls = spy_box_overlaps(monkeypatch)
    code, out, _ = run_cli(capsys, "modulus", "compute", "--group", "H3", "--ns", "1-4", "--eps", "1/2", "--window", "40")
    assert (code, out) == (0, "1 5\n2 9\n3 14\n4 19\n")
    assert all(isinstance(r, list) for r, _ in calls) and max(size for _, size in calls) <= 2**12
    # m from 40 down to N - 1 for each n is (37 * 27 + 33 * 225 + 28 * 931 + 23 * 2673) translations; a chunk
    # may count the rest of itself past N - 1; the full upward scan counted 154,240
    assert 95_971 <= sum(size for _, size in calls) < 95_971 + 4 * 2**12
    assert len(calls) < 40


def test_folner_refine_on_h3_draws_its_m_range_a_chunk_at_a_time(capsys, monkeypatch):
    # the source is 10^12 sets long: listing its m range would not fit in memory
    calls = spy_box_overlaps(monkeypatch)
    code, out, _ = run_cli(capsys, "folner", "refine", "--group", "H3", "--eps", "1/2", "--count", "3")
    assert (code, out) == (0, "1 5 23\n")
    # F_1 (27 rows) takes 151 radii a call, and the union B_5 (6,171 rows, past 2^12) one radius a call
    assert all(size <= 2**12 or len(r) == 1 for r, size in calls)
    assert [len(r) for r, _ in calls] == [151] + [1] * 18  # m = 2..152, then m = 6..23
