"""CLI subcommands as thin wrappers: printed numbers equal library results."""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    ConvexityModulus,
    convergence_modulus,
    group_by_name,
    lp_norm,
    max_chain,
    rotation_system,
    standard_family,
    theorem_bound,
)
from ergolab.cli import exit_code_for, main, run_experiment
from ergolab.fluctuation import FluctuationReport

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
    from ergolab import average_sequence

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


def test_readme_cli_examples_print_what_they_claim(capsys):
    examples = [
        line.split("# ->") for line in README.read_text().splitlines() if line.startswith("ergolab ") and "# ->" in line
    ]
    assert [shlex.split(command)[1:3] for command, _ in examples] == [
        ["folner", "check"], ["folner", "refine"], ["fluct", "count"], ["bound", "eval"]
    ]
    for command, expected in examples:
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert (code, out.strip()) == (0, expected.strip()), command
