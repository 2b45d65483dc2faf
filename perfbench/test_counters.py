"""Checks of the benchmark itself; run with `python3 -m pytest perfbench`.

The traced counters must repeat exactly from one traced invocation to the
next, and equal the anchors measured when the benchmark was defined; tracing
must leave ergolab as it found it; the gate must refuse changed outputs; an
invocation in a fresh interpreter must pass the gate and report its numbers.
"""

from __future__ import annotations

import copy
import gzip
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import run
from gate import diff, ref_path
from spans import FUNCTIONS, METHODS, Recorder, traced
from workloads import NAMES

sys.path.insert(0, str(run.SRC))

ANCHORS = {
    "z-wide": {"fluctuation.pairs": 239_400},
    "z2-torus": {"dynamics.act.distinct": 3_721},
    "h3-modulus": {"folner.ratio.closed_form.calls": 154_240, "groups.box_overlap.calls": 154_240},
    "greedy-z": {"folner.ratio.packed.calls": 7_016, "groups.box_overlap.calls": 29_405},
}


@pytest.fixture
def work_dir():
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.OUT))
    yield path
    shutil.rmtree(path)


def traced_counts(workload: str, work_dir: Path) -> dict:
    wl = run.Workload(workload, 0, work_dir)
    recorder = Recorder()
    with traced(recorder):
        wl.invoke()
    assert wl.problems == []
    return {k: v for k, v in recorder.metrics().items() if not k.endswith(("_s", ".s"))}


@pytest.mark.parametrize("workload", NAMES)
def test_counters_repeat_and_match_anchors(workload, work_dir):
    first = traced_counts(workload, work_dir)
    assert traced_counts(workload, work_dir) == first
    assert {k: first[k] for k in ANCHORS[workload]} == ANCHORS[workload]


def test_traced_restores_every_patched_name(work_dir):
    def bindings():
        out = {}
        for module, attr, _ in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            for name, mod in sys.modules.items():
                if name.startswith("ergolab"):
                    out.update({(name, k): v for k, v in vars(mod).items() if v is orig})
        for module, cls, attr, _ in METHODS:
            out[(cls, attr)] = vars(getattr(importlib.import_module(module), cls))[attr]
        return out

    run.Workload("greedy-z", 0, work_dir)  # imports ergolab.cli and every module it binds from
    before = bindings()
    assert ("ergolab.cli", "lp_norm") in before and ("ergolab.fluctuation", "lp_norm") in before
    with traced(Recorder()):
        assert all(v is not before[k] for k, v in bindings().items() if k in before)
    assert bindings() == before


def test_gate_refuses_changed_outputs():
    ref = json.loads(gzip.decompress(ref_path("z-wide", 0).read_bytes()))
    report = ref["files"]["report.json"]["reports"][0]

    def changed(key, value):
        got = copy.deepcopy(ref)
        got["files"]["report.json"]["reports"][0][key] = value
        return diff(ref, got)

    assert diff(ref, copy.deepcopy(ref)) is None
    assert changed("norm_x", report["norm_x"] * (1 + 1e-13)) is None
    for key, value in (("norm_x", report["norm_x"] * (1 + 1e-11)), ("bound", report["bound"] + 1),
                       ("count", float(report["count"])), ("verdict", False)):
        assert changed(key, value) is not None, key


def test_interaction_map_covers_the_per_layer_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    interactions = json.loads((run.HERE / "interactions.json").read_text(encoding="utf-8"))["metrics"]
    assert list(interactions) == [m["name"] for m in bench["per_layer"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(NAMES)
    for entry in interactions.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["flat_on"]) <= workloads


def test_child_invocation_passes_the_gate_and_reports_every_number(work_dir):
    wl = run.Workload("greedy-z", 0, work_dir)
    got = wl.invoke_child()
    assert wl.problems == [] and wl.attempted == 1
    assert set(got) == {"setup_s", "wall_s", "peak_rss_mb", "wall_norm"}
    assert all(value > 0 for value in got.values())
