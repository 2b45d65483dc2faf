"""Span recorder for the traced run, wrapped around ergolab from the outside.

`traced(recorder)` replaces the public functions and methods listed in
FUNCTIONS and METHODS by wrappers that count each call and, for the layer
boundaries, record a span (name, start, end, parent span); it restores every
original on exit.  `cli` and `fluctuation` bind library functions with
`from .x import y`, so a function is replaced under every name any `ergolab`
module holds it by.  Spans stay in memory (four flat arrays) until `save`
writes them out.

The names in COUNT_ONLY are per-element calls inside a layer (one permutation,
one ratio, one average): they are counted but get no span, so their time stays
in the self time of the layer that makes them, and the recorder's own cost per
call stays small.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict

import numpy as np

# (module, function, span name)
FUNCTIONS = (
    ("ergolab.cli", "main", "cli"),
    ("ergolab.fluctuation", "verify_main_theorem", "fluctuation.verify_main_theorem"),
    ("ergolab.fluctuation", "max_chain", "fluctuation.max_chain"),
    ("ergolab.dynamics", "lp_norm", "dynamics.lp_norm"),
    ("ergolab.dynamics", "average_sequence", "dynamics.average_sequence"),
    ("ergolab.dynamics", "ergodic_average", "dynamics.ergodic_average"),
    ("ergolab.folner", "convergence_modulus", "folner.convergence_modulus"),
    ("ergolab.folner", "greedy_folner", "folner.greedy_folner"),
)

# (module, class, method, span name); a name may cover several classes
METHODS = (
    ("ergolab.dynamics", "FiniteMeasureSystem", "act", "dynamics.act"),
    ("ergolab.folner", "StandardBoxFamily", "ratio", "folner.ratio.closed_form"),
    ("ergolab.folner", "ExplicitFamily", "ratio", "folner.ratio.packed"),
    ("ergolab.folner", "StandardBoxFamily", "elements", "folner.elements"),
    ("ergolab.folner", "ExplicitFamily", "elements", "folner.elements"),
    ("ergolab.groups", "IntegerGroup", "box_overlap", "groups.box_overlap"),
    ("ergolab.groups", "LatticeGroup", "box_overlap", "groups.box_overlap"),
    ("ergolab.groups", "HeisenbergGroup", "box_overlap", "groups.box_overlap"),
    ("ergolab.convexity", "ConvexityModulus", "__call__", "convexity.modulus"),
)

# counters fed from call arguments: matrix pairs handed to the chain DP, distinct act(g)
ARG_COUNTERS = ("fluctuation.pairs", "dynamics.act.distinct")

COUNT_ONLY = frozenset(
    {
        "dynamics.ergodic_average",
        "dynamics.act",
        "folner.ratio.closed_form",
        "folner.ratio.packed",
        "folner.elements",
        "convexity.modulus",
    }
)


class Recorder:
    """Spans and counters of traced invocations, kept in memory."""

    def __init__(self):
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter({name: 0 for name in ARG_COUNTERS})
        self._stack = [-1]
        self._act_keys: set = set()

    def _note_args(self, name: str, args) -> None:
        # the two counters that depend on arguments rather than on the call alone
        if name == "fluctuation.max_chain":
            size = len(args[0])
            self.counts["fluctuation.pairs"] += size * (size - 1) // 2
        elif name == "dynamics.act":
            self._act_keys.add((id(args[0]), args[1]))
            self.counts["dynamics.act.distinct"] = len(self._act_keys)

    def wrap(self, name: str, fn):
        counts = self.counts
        counts[name] += 0  # every wrapped name reports a count, zero included
        note = self._note_args if name in ("fluctuation.max_chain", "dynamics.act") else None
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                if note is not None:
                    note(name, args)
                return fn(*args, **kwargs)

            return counted

        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            if note is not None:
                note(name, args)
            idx = len(start)
            name_ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return spanned

    def metrics(self) -> Dict[str, float]:
        """`<name>.calls` per wrapped name, the argument counters, and per span name
        `<name>.s` (total seconds) and `<name>.self_s` (total minus child spans)."""
        out: Dict[str, float] = {}
        for name, count in self.counts.items():
            out[name if name in ARG_COUNTERS else f"{name}.calls"] = count
        ids = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        k = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_s[i])
        return out

    def save(self, path: Path, extra: dict) -> None:
        """Write the spans (.npz) and a readable per-layer summary (.json) next to each other."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
        doc = {"metrics": self.metrics(), **extra}
        path.with_suffix(".json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Patch every listed function and method with `recorder`'s wrappers, then restore them."""
    restore = []
    try:
        for module, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            wrapper = recorder.wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ergolab" or mod_name.startswith("ergolab."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            orig = cls.__dict__[attr]
            restore.append((cls, attr, orig))
            setattr(cls, attr, recorder.wrap(name, orig))
        yield recorder
    finally:
        for owner, key, orig in reversed(restore):
            setattr(owner, key, orig)
