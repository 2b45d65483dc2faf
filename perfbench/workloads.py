"""The benchmark's workloads: seeded inputs and the `ergolab` argv for each.

`z-wide` and `z2-torus` run `ergolab run` on a config generated here from the
benchmark seed (it becomes the config's `seed` field, which drives the
observable); the program only ever sees the written config file.  The two
`modulus compute` workloads are deterministic and ignore the seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

NAMES = ("z-wide", "z2-torus", "h3-modulus", "greedy-z")
SEEDED = ("z-wide", "z2-torus")

# (points, box side) of the generated systems
Z_POINTS = 24
TORUS_SIDE = 10


def rotation_generators(points: int) -> dict:
    return {"t": [(s + 1) % points for s in range(points)]}


def torus_generators(side: int) -> dict:
    m = side * side
    return {
        "t1": [((i // side + 1) % side) * side + (i % side) for i in range(m)],
        "t2": [(i // side) * side + ((i % side) + 1) % side for i in range(m)],
    }


def _run_config(group: str, points: int, generators: dict, epsilons, window: int, seed: int) -> dict:
    return {
        "group": group,
        "system": {"points": points, "weights": "uniform", "generators": generators},
        "observable": {"type": "random", "distribution": "normal", "scale": 1.0},
        "p": 2,
        "modulus": {"type": "hanner"},
        "epsilons": list(epsilons),
        "eta": {"type": "default"},
        "window": window,
        "verify": "main",
        "seed": seed,
    }


def config_for(name: str, seed: int) -> dict:
    if name == "z-wide":
        return _run_config("Z", Z_POINTS, rotation_generators(Z_POINTS), [0.05, 0.1, 0.2], 400, seed)
    if name == "z2-torus":
        side = TORUS_SIDE
        return _run_config("Z^2", side * side, torus_generators(side), [0.05], 30, seed)
    raise ValueError(f"workload {name!r} takes no config")


def base_argv(name: str, seed: int, inputs_dir: Path) -> List[str]:
    """The argv of one invocation, without its output destination."""
    if name in SEEDED:
        path = inputs_dir / f"{name}-seed{seed}.json"
        path.write_text(json.dumps(config_for(name, seed), indent=2) + "\n", encoding="utf-8")
        return ["run", "--config", str(path)]
    if name == "h3-modulus":
        return ["modulus", "compute", "--group", "H3", "--ns", "1-4", "--eps", "1/2", "--window", "40"]
    if name == "greedy-z":
        return ["modulus", "compute", "--group", "Z", "--family", "greedy", "--ns", "1-6",
                "--eps", "1/2", "--window", "8"]
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def output_argv(name: str, out_dir: Path) -> List[str]:
    """Where one invocation writes its artifacts."""
    if name in SEEDED:
        return ["--out-dir", str(out_dir)]
    return ["--out", str(out_dir / "modulus.json")]
