"""Benchmark workloads: seeded chain configurations and the CLI calls of one pass.

Each workload is a list of rydphon subcommand invocations.  The program
sees only the generated configuration files and the argv built here.
The default seed reproduces the paper-size configs in ``configs/`` and
the sizes named in the benchmark's README exactly; any other seed
jitters the spacing ``d`` by at most ``JITTER`` while keeping relaxed
inputs at ``d >= RELAXED_MIN_D`` (the symmetric relaxed chain exists
only above d ~ 1.9) and the rest at ``d >= UNRELAXED_MIN_D`` (the
trap-center lattice is stable down to d ~ 1.4).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
JITTER = 0.05
RELAXED_MIN_D = 2.0
UNRELAXED_MIN_D = 1.45

SUBCOMMANDS = ("bands", "spectrum", "local", "coupling", "sweep", "export", "check")

WHY = {
    "paper_session": "paper-size session of all 7 subcommands: many small problems, "
                     "so band tracking and the 21-step sweep thread pool do the work",
    "tables_large": "4096-q export and coupling tables plus a 200-atom g table: "
                    "per-q loops, JSON and CSV writing do the work, no band tracking",
    "finite_relaxed": "spectrum --relax on 500-atom chains: Newton relaxation, "
                      "Hessian assembly and the 1500x1500 eigh do the work",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Operation:
    """One subcommand invocation; ``outputs`` pairs each output flag with a file name."""

    command: str
    config: str
    args: tuple = ()
    outputs: tuple = ()

    def argv(self, config_dir: Path, out_dir: Path) -> list:
        argv = [self.command, str(config_dir / self.config), *self.args]
        for flag, name in self.outputs:
            argv += [flag, str(out_dir / name)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict       # file name -> chain configuration mapping
    operations: tuple
    # True when the work runs on one thread: no sweep pool and no threaded BLAS
    single_threaded: bool = False

    def write_configs(self, config_dir: Path) -> None:
        for name, data in self.configs.items():
            (config_dir / name).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _chain(n_cells: int, d: float, topology: str = "trivial") -> dict:
    return {"n_cells": n_cells, "d": d, "delta": 1.0, "theta": "magic",
            "phi": 0.0, "topology": topology}


class _Spacing:
    """Draws the spacing of each input: the nominal value for the default
    seed, otherwise a uniform value within JITTER of it and above the floor."""

    def __init__(self, seed: int):
        self._rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def __call__(self, nominal: float, floor: float) -> float:
        if self._rng is None:
            return nominal
        return round(self._rng.uniform(max(floor, nominal - JITTER), nominal + JITTER), 6)


_MODEL_ARGS = ("--t", "1", "--U", "4", "--gcp", "0.5")


def make_workload(name: str, seed: int = DEFAULT_SEED) -> Workload:
    d = _Spacing(seed)
    if name == "paper_session":
        configs = {
            "default.json": _chain(7, d(2.0, UNRELAXED_MIN_D)),
            "topological_d2.json": _chain(7, d(2.0, UNRELAXED_MIN_D), "topological"),
            "trivial_d25.json": _chain(7, d(2.5, UNRELAXED_MIN_D)),
        }
        sweep_from, sweep_to = d(1.5, UNRELAXED_MIN_D), d(2.5, UNRELAXED_MIN_D)
        ops = (
            Operation("bands", "default.json", ("--q-points", "256"), (("--out", "bands.csv"),)),
            Operation("spectrum", "topological_d2.json", (), (("--out", "spectrum.csv"),)),
            Operation("local", "default.json", (), (("--out-g", "g.csv"), ("--out-j", "j.csv"))),
            Operation("coupling", "trivial_d25.json", (), (("--out", "coupling.csv"),)),
            Operation("export", "default.json", _MODEL_ARGS, (("--out", "model.json"),)),
            Operation("check", "default.json"),
            Operation("sweep", "default.json",
                      ("--param", "d", "--from", repr(sweep_from), "--to", repr(sweep_to),
                       "--steps", "21", "--q-points", "256"),
                      (("--out", "sweep.csv"),)),
        )
    elif name == "tables_large":
        configs = {
            "trivial_d25.json": _chain(7, d(2.5, RELAXED_MIN_D)),
            "chain100.json": _chain(100, d(2.0, UNRELAXED_MIN_D)),
        }
        ops = (
            Operation("export", "trivial_d25.json", ("--q-points", "4096", "--relax", *_MODEL_ARGS),
                      (("--out", "model_4096.json"),)),
            Operation("coupling", "trivial_d25.json", ("--q-points", "4096", "--relax"),
                      (("--out", "coupling_4096.csv"),)),
            Operation("local", "chain100.json", (),
                      (("--out-g", "g_100.csv"), ("--out-j", "j_100.csv"))),
        )
    elif name == "finite_relaxed":
        configs = {
            "trivial250.json": _chain(250, d(2.5, RELAXED_MIN_D)),
            "topological250.json": _chain(250, d(2.0, RELAXED_MIN_D), "topological"),
        }
        ops = (
            Operation("spectrum", "trivial250.json", ("--relax",),
                      (("--out", "spectrum_trivial250.csv"),)),
            Operation("spectrum", "topological250.json", ("--relax",),
                      (("--out", "spectrum_topological250.csv"),)),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=name, configs=configs, operations=ops,
                    single_threaded=name == "tables_large")
