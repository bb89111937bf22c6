"""Outside-in span recorder for the rydphon layers.

The package is not changed.  ``instrument`` rebinds each wrapped public
function in every ``rydphon`` module namespace that holds it (the CLI and
the other modules import names directly, so patching only the defining
module would miss their calls) and restores the originals afterwards.

Each call becomes a span ``(id, parent, name, start, end, count)``.  A
per-thread stack gives the parent; a span opened on a thread with an
empty stack (the sweep's pool threads) takes the current root span, the
CLI subcommand.  Spans stay in memory until the pass ends.  Self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

WRAPPED = {
    "geometry": ("load_chain_spec", "trap_centers"),
    "potential": ("hessian", "gradient", "total_energy", "fd_gradient", "fd_hessian"),
    "equilibrium": ("relax_finite", "relax_bulk"),
    "bands": ("band_structure", "track_bands", "band_diagnostics", "finite_spectrum",
              "detect_edge_modes"),
    "local_phonons": ("local_phonon_model", "coupling_matrices", "aggregate_J",
                      "bogoliubov_frequencies"),
    "atom_phonon": ("coupling_grid",),
    "model_export": ("assemble", "serialize"),
}
LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counts read from a call's arguments and return value: name -> (metric, reader).
COUNTERS = {
    "equilibrium.relax_finite": ("iterations", lambda a, k, r: r.n_iterations),
    "equilibrium.relax_bulk": ("iterations", lambda a, k, r: r.n_iterations),
    "bands.band_structure": ("q_points", lambda a, k, r: len(r.q_grid)),
    "bands.track_bands": ("q_points", lambda a, k, r: len(_arg(a, k, 0, "bands").q_grid)),
    "bands.finite_spectrum": ("modes", lambda a, k, r: len(r.frequencies)),
    "atom_phonon.coupling_grid": ("q_points", lambda a, k, r: len(r.q_grid)),
    "model_export.serialize": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
}


class Recorder:
    """Collects spans of one pass; safe to call from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str):
        """Span that parents every span opened while it is open, on any thread."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._root = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._root = None
            stack.pop()
            self.spans.append((sid, None, name, t0, t1, None))

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            result = ok = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                count = counter[1](args, kwargs, result) if ok and counter else None
                self.spans.append((sid, parent, name, t0, t1, count))

        return wrapper


def _rydphon_modules() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "rydphon" or key.startswith("rydphon."))]


@contextmanager
def instrument(recorder: Recorder):
    """Route every call of the wrapped functions through ``recorder``."""
    modules = _rydphon_modules()
    replaced = []
    try:
        for name in LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"rydphon.{mod_name}"], fn_name)
            wrapper = recorder.wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list:
    """(span, self seconds) for every span: duration minus child coverage."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return [(span, span[4] - span[3] - _covered(children.get(span[0], ()), span[3], span[4]))
            for span in spans]


def layer_metrics(spans, subcommands) -> dict:
    """Per-layer metrics of one pass from its spans.

    Root spans are named ``cli.<subcommand>``; ``cli.self_s`` is the part
    of their wall time no layer span covers, and ``cli.sweep.busy_ratio``
    is the summed duration of the sweep's top-level layer spans over the
    sweep's wall time.
    """
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for name, (metric, _) in COUNTERS.items():
        out[f"{name}.{metric}"] = 0
    for sub in subcommands:
        out[f"cli.{sub}.wall_s"] = 0.0
    out["cli.self_s"] = 0.0
    sweep_ids = set()
    for span, self_s in self_times(spans):
        sid, parent, name, t0, t1, count = span
        if name.startswith("cli."):
            out[f"{name}.wall_s"] += t1 - t0
            out["cli.self_s"] += self_s
            if name == "cli.sweep":
                sweep_ids.add(sid)
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if count is not None:
            out[f"{name}.{COUNTERS[name][0]}"] += count
    busy = sum(t1 - t0 for _, parent, _, t0, t1, _ in spans if parent in sweep_ids)
    wall = out.get("cli.sweep.wall_s", 0.0)
    out["cli.sweep.busy_ratio"] = busy / wall if wall > 0 else 0.0
    return out
