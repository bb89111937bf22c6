"""rydphon benchmark: run one workload of CLI subcommands and report its metrics.

    python3 perfbench/run.py --workload paper_session --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --out result.json

Run from the root of a source checkout; the package is imported from
``src/``.  Every subcommand runs in this process through
``rydphon.cli.main(argv)`` with explicit output paths and captured
stdout/stderr; configs and outputs live in a temporary directory in the
checkout that is removed at exit.  A run starts with one untimed pass on
the default-seed inputs, checked against ``reference.json``, which also
warms up; timed passes on the seed's inputs then repeat until
``--seconds`` is used up (at least two).  Timings are medians over
passes, with the hypervisor's steal removed from wall times (steal.py);
a single-threaded workload's pass times are also divided by the
machine's speed factor during the pass (speed.py).

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones (see spans.py) and the tracing
overhead.  ``--workload all`` runs every workload in fresh processes,
untraced and traced.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import outputs
import spans
import speed
import steal
from workloads import DEFAULT_SEED, SUBCOMMANDS, WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# Import-time probes run between passes, so that their median samples
# the whole run rather than one moment of a noisy machine.
PROBES_PER_PASS = 2

END_TO_END = {"pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "frac"}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import rydphon.cli; print(time.perf_counter() - t)"
)


def per_layer_units() -> dict:
    names = list(spans.layer_metrics([], SUBCOMMANDS))
    names += ["cli.csv_bytes", "trace.overhead_frac", "check.outputs_byte_identical_frac"]
    return {name: _unit(name) for name in names}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_times(probes: int = PROBES_PER_PASS) -> list:
    """(seconds to import rydphon.cli, unstolen CPU share) pairs, each from a
    fresh interpreter."""
    samples = []
    for _ in range(probes):
        before = steal.counters()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(proc.stdout.split()[-1]),
                        steal.unstolen_share(before, steal.counters())))
    return samples


def _run_operation(cli, argv, recorder):
    stdout, stderr = io.StringIO(), io.StringIO()
    root = recorder.root(f"cli.{argv[0]}") if recorder else contextlib.nullcontext()
    try:
        with root, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an operation that raises is counted as failed
        code = f"raised {exc!r}"
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run_pass(cli, workload, config_dir: Path, out_dir: Path, recorder=None, probe=None) -> dict:
    """Every operation of the workload once.  The pass's times add up those
    of its operations; with a speed probe, probe units follow each
    operation, untimed by it, and give the pass's speed factor."""
    out_dir.mkdir()
    argvs = [op.argv(config_dir, out_dir) for op in workload.operations]
    results = []
    wall = cpu = unstolen_wall = 0.0
    for argv in argvs:
        ticks0, cpu0, t0 = steal.counters(), time.process_time(), time.perf_counter()
        results.append(_run_operation(cli, argv, recorder))
        op_wall = time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        wall += op_wall
        unstolen_wall += op_wall * steal.unstolen_share(ticks0, steal.counters())
        if probe is not None:
            probe.follow(op_wall)
    files = {name: out_dir / name for op in workload.operations for _, name in op.outputs}
    digests = {name: outputs.digest(f) if f.is_file() else None for name, f in files.items()}
    csv_bytes = sum(f.stat().st_size for name, f in files.items()
                    if name.endswith(".csv") and f.is_file())
    return {"wall_s": wall, "cpu_s": cpu, "unstolen": unstolen_wall / wall,
            "speed": speed.factor(probe.take()) if probe is not None else 1.0,
            "results": results,
            "digests": digests, "csv_bytes": csv_bytes, "traced": recorder is not None,
            "layers": spans.layer_metrics(recorder.spans, SUBCOMMANDS) if recorder else None}


def _load_reference(workload: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(workload)


def record_reference(workload, out_dir: Path) -> None:
    """Store the outputs in ``out_dir`` as the workload's reference, with the
    source digest and commit they came from, so a re-record shows in a diff."""
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    entries = {name: outputs.reference_entry(out_dir / name)
               for op in workload.operations for _, name in op.outputs}
    data.setdefault("workloads", {})[workload.name] = entries
    data.setdefault("recorded_from", {})[workload.name] = {
        "src_sha256": _src_digest(), "git_commit": _git_commit()}
    text = json.dumps(data, indent=1, sort_keys=True)
    # one line per list of numbers, so the file stays short enough to read in a diff
    text = re.sub(r"\[\s+([-+0-9.eE,\s]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]",
                  text)
    REFERENCE.write_text(text + "\n", encoding="utf-8")


def evaluate(workload, passes, first_dir: Path, reference) -> dict:
    """Count failed operations and byte-identical outputs.

    With a reference (default-seed inputs) each output of the first pass
    is checked against it; otherwise only exit codes and pass-to-pass
    determinism are checked.  An operation fails in a pass when it raises
    or exits non-zero, misses an output, or writes an output that differs
    from the first pass or fails the reference check.
    """
    first = passes[0]["digests"]
    bad_outputs = set()
    problems = []
    identical = 0
    for name in first:
        if reference is None:
            identical += all(p["digests"][name] == first[name] for p in passes)
            continue
        if name not in reference:
            bad_outputs.add(name)
            problems.append(f"{name}: no reference entry")
        elif first[name] is not None:
            same, diffs = outputs.check_output(first_dir / name, reference[name])
            identical += same
            if diffs:
                bad_outputs.add(name)
                problems += [f"{name}: {d}" for d in diffs[:5]]
    failed = 0
    for p in passes:
        for op, res in zip(workload.operations, p["results"]):
            reasons = []
            if res["code"] != 0:
                reasons.append(f"exit {res['code']}: {res['stderr'].strip()[-300:]}")
            for _, name in op.outputs:
                got = p["digests"][name]
                if got is None:
                    reasons.append(f"{name} missing")
                elif got != first[name]:
                    reasons.append(f"{name} differs from the first pass")
                elif name in bad_outputs:
                    reasons.append(f"{name} fails the reference check")
            if reasons:
                failed += 1
                problems.append(f"{op.command}: " + "; ".join(reasons))
    attempted = len(passes) * len(workload.operations)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "identical_frac": identical / len(first) if first else 1.0}


def _merge(ref_check: dict, run_check: dict) -> dict:
    """Counts of the reference pass and of the timed passes together; the
    byte-identical share is the reference pass's."""
    return {"attempted": ref_check["attempted"] + run_check["attempted"],
            "failed": ref_check["failed"] + run_check["failed"],
            "problems": ref_check["problems"] + run_check["problems"],
            "identical_frac": ref_check["identical_frac"]}


def _environment(workload: str) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    recorded = {}
    if REFERENCE.is_file():
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
        recorded = data.get("recorded_from", {}).get(workload, {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "reference_recorded_from": recorded,
        "RYDPHON_THREADS": os.environ.get("RYDPHON_THREADS"),
    }


def _git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            return proc.stdout.strip() or "unknown"
        except OSError:  # no git executable
            pass
    return "unknown"


def _src_digest() -> str:
    return outputs.text_digest([outputs.digest(p)
                                for p in sorted((SRC / "rydphon").glob("*.py"))])


def _blas_threads():
    """Thread count of the OpenBLAS that numpy links, if it is OpenBLAS."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    handle = ctypes.CDLL(umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _reference_pass(cli, name: str, work: Path, record: bool):
    """One untimed pass on the default-seed inputs, checked against reference.json.

    Every run makes it, whatever its seed, so wrong values fail the runs
    that are compared, not only default-seed ones; it also warms up the
    caches and lazy imports before the timed passes.  Returns the pass,
    its output directory and the workload it ran.
    """
    workload = make_workload(name, DEFAULT_SEED)
    config_dir, out_dir = work / "reference-configs", work / "reference"
    config_dir.mkdir()
    workload.write_configs(config_dir)
    ref_pass = run_pass(cli, workload, config_dir, out_dir)
    if record:
        record_reference(workload, out_dir)
    return ref_pass, out_dir, workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    workload = make_workload(name, seed)
    reference = None if record else _load_reference(name)
    if reference is None and not record:
        raise SystemExit(f"perfbench: no reference for {name} in {REFERENCE}")
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # the speed probe runs on one thread, so it tracks only single-threaded work
        probe = speed.Probe() if workload.single_threaded and not trace else None
        setup = [] if trace else import_times()
        import rydphon.cli as cli

        ref_pass, ref_dir, checked = _reference_pass(cli, name, work, record)
        config_dir = work / "configs"
        config_dir.mkdir()
        workload.write_configs(config_dir)
        first_dir = work / "pass0"
        passes = []
        start = last = time.perf_counter()
        while True:
            # a pass with its probe units and import samples takes about as long as the last
            now = time.perf_counter()
            elapsed, cycle, last = now - start, now - last, now
            enough = len(passes) >= 2 and (not trace or passes[-1]["traced"] != passes[-2]["traced"])
            if enough and elapsed + cycle > seconds:
                break
            traced = trace and bool(passes) and not passes[-1]["traced"]
            out_dir = work / f"pass{len(passes)}"
            recorder = spans.Recorder() if traced else None
            with spans.instrument(recorder) if traced else contextlib.nullcontext():
                passes.append(run_pass(cli, workload, config_dir, out_dir, recorder,
                                       None if traced else probe))
            if out_dir != first_dir:
                shutil.rmtree(out_dir)
            if not trace:
                setup += import_times()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if seed == DEFAULT_SEED:  # same inputs: every pass must repeat the reference pass
            check = evaluate(workload, [ref_pass, *passes], ref_dir, reference)
        else:
            check = _merge(evaluate(checked, [ref_pass], ref_dir, reference),
                           evaluate(workload, passes, first_dir, None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {key: statistics.fmean(p["layers"][key] for p in traced)
                   for key in traced[0]["layers"]}
        metrics["cli.csv_bytes"] = statistics.fmean(p["csv_bytes"] for p in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] * p["unstolen"] for p in traced)
            / statistics.median(p["wall_s"] * p["unstolen"] for p in untraced) - 1.0)
        metrics["check.outputs_byte_identical_frac"] = check["identical_frac"]
        units = per_layer_units()
        raw = {}
    else:
        raw = {
            "pass_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(t for t, _ in setup),
            "pass_stolen_frac": 1.0 - statistics.median(p["unstolen"] for p in untraced),
            "import_stolen_frac": 1.0 - statistics.median(u for _, u in setup),
            "pass_speed_factor": statistics.median(p["speed"] for p in untraced),
        }
        metrics = {
            "pass_s": statistics.median(p["wall_s"] * p["unstolen"] / p["speed"]
                                        for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] / p["speed"] for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(t * u for t, u in setup),
            "ok_frac": 1.0 - check["failed"] / check["attempted"],
        }
        units = END_TO_END
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": _environment(name),
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "unstolen": p["unstolen"],
                    "speed": p["speed"], "traced": p["traced"]} for p in passes],
        "imports": setup,
        "raw": raw,
        "problems": check["problems"],
        "result": {
            "correct": not check["failed"],
            "attempted": check["attempted"],
            "failed": check["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def _print_report(record: dict) -> None:
    res = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['passes'])} passes, "
          f"wall {[round(p['wall_s'], 3) for p in record['passes']]}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"{'failed_frac':<48} {res['failed'] / res['attempted']:.6g} frac "
          f"({res['failed']} of {res['attempted']} operations)")
    values = {name: m["value"] for name, m in res["metrics"].items()}
    for name, m in res["metrics"].items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    if record["raw"]:
        raw = record["raw"]
        print(f"medians as measured: pass {raw['pass_s']:.4f} s ({raw['pass_stolen_frac']:.3f} "
              f"of its CPU time stolen, speed factor {raw['pass_speed_factor']:.3f}), "
              f"cpu {raw['cpu_s']:.4f} s, import {raw['setup_s']:.4f} s "
              f"({raw['import_stolen_frac']:.3f} stolen)")
    if record["trace"]:
        wall = sum(values[f"cli.{sub}.wall_s"] for sub in SUBCOMMANDS)
        layer_self = sum(values[f"{fn}.self_s"] for fn in spans.LAYER_FUNCTIONS)
        print(f"subcommand wall {wall:.4f} s = layer self {layer_self:.4f} s + cli.self_s "
              f"{values['cli.self_s']:.4f} s - sweep thread overlap "
              f"{layer_self + values['cli.self_s'] - wall:.4f} s")
    print("env " + json.dumps(record["env"], sort_keys=True))


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", "-"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            print(proc.stdout.rsplit("\n", 2)[0] if proc.returncode == 0 else proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"workload {name} trace {trace} exited {proc.returncode}")
            runs[f"{name}.trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    results = [r["result"] for r in runs.values()]
    return {
        "workload": "all", "seed": seed, "seconds": seconds, "runs": runs,
        "result": {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{key.split('.trace')[0]}.{name}": m
                        for key, r in runs.items() for name, m in r["result"]["metrics"].items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON ('-' prints it last)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first pass outputs as the reference (default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "rydphon" / "cli.py").is_file():
        print(f"perfbench: no rydphon sources at {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("--record-reference needs the default seed")
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        record = run_all(args.seed, args.seconds)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.record_reference)
        _print_report(record)
    if args.out == "-":
        print(json.dumps(record))
        return 0
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
