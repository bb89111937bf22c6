"""Golden digests of every subcommand's outputs and stdout.

Each case runs ``rydphon.cli.main`` in a fresh working directory and
compares the SHA-256 of its stdout and of every file it writes with
``golden.json``.  A refactor that should not change numbers must pass
unchanged.  On a mismatch the test names the column whose min, max or
sum moved most, so a last-bit change can be told from a real one.

Re-record (only for a change that moves numbers on purpose) with

    PYTHONPATH=src python tests/test_golden.py --record

which also stores the git commit and a digest of ``src/rydphon``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from rydphon.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
CONFIGS = ("default", "topological_d2", "trivial_d15", "trivial_d25")

_spec = importlib.util.spec_from_file_location("perfbench_outputs", ROOT / "perfbench" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _cases() -> dict:
    """case id -> (argv, output files); ``{cfg}`` is the config path."""
    q = ["--q-points", "64"]
    model = ["--t", "1", "--U", "4", "--gcp", "0.5"]
    cases = {}
    for name in CONFIGS:
        cases[f"bands-{name}"] = (["bands", "{cfg}", *q, "--out", "bands.csv"], ["bands.csv"])
        cases[f"spectrum-{name}"] = (["spectrum", "{cfg}", "--out", "spectrum.csv"],
                                     ["spectrum.csv"])
        cases[f"local-{name}"] = (["local", "{cfg}", "--out-g", "g.csv", "--out-j", "j.csv"],
                                  ["g.csv", "j.csv"])
        cases[f"coupling-{name}"] = (["coupling", "{cfg}", *q, "--out", "m.csv"], ["m.csv"])
        cases[f"export-{name}"] = (["export", "{cfg}", *q, *model, "--out", "model.json"],
                                   ["model.json"])
        cases[f"check-{name}"] = (["check", "{cfg}"], [])
    cases["sweep-default"] = (["sweep", "{cfg}", *q, "--param", "d", "--from", "1.8",
                               "--to", "2.2", "--steps", "5", "--out", "sweep.csv"],
                              ["sweep.csv"])
    cases["bands-relax-default"] = (["bands", "{cfg}", *q, "--relax", "--out", "bands.csv"],
                                    ["bands.csv"])
    cases["coupling-relax-trivial_d25"] = (["coupling", "{cfg}", *q, "--relax", "--out", "m.csv"],
                                           ["m.csv"])
    cases["local-relax-default"] = (["local", "{cfg}", "--relax", "--out-g", "g.csv",
                                     "--out-j", "j.csv"], ["g.csv", "j.csv"])
    cases["export-relax-topological_d2"] = (["export", "{cfg}", *q, *model, "--relax",
                                             "--out", "model.json"], ["model.json"])
    cases["spectrum-relax-topological_n20"] = (["spectrum", "{cfg}", "--relax",
                                                "--out", "spectrum.csv"], ["spectrum.csv"])
    return cases


CASES = _cases()


def _config(case_id: str, work: Path) -> Path:
    if case_id.endswith("topological_n20"):
        data = json.loads((ROOT / "configs" / "topological_d2.json").read_text())
        data["n_cells"] = 20
        path = work / "topological_n20.json"
        path.write_text(json.dumps(data))
        return path
    name = next(n for n in CONFIGS if case_id.endswith(n))
    return ROOT / "configs" / f"{name}.json"


def _column_summary(path: Path) -> dict:
    """Per-column count, min, max and sum (or a text digest) of an output."""
    out = {}
    for name, col in outputs.summarize(path)["columns"].items():
        if "block_sums" in col:
            col = {"n": col["n"], "min": col["min"], "max": col["max"],
                   "sum": math.fsum(col["block_sums"])}
        out[name] = col
    return out


def run_case(case_id: str, work: Path) -> dict:
    """Run one case inside ``work``; its exit code, stdout digest and files."""
    argv, files = CASES[case_id]
    cfg = str(_config(case_id, work))
    argv = [cfg if a == "{cfg}" else a for a in argv]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = stdout.getvalue()
    return {
        "exit": code,
        "stdout": text,
        "stdout_sha256": outputs.text_digest([text]),
        "files": {f: {"sha256": outputs.digest(work / f)} for f in files},
    }


def _largest_difference(got: dict, want: dict) -> str:
    """The column statistic that moved most, relative to the column's scale."""
    worst, where = -1.0, "no numeric column differs"
    for name in sorted(set(got) | set(want)):
        g, w = got.get(name), want.get(name)
        if g is None or w is None or "sum" not in g or "sum" not in w or g["n"] != w["n"]:
            if g != w:
                return f"column {name}: layout or text differs"
            continue
        scale = max(abs(w["min"]), abs(w["max"]), 1e-300)
        for stat in ("min", "max", "sum"):
            diff = abs(g[stat] - w[stat])
            rel = diff / (scale * (w["n"] if stat == "sum" else 1))
            if rel > worst:
                worst = rel
                where = (f"column {name}.{stat}: {g[stat]!r} vs golden {w[stat]!r} "
                         f"(|diff| {diff:.3e}, {rel:.1e} of the column scale)")
    return where


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_digest(case_id, tmp_path):
    want = _golden()["cases"][case_id]
    got = run_case(case_id, tmp_path)
    assert got["exit"] == want["exit"]
    assert got["stdout_sha256"] == want["stdout_sha256"], f"stdout changed:\n{got['stdout']}"
    problems = [
        f"{name}: {_largest_difference(_column_summary(tmp_path / name), want['files'][name]['columns'])}"
        for name, entry in got["files"].items()
        if entry["sha256"] != want["files"][name]["sha256"]
    ]
    assert not problems, "outputs changed; largest difference per file:\n" + "\n".join(problems)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def record() -> None:
    cases = {}
    for case_id in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            result = run_case(case_id, Path(work))
            for name, entry in result["files"].items():
                entry["columns"] = _column_summary(Path(work) / name)
        del result["stdout"]
        cases[case_id] = result
    src = sorted((ROOT / "src" / "rydphon").glob("*.py"))
    doc = {
        "commit": _git_commit(),
        "src_sha256": outputs.text_digest([outputs.digest(p) for p in src]),
        "cases": cases,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(cases)} cases)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
