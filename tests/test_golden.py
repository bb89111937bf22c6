"""Golden digests of every subcommand's outputs and stdout.

Each case runs ``rydphon.cli.main`` in a fresh working directory and
compares the SHA-256 of its stdout and of every file it writes with
``golden.json``.  A refactor that should not change numbers must pass
unchanged.  On a mismatch the test names the column whose min, max or
sum moved most, so a last-bit change can be told from a real one.

Re-record (only for a change that moves numbers on purpose) with

    PYTHONPATH=src python tests/test_golden.py --record

which also stores the git commit and a digest of ``src/rydphon``.  A new
case is added with

    PYTHONPATH=src python tests/test_golden.py --record CASE...

which records only the named cases and leaves every other case, ``commit``
and ``src_sha256`` as they are; run it before the ``src/`` edit the case
is to guard.  Either form prints one line per recorded case naming which
of its digests (exit code, stdout, each file) changed and which did not,
the disclosure a re-record goes with.
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
    # g spans |g| < 1e-5, [1e-5, 1e-4) and >= 1e-4, which float formatting spells three ways
    cases["local-topological_n40"] = (["local", "{cfg}", "--out-g", "g.csv", "--out-j", "j.csv"],
                                      ["g.csv", "j.csv"])
    cases["export-relax-q1024-trivial_d25"] = (["export", "{cfg}", "--q-points", "1024", *model,
                                                "--relax", "--out", "model.json"], ["model.json"])
    # m_y != 0: no pair Hessian or gradient entry is exactly zero by symmetry
    cases["spectrum-relax-topological_phi03"] = (["spectrum", "{cfg}", "--relax",
                                                  "--out", "spectrum.csv"], ["spectrum.csv"])
    # m_y != 0 in the relaxed bulk: relax_bulk's pair sums and the relaxed Bloch matrices
    cases["bands-relax-topological_phi03"] = (["bands", "{cfg}", *q, "--relax",
                                               "--out", "bands.csv"], ["bands.csv"])
    return cases


CASES = _cases()


# configs written for a case: name -> (the config it edits, the edited fields)
DERIVED = {
    "topological_n20": ("topological_d2", {"n_cells": 20}),
    "topological_n40": ("topological_d2", {"n_cells": 40}),
    "topological_phi03": ("topological_d2", {"phi": 0.3}),
}


def _config(case_id: str, work: Path) -> Path:
    derived = next((n for n in DERIVED if case_id.endswith(n)), None)
    if derived:
        base, fields = DERIVED[derived]
        data = {**json.loads((ROOT / "configs" / f"{base}.json").read_text()), **fields}
        path = work / f"{derived}.json"
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


def test_record_names_the_digests_that_changed():
    old = {"exit": 0, "stdout_sha256": "a", "files": {"g.csv": {"sha256": "g"},
                                                     "j.csv": {"sha256": "j"}}}
    new = {"exit": 0, "stdout_sha256": "b", "files": {"g.csv": {"sha256": "g"},
                                                     "j.csv": {"sha256": "k"}}}
    assert _digest_changes("local-x", new, old) == \
        "local-x: changed stdout, j.csv; unchanged exit, g.csv"
    assert _digest_changes("local-x", old, old) == \
        "local-x: changed nothing; unchanged exit, stdout, g.csv, j.csv"
    assert _digest_changes("local-x", new, None) == "local-x: new case"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _digest_changes(case_id: str, new: dict, old) -> str:
    """One line naming which of a re-recorded case's digests (exit code,
    stdout, each file) changed and which did not."""
    if old is None:
        return f"{case_id}: new case"
    digests = {"exit": (new["exit"], old["exit"]),
               "stdout": (new["stdout_sha256"], old["stdout_sha256"])}
    for name, entry in new["files"].items():
        digests[name] = (entry["sha256"], old["files"].get(name, {}).get("sha256"))
    changed = [what for what, (got, had) in digests.items() if got != had]
    same = [what for what in digests if what not in changed]
    return (f"{case_id}: changed {', '.join(changed) or 'nothing'}; "
            f"unchanged {', '.join(same) or 'nothing'}")


def record(case_ids=()) -> None:
    """Record ``case_ids`` into golden.json, keeping every other case and the
    recorded ``commit`` and ``src_sha256``; with none, record every case afresh.
    Prints, for each recorded case, which of its digests changed."""
    unknown = sorted(set(case_ids) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    before = _golden()["cases"] if GOLDEN.exists() else {}
    cases = {}
    for case_id in sorted(case_ids or CASES):
        with tempfile.TemporaryDirectory() as work:
            result = run_case(case_id, Path(work))
            for name, entry in result["files"].items():
                entry["columns"] = _column_summary(Path(work) / name)
        del result["stdout"]
        cases[case_id] = result
        print(_digest_changes(case_id, result, before.get(case_id)))
    if case_ids:
        doc = _golden()
        doc["cases"].update(cases)
    else:
        src = sorted((ROOT / "src" / "rydphon").glob("*.py"))
        doc = {
            "commit": _git_commit(),
            "src_sha256": outputs.text_digest([outputs.digest(p) for p in src]),
            "cases": cases,
        }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(cases)} of {len(doc['cases'])} cases recorded)")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [CASE...]")
    record(sys.argv[2:])
