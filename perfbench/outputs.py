"""Compact references for rydphon output files and the check against them.

A reference is a SHA-256 digest plus summaries of each column, so the
raw outputs (tens of MB) are not stored.  An output whose digest matches
is byte-identical.  Otherwise it passes when every summary statistic is
within ``RTOL`` of the column's largest reference magnitude, times the
number of values a statistic adds up; text columns, comment lines and
the file layout must match exactly.  This admits an intended last-bit
change while flagging any real change of the numbers.

A numeric column is summarised by its count, min and max and, for each
of up to ``BLOCKS`` consecutive blocks of rows, the block's sum and its
total variation (the sum of absolute differences of neighbouring rows).
The block sums see a change of one value at the block's size rather
than the column's; the variations see rows that are reordered, within a
block or across blocks.  A column whose values all lie below
``NOISE_SCALE`` holds rounding noise (e.g. imaginary parts that vanish
analytically) and is compared at that scale.
"""

from __future__ import annotations

import hashlib
import json
import math

RTOL = 1e-7
NOISE_SCALE = 1e-6
BLOCKS = 64


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def text_digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def _bounds(n: int) -> list:
    """Row ranges of the blocks of an ``n``-row column."""
    k = min(BLOCKS, n)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _numeric(values) -> dict:
    blocks = [values[lo:hi] for lo, hi in _bounds(len(values))]
    return {"n": len(values), "min": min(values), "max": max(values),
            "block_sums": [math.fsum(b) for b in blocks],
            "block_variations": [math.fsum(abs(y - x) for x, y in zip(b, b[1:]))
                                 for b in blocks]}


def _column(values) -> dict:
    try:
        numbers = [float(v) for v in values]
    except ValueError:
        return {"text_sha256": text_digest(values)}
    return _numeric(numbers) if numbers else {"n": 0}


def _csv_summary(text: str) -> dict:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",") if body else []
    rows = [ln.split(",") for ln in body[1:]]
    if any(len(r) != len(header) for r in rows):
        return {"text_sha256": text_digest(lines)}
    columns = {name: _column([r[i] for r in rows]) for i, name in enumerate(header)}
    return {"comments_sha256": text_digest(comments), "header": header, "columns": columns}


def _flat_numbers(obj, out) -> bool:
    if isinstance(obj, list):
        return all(_flat_numbers(x, out) for x in obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append(float(obj))
        return True
    return False


def _json_leaves(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _json_leaves(obj[key], f"{path}/{key}", out)
        return
    numbers = []
    if _flat_numbers(obj, numbers):
        out[path] = _numeric(numbers) if numbers else {"n": 0}
    else:
        out[path] = {"text_sha256": text_digest([json.dumps(obj, sort_keys=True)])}


def summarize(path) -> dict:
    """Per-column summaries of a CSV output, per-leaf summaries of a JSON one."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        leaves = {}
        _json_leaves(json.loads(text), "", leaves)
        return {"columns": leaves}
    return _csv_summary(text)


def _compare_column(name: str, got: dict, ref: dict) -> list:
    if "text_sha256" in ref or "text_sha256" in got or got.get("n") != ref.get("n"):
        return [] if got == ref else [f"{name}: differs"]
    if not ref["n"]:
        return []
    scale = max(abs(ref["min"]), abs(ref["max"]), NOISE_SCALE)
    problems = [f"{name}.{stat}: {got[stat]!r} vs reference {ref[stat]!r}"
                for stat in ("min", "max") if not abs(got[stat] - ref[stat]) <= RTOL * scale]
    for i, (lo, hi) in enumerate(_bounds(ref["n"])):
        for stat, terms in (("sum", hi - lo), ("variation", 2 * (hi - lo - 1))):
            gv, rv = got[f"block_{stat}s"][i], ref[f"block_{stat}s"][i]
            if not abs(gv - rv) <= RTOL * scale * max(terms, 1):
                problems.append(f"{name}.block{i}.{stat} (rows {lo}-{hi - 1}): "
                                f"{gv!r} vs reference {rv!r}")
    return problems


def compare(summary: dict, ref: dict) -> list:
    """Differences of ``summary`` from ``ref`` beyond the tolerance; empty if none."""
    problems = [f"{key}: differs" for key in ("text_sha256", "comments_sha256", "header")
                if summary.get(key) != ref.get(key)]
    got, want = summary.get("columns", {}), ref.get("columns", {})
    if set(got) != set(want):
        problems.append(f"columns differ: {sorted(set(got) ^ set(want))}")
    for name in sorted(set(got) & set(want)):
        problems += _compare_column(name, got[name], want[name])
    return problems


def reference_entry(path) -> dict:
    return {"sha256": digest(path), "summary": summarize(path)}


def check_output(path, ref: dict) -> tuple:
    """(byte_identical, problems) of an output file against its reference entry."""
    if digest(path) == ref["sha256"]:
        return True, []
    return False, compare(summarize(path), ref["summary"])
