"""The column-table CSV writer against the row-by-row path it replaced.

The reference below is the earlier writer: per-table header strings, row
generators over the library results and a per-value ``_fmt``, joined
into one text.  Each test runs a subcommand and requires the same bytes.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest

from rydphon import (
    Topology,
    band_diagnostics,
    band_structure,
    coupled_bands,
    coupling_grid,
    finite_spectrum,
    local_phonon_model,
    spec_digest,
)
from rydphon import __version__, cli
from rydphon.cli import main
from rydphon.geometry import spec_to_dict
from rydphon.model_export import CONVENTIONS, _float_tokens

from conftest import paper_spec

BAND_HEADER = (
    "q,band,omega,"
    "re_xi_ax,im_xi_ax,re_xi_ay,im_xi_ay,re_xi_az,im_xi_az,"
    "re_xi_bx,im_xi_bx,re_xi_by,im_xi_by,re_xi_bz,im_xi_bz"
)
SPECTRUM_HEADER = "mode,omega,ipr,end_decay,edge_flag,nearest_band"
G_HEADER = "n,m,i,j,value"
J_HEADER = "separation,bond_class,value"
COUPLING_HEADER = "q,band,re_m,im_m,abs_m,rho0,omega"
SWEEP_HEADER = (
    "value,"
    + ",".join(f"bandwidth_{j}" for j in range(1, 7)) + ","
    + ",".join(f"concavity_{j}" for j in range(1, 7))
    + ",n_crossings,crossing_pairs,j_intracell,j_intercell,"
    + ",".join(f"max_m_{j}" for j in range(1, 7))
    + ",coupled_bands"
)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv(spec, header, rows, extra_comments=()) -> str:
    conventions = "conventions: " + "; ".join(f"{k}={v}" for k, v in CONVENTIONS.items())
    lines = [f"# rydphon {__version__}", f"# config_hash={spec_digest(spec)}", f"# {conventions}"]
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def band_rows(bands):
    parts = np.stack([bands.xi.real, bands.xi.imag], axis=-1)   # (Nq, 6, 6, 2)
    for k, q in enumerate(bands.q_grid):
        for j in range(bands.n_bands):
            yield [q, j + 1, bands.omega[k, j], *parts[k, :, j].ravel()]


def spectrum_rows(fs):
    rep = fs.report
    for m, om in enumerate(fs.frequencies):
        yield [m, om, rep.ipr[m], rep.end_decay[m], int(rep.edge_flags[m]), rep.nearest_band[m]]


def g_rows(g):
    atoms = range(g.shape[0])
    for n, m, i, j in product(atoms, atoms, range(3), range(3)):
        yield [n, m, "xyz"[i], "xyz"[j], g[n, i, m, j]]


def j_rows(table):
    for (s, cls) in sorted(table):
        yield [s, cls, table[(s, cls)]]


def coupling_rows(grid):
    for k, q in enumerate(grid.q_grid):
        for j in range(6):
            z = grid.m_complex[k, j]
            yield [q, j + 1, z.real, z.imag, abs(z), grid.rho0_values[k], grid.omega[k, j]]


def sweep_row(spec, q_points):
    bands = band_structure(spec, q_points=q_points)
    diag = band_diagnostics(bands)
    model = local_phonon_model(spec)
    grid = coupling_grid(bands)
    row = list(diag.bandwidth)
    row.extend(int(c) for c in diag.concavity)
    row.append(len(diag.crossings))
    row.append(";".join(f"{a}-{b}" for a, b in diag.crossing_pairs) or "-")
    row.append(model.J.get((1, 0), 0.0))
    row.append(model.J.get((1, 1), 0.0))
    row.extend(grid.m_abs.max(axis=0))
    row.append(";".join(str(b) for b in coupled_bands(grid)[0]) or "-")
    return row


def _reference_stdout(command, spec) -> str:
    """What the row path printed for ``command`` with every --out omitted."""
    if command == "bands":
        bands = band_structure(spec, q_points=64)
        report = [f"crossing bands ({a},{b}) at q={_fmt(q)}"
                  for a, b, q in band_diagnostics(bands).crossings]
        return _csv(spec, BAND_HEADER, band_rows(bands), report) + "".join(r + "\n" for r in report)
    if command == "spectrum":
        fs = finite_spectrum(spec)
        return (_csv(spec, SPECTRUM_HEADER, spectrum_rows(fs),
                     ["relaxed=False", f"edge_modes={fs.n_edge_modes}"])
                + f"modes={len(fs.frequencies)} edge_modes={fs.n_edge_modes}\n")
    if command == "local":
        model = local_phonon_model(spec)
        return _csv(spec, G_HEADER, g_rows(model.g)) + _csv(spec, J_HEADER, j_rows(model.J))
    if command == "coupling":
        grid = coupling_grid(band_structure(spec, q_points=64))
        labels, q_star, _ = coupled_bands(grid)
        return (_csv(spec, COUPLING_HEADER, coupling_rows(grid),
                     [f"coupled_bands={len(labels)} at q*={_fmt(q_star)}"])
                + f"coupled_bands={len(labels)} bands={labels}\n")
    values = [float(v) for v in np.linspace(1.55, 2.25, 3)]
    rows = [[v, *sweep_row(spec.with_(d=v, a=2.0 * v), 64)] for v in values]
    return _csv(spec, SWEEP_HEADER, rows, ["param=d from=1.55 to=2.25 steps=3"])


_ARGS = {
    "bands": ["--q-points", "64"],
    "spectrum": [],
    "local": [],
    "coupling": ["--q-points", "64"],
    "sweep": ["--q-points", "64", "--param", "d", "--from", "1.55", "--to", "2.25", "--steps", "3"],
}


def _config(tmp_path, spec) -> str:
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    return str(path)


def _lines(text: str) -> list:
    """The text's lines with their endings: equal lists mean equal texts, and a
    failing comparison reports the first differing line at once, where a
    whole-text comparison of a large table makes pytest build a slow diff."""
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("command", sorted(_ARGS))
def test_stdout_table_matches_row_path(tmp_path, capsys, command):
    spec = paper_spec(topology=Topology.TOPOLOGICAL) if command == "spectrum" else paper_spec()
    assert main([command, _config(tmp_path, spec), *_ARGS[command]]) == 0
    assert _lines(capsys.readouterr().out) == _lines(_reference_stdout(command, spec))


def test_sweep_text_columns_match_row_path(tmp_path, capsys):
    spec = paper_spec()
    assert main(["sweep", _config(tmp_path, spec), *_ARGS["sweep"]]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines() if not r.startswith("#")]
    header = rows[0]
    pairs = [r[header.index("crossing_pairs")] for r in rows[1:]]
    assert pairs == ["-", "4-5", "4-6;5-6"]   # none, one and two crossing pairs
    assert any(r[header.index("coupled_bands")] != "-" for r in rows[1:])


def test_g_table_longer_than_two_chunks_matches_row_path(tmp_path):
    spec = paper_spec(n_cells=16)
    out_g, out_j = tmp_path / "g.csv", tmp_path / "j.csv"
    assert main(["local", _config(tmp_path, spec), "--out-g", str(out_g), "--out-j", str(out_j)]) == 0
    model = local_phonon_model(spec)
    assert model.g.size > 2 * cli._CHUNK_ROWS
    assert _lines(out_g.read_text()) == _lines(_csv(spec, G_HEADER, g_rows(model.g)))
    assert _lines(out_j.read_text()) == _lines(_csv(spec, J_HEADER, j_rows(model.J)))


def test_empty_j_table_is_header_only(tmp_path):
    spec = paper_spec(n_cells=2)
    out_g, out_j = tmp_path / "g.csv", tmp_path / "j.csv"
    assert main(["local", _config(tmp_path, spec), "--out-g", str(out_g), "--out-j", str(out_j)]) == 0
    assert local_phonon_model(spec).J == {}
    assert _lines(out_j.read_text()) == _lines(_csv(spec, J_HEADER, []))
    assert out_j.read_text().splitlines()[-1] == J_HEADER


def test_float_column_spellings_match_row_path(tmp_path):
    """Every way a float is spelled: tiny, [1e-5, 1e-4), >= 1e16, signed zero, inf and nan,
    in a column that spans more than one chunk, next to int and text columns."""
    spellings = [1e-17, -2.5e-17, 1e-5, 3.3e-5, -9.999e-5, float(np.nextafter(1e-4, 0.0)), 1e-4,
                 1e16, -1.25e16, 3.5e21, 5e-324, -0.0, 0.0, 0.1, float("inf"), -float("inf"),
                 float("nan")]
    values = np.tile(spellings, cli._CHUNK_ROWS // len(spellings) + 2)
    labels = np.array(["x", "y"])[np.arange(len(values)) % 2]
    spec = paper_spec()
    out = tmp_path / "t.csv"
    cli._write_table(out, spec, {"k": np.arange(len(values)), "label": labels, "value": values})
    rows = zip(range(len(values)), labels, values)
    assert _lines(out.read_text()) == _lines(_csv(spec, "k,label,value", rows))


def _tolist_text(spec, columns: dict) -> str:
    """The table the writer wrote when every non-float cell was ``str`` of its
    column's ``.tolist()`` entry."""
    cells = [_float_tokens(c) if c.dtype.kind == "f" else list(map(str, c.tolist()))
             for c in map(np.asarray, columns.values())]
    rows = "".join(",".join(row) + "\n" for row in zip(*cells))
    return _csv(spec, ",".join(columns), []) + rows


def test_non_float_columns_match_str_of_tolist(tmp_path):
    """Negative and multi-chunk ints, bools, numpy strings and columns built from
    lists, including chunks that hold one distinct value."""
    n = 2 * cli._CHUNK_ROWS + 123
    k = np.arange(n)
    ints = (k * 7919) % 2001 - 1000
    columns = {
        "int": ints,
        "wide": np.where(k % 3 == 0, np.iinfo(np.int64).min, np.iinfo(np.int64).max - k),
        "unsigned": (k % 5).astype(np.uint8),
        "constant": np.full(n, -3),
        "flag": k % 3 == 1,
        "axis": np.array(["x", "y", "z"])[k % 3],
        "words": np.array(["-", "1-2", "4-6;5-6", ""])[(k // 1000) % 4],
        "listed_int": [int(v) for v in ints],
        "listed_text": [f"{v % 7}-{v % 5}" for v in k.tolist()],
        "listed_bool": [bool(v % 2) for v in k.tolist()],
        "value": np.sin(k.astype(float)),
    }
    spec = paper_spec()
    out = tmp_path / "t.csv"
    cli._write_table(out, spec, columns)
    assert out.read_text().splitlines() == _tolist_text(spec, columns).splitlines()


_CHUNK = cli._CHUNK_ROWS
_TOKEN_COLUMNS = {
    "text": np.array(["x", "y", "z", "-", "1-2", ""])[np.arange(50) % 6],
    "one-text": np.array(["z"]),
    "empty-text": np.array([], dtype="<U1"),
    "empty-int": np.array([], dtype=np.int64),
    "negative": np.arange(50) % 7 - 9,
    "single-valued": np.full(30, -4),
    "one": np.array([17]),
    "range-one-short-of-a-chunk": np.arange(-_CHUNK + 1, 1)[::-1],   # max - min = size - 1
    "range-a-chunk-wide": np.r_[np.arange(_CHUNK - 1), _CHUNK],       # max - min = size
    "int64-extremes": np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]),
    "uint8": (np.arange(40) % 5).astype(np.uint8),
    "uint64-top": np.array([np.iinfo(np.uint64).max, np.iinfo(np.uint64).max - 1], np.uint64),
    "bool": np.arange(10) % 3 == 0,
}


@pytest.mark.parametrize("name", _TOKEN_COLUMNS)
def test_str_tokens_equal_str_of_tolist(name):
    """Text columns; integers through the table of their range, unsigned
    ones too; and the entry-by-entry path (bools, ranges wider than the
    column)."""
    values = _TOKEN_COLUMNS[name]
    assert cli._str_tokens(values) == [str(v) for v in values.tolist()]
