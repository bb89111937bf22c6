import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydphon
from rydphon.cli import main

from conftest import paper_spec
from rydphon.geometry import spec_to_dict


def write_config(tmp_path, name="chain.json", **overrides):
    data = spec_to_dict(paper_spec(**overrides))
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def data_lines(path):
    return [ln for ln in open(path).read().splitlines() if ln and not ln.startswith("#")]


def test_bands_shape_and_exit(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "bands.csv"
    assert main(["bands", cfg, "--out", str(out)]) == 0
    rows = data_lines(out)
    assert rows[0].startswith("q,band,omega")
    assert len(rows) - 1 == 256 * 6


def test_bands_reports_crossing_at_d15(tmp_path, capsys):
    cfg = write_config(tmp_path, d=1.5)
    out = tmp_path / "bands.csv"
    assert main(["bands", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "(5,6)" in text


def test_malformed_config_key_names_offender(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_cells": 7, "d": 2.0, "dd": 1.0}))
    assert main(["bands", str(path)]) == 2
    assert "dd" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"n_cells": 7, "d": NaN}',
    '{"n_cells": 7, "d": 2.0, "v_dd": Infinity}',
    '{"n_cells": 2.5, "d": 2.0}',
])
@pytest.mark.parametrize("command", ["bands", "spectrum"])
def test_non_finite_or_fractional_config_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


_MODEL = ["--t", "1", "--U", "4", "--gcp", "0.5", "--out", "model.json"]
_BAD_ARGUMENTS = [
    (["bands", "--q-points", "1"], "must be an integer >= 2"),
    (["coupling", "--q-points", "1"], "must be an integer >= 2"),
    (["bands", "--cutoff-cells", "0", "--relax"], "must be an integer >= 1"),
    (["bands", "--cutoff-cells", "-1"], "must be an integer >= 1"),
    (["sweep", "--from", "1.9", "--to", "2.0", "--steps", "2", "--relax"],
     "unrecognized arguments: --relax"),
    (["check", "--relax"], "unrecognized arguments: --relax"),
    (["spectrum", "--no-relax"], "unrecognized arguments: --no-relax"),
    (["export", *_MODEL, "--gcp", "-1"], "argument --gcp: must be a finite number >= 0, got -1"),
    (["export", *_MODEL, "--t", "nan"], "argument --t: must be a finite number, got nan"),
    (["export", *_MODEL, "--U", "inf"], "argument --U: must be a finite number, got inf"),
]


@pytest.mark.parametrize("argv, message", _BAD_ARGUMENTS,
                         ids=[f"argv{k}" for k in range(len(_BAD_ARGUMENTS))])
def test_out_of_range_integer_argument_exits_two(tmp_path, capsys, argv, message):
    """Out-of-range numbers and options a subcommand does not take are argument errors."""
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([argv[0], cfg, *argv[1:]])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("q_points", ["2", "3", "5"])
@pytest.mark.parametrize("command", [
    ["bands"],
    ["sweep", "--from", "1.9", "--to", "2.0", "--steps", "2"],
])
def test_too_few_q_points_for_concavity_fit_exits_two(tmp_path, capsys, command, q_points):
    cfg = write_config(tmp_path)
    argv = [command[0], cfg, *command[1:], "--q-points", q_points, "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "smallest q_points that gives 3 is 4" in err


def test_config_that_is_not_utf8_json_exits_two(tmp_path, capsys):
    cfg = tmp_path / "chain.json"
    cfg.write_bytes(b"\xff{}")
    assert main(["check", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: configuration file {cfg} is not valid JSON")
    assert "Traceback" not in err


def test_unstable_chain_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, d=1.3)
    assert main(["bands", cfg]) == 1
    assert "unstable" in capsys.readouterr().err


def test_spectrum_topological_edge_modes(tmp_path, capsys):
    cfg = write_config(tmp_path, topology="topological")
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", cfg, "--out", str(out)]) == 0
    rows = data_lines(out)[1:]
    assert len(rows) == 42
    flags = [int(r.split(",")[4]) for r in rows]
    assert sum(flags) == 3


def test_spectrum_trivial_no_edge_modes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", cfg, "--out", str(out)]) == 0
    rows = data_lines(out)[1:]
    assert sum(int(r.split(",")[4]) for r in rows) == 0


def test_spectrum_relax_changes_frequencies(tmp_path):
    cfg = write_config(tmp_path)
    bare = tmp_path / "bare.csv"
    relaxed = tmp_path / "relaxed.csv"
    assert main(["spectrum", cfg, "--out", str(bare)]) == 0
    assert main(["spectrum", cfg, "--relax", "--out", str(relaxed)]) == 0
    get = lambda p: np.array([float(r.split(",")[1]) for r in data_lines(p)[1:]])
    delta = np.abs(get(bare) - get(relaxed)).max()
    assert delta > 1e-3


def test_local_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_g = tmp_path / "g.csv"
    out_j = tmp_path / "j.csv"
    assert main(["local", cfg, "--out-g", str(out_g), "--out-j", str(out_j)]) == 0
    g_rows = data_lines(out_g)[1:]
    assert len(g_rows) == 9 * 14 * 14
    j_rows = data_lines(out_j)[1:]
    assert j_rows[0].split(",")[:2] == ["1", "0"]


def test_coupling_output(tmp_path, capsys):
    cfg = write_config(tmp_path, d=2.5)
    out = tmp_path / "m.csv"
    assert main(["coupling", cfg, "--q-points", "128", "--out", str(out)]) == 0
    assert "coupled_bands=2" in capsys.readouterr().out
    rows = data_lines(out)
    assert rows[0] == "q,band,re_m,im_m,abs_m,rho0,omega"
    assert len(rows) - 1 == 128 * 6


def test_coupling_abs_m_is_hypot_of_its_own_columns(tmp_path):
    """abs_m is |M| as scalar abs() gives it; np.abs differs in the last bit on this grid."""
    cfg = write_config(tmp_path, d=2.5)
    out = tmp_path / "m.csv"
    assert main(["coupling", cfg, "--q-points", "64", "--relax", "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in r.split(",")] for r in data_lines(out)[1:]])
    re_m, im_m, abs_m = rows[:, 2], rows[:, 3], rows[:, 4]
    assert np.array_equal(abs_m, np.hypot(re_m, im_m))


def test_sweep_columns_and_order(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--param", "d", "--from", "1.8", "--to", "2.2",
                 "--steps", "3", "--q-points", "64", "--out", str(out)]) == 0
    rows = data_lines(out)
    header = rows[0].split(",")
    assert header[0] == "value"
    assert "bandwidth_1" in header and "j_intracell" in header and "coupled_bands" in header
    values = [float(r.split(",")[0]) for r in rows[1:]]
    assert values == [1.8, 2.0, 2.2]


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", cfg, "--param", "n_cells", "--from", "1", "--to", "2",
                 "--steps", "2"]) == 2


def test_export_and_check(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "model.json"
    assert main(["export", cfg, "--t", "1.0", "--U", "4.0", "--gcp", "0.5",
                 "--q-points", "64", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["hubbard"] == {"t": 1.0, "U": 4.0}
    assert main(["check", cfg]) == 0
    assert "all" in capsys.readouterr().out


def test_export_determinism(tmp_path):
    cfg = write_config(tmp_path)
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    for out in (first, second):
        assert main(["export", cfg, "--t", "1.0", "--U", "4.0", "--gcp", "0.5",
                     "--q-points", "64", "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_csv_headers_carry_hash_and_conventions(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "bands.csv"
    assert main(["bands", cfg, "--q-points", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# config_hash=" in text
    assert "# conventions:" in text


_UNWRITABLE = {
    "spectrum-missing-dir": (["spectrum", "--out", "{tmp}/missing/x.csv"], "its directory does not exist"),
    "local-g-missing-dir": (["local", "--out-g", "{tmp}/missing/g.csv"], "its directory does not exist"),
    "local-j-missing-dir": (["local", "--out-j", "{tmp}/missing/j.csv"], "its directory does not exist"),
    "export-missing-dir": (["export", "--t", "1", "--U", "4", "--gcp", "0.5",
                            "--out", "{tmp}/missing/m.json"], "its directory does not exist"),
    "bands-directory": (["bands", "--out", "{tmp}"], "it is a directory"),
    # these pass the early check and fail when the finished table is opened
    "coupling-dangling-link": (["coupling", "--q-points", "16", "--out", "{tmp}/link.csv"],
                               "No such file or directory"),
    "sweep-name-too-long": (["sweep", "--q-points", "16", "--from", "1.9", "--to", "2.0",
                             "--steps", "2", "--out", "{tmp}/" + "x" * 300 + ".csv"],
                            "File name too long"),
}


@pytest.mark.parametrize("argv, message", _UNWRITABLE.values(), ids=_UNWRITABLE)
def test_unwritable_output_exits_two(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path)
    (tmp_path / "link.csv").symlink_to(tmp_path / "missing" / "target.csv")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], cfg, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {tmp_path}")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def _cli_process(argv, **kwargs):
    """``rydphon argv`` as a child process, stderr captured as text; its stdout
    is block-buffered, as it is by default when it is not a terminal."""
    src = str(Path(rydphon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "rydphon.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["bands", "--q-points", "16"],
    ["export", "--q-points", "16", "--t", "1", "--U", "4", "--gcp", "0.5"],
], ids=lambda argv: argv[0])
def test_output_failing_while_written_exits_two(tmp_path, argv):
    proc = _cli_process([argv[0], write_config(tmp_path), *argv[1:], "--out", "/dev/full"])
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("configuration error: cannot write /dev/full: No space left")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, n_cells, lines_read", [
    ("local", 40, 1),   # 80 atoms: the g table (about 1.5 MB) fails in a write
    ("check", 7, 0),    # its few lines fail when stdout is flushed at the end
])
def test_closed_stdout_pipe_exits_two(tmp_path, command, n_cells, lines_read):
    proc = _cli_process([command, write_config(tmp_path, n_cells=n_cells)], stdout=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline() == f"# rydphon {rydphon.__version__}\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("configuration error: cannot write stdout: Broken pipe")
    assert "Traceback" not in err and "Exception ignored" not in err


_EXTREME_COMMANDS = {
    "local": ["local", "--out-g", "g.csv", "--out-j", "j.csv"],
    "spectrum": ["spectrum", "--out", "s.csv"],
    "spectrum-relax": ["spectrum", "--relax", "--out", "s.csv"],
    "bands": ["bands", "--out", "b.csv"],
    "coupling": ["coupling", "--out", "m.csv"],
    "export": ["export", "--t", "1", "--U", "4", "--gcp", "0.5", "--out", "model.json"],
    "check": ["check"],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", _EXTREME_COMMANDS)
@pytest.mark.parametrize("d", [1e200, 1e-300])
def test_extreme_spacing_exits_one_without_output(tmp_path, monkeypatch, capsys, d, command):
    """d = 1e200 overflows the pair formula into NaN; at d = 1e-300 the atoms coincide."""
    cfg = write_config(tmp_path, n_cells=20, d=d)
    monkeypatch.chdir(tmp_path)
    argv = _EXTREME_COMMANDS[command]
    assert main([argv[0], cfg, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json"]
