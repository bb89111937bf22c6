import json
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydphon
from rydphon import cli
from rydphon.cli import main

from conftest import child_env, paper_spec
from rydphon.geometry import spec_to_dict

ROOT = Path(__file__).resolve().parent.parent


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
    (["bands", "--cutoff-cells", "8"], "unrecognized arguments: --cutoff-cells 8"),
    (["spectrum", "--q-points", "16"], "unrecognized arguments: --q-points 16"),
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
def test_few_q_points_compute_and_exit_zero(tmp_path, capsys, command, q_points):
    # |q| <= pi/(2a) holds 1, 2 and 2 grid points at q_points 2, 3 and 5
    cfg = write_config(tmp_path)
    out = tmp_path / "o.csv"
    assert main([command[0], cfg, *command[1:], "--q-points", q_points, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize("d, command", [
    (1.48, ["bands"]),
    (2.0, ["sweep", "--from", "1.5", "--to", "2.5", "--steps", "21"]),
])
def test_q_points_four_computes_at_d_148_and_over_the_paper_sweep(tmp_path, capsys, d, command):
    # at q_points 4 the grid point pi/(2a) lies one ulp outside the window at d = 1.48 and
    # at some spacings of the sweep, so a fit over the grid had 2 window points there
    cfg = write_config(tmp_path, d=d)
    argv = [command[0], cfg, *command[1:], "--q-points", "4", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("command, outputs", [
    ("spectrum", ["--out"]),
    ("local", ["--out-g", "--out-j"]),
    ("bands", ["--out"]),
    ("coupling", ["--out"]),
])
def test_relaxing_below_the_edge_names_the_missing_equilibrium(tmp_path, capsys, command,
                                                               outputs):
    """d = 1.6 lies below the relaxed-existence edges of the 7-cell chain
    (1.884485) and of the bulk (1.883584): the descent drives two atoms
    together, and the error says why.  bands and coupling relax the bulk."""
    cfg = write_config(tmp_path, d=1.6)
    paths = [a for k, flag in enumerate(outputs) for a in (flag, str(tmp_path / f"{k}.csv"))]
    assert main([command, cfg, "--relax", *paths]) == 1
    err = capsys.readouterr().err
    if command in ("bands", "coupling"):
        assert err.startswith("error: no symmetric bulk equilibrium found at d=1.6: ")
        assert "bulk bases A of cell 0 and B of cell 0 coincide" in err
    else:
        assert err.startswith("error: no symmetric equilibrium found at d=1.6: ")
        assert "atoms 2 and 3 coincide" in err
    assert "relaxed-existence edges" in err


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


CHECK_NAMES = ["gradient-vs-central-differences", "hessian-vs-central-differences",
               "eigenvector-orthonormality", "omega-even-in-q", "bogoliubov-vs-normal-modes"]


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_check_passes_every_check_on_every_config(config, capsys):
    assert main(["check", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {name}" for name in CHECK_NAMES]
    assert lines[-1] == "all 5 checks passed"


def _check_lines(capsys):
    return {line.split(":")[0].split()[1]: line.split()[0]
            for line in capsys.readouterr().out.splitlines() if ":" in line}


def _gradient_off_by(rel):
    """cli's gradient kernel with its entry 0 off by rel, relative."""
    real = cli._gradient

    def wrong(*args):
        grad = real(*args)
        grad[0] *= 1.0 + rel
        return grad
    return wrong


def _hessian_off_by(rel):
    """cli's Hessian kernel with its largest off-diagonal entry pair off by rel, relative."""
    real = cli._hessian

    def wrong(*args):
        hess = real(*args)
        off = np.abs(hess)
        np.fill_diagonal(off, 0.0)
        i, j = np.unravel_index(np.argmax(off), off.shape)
        hess[i, j] *= 1.0 + rel
        hess[j, i] = hess[i, j]
        return hess
    return wrong


@pytest.mark.parametrize("n_cells", [7, 100])
def test_check_fails_a_gradient_off_by_1e_3(n_cells, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_gradient", _gradient_off_by(1e-3))
    assert main(["check", write_config(tmp_path, n_cells=n_cells)]) == 3
    assert _check_lines(capsys)["gradient-vs-central-differences"] == "FAIL"


@pytest.mark.parametrize("n_cells", [7, 100])
def test_check_fails_a_hessian_pair_off_by_1e_3(n_cells, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_hessian", _hessian_off_by(1e-3))
    assert main(["check", write_config(tmp_path, n_cells=n_cells)]) == 3
    lines = _check_lines(capsys)
    assert lines["hessian-vs-central-differences"] == "FAIL"
    assert lines["gradient-vs-central-differences"] == "PASS"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("log10_d", [0.3, 3, 7.5, 10, 50, 105, 149])
def test_check_passes_from_d_2_to_1e149(log10_d, tmp_path, capsys):
    assert main(["check", write_config(tmp_path, n_cells=4, d=10.0**log10_d)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"


@pytest.mark.parametrize("argv", [
    ["check"],
    ["spectrum", "--relax", "--out", "s.csv"],
    ["bands", "--relax", "--out", "b.csv"],
    ["export", "--relax", "--t", "1", "--U", "4", "--gcp", "0.5", "--out", "model.json"],
], ids=lambda argv: argv[0])
def test_far_apart_chain_leaves_stderr_empty(tmp_path, argv):
    """At d = 1e149 the far pairs' r^5 and the gradient's quad * r overflow
    inside the pair kernels, which handle it; numpy prints no warning."""
    proc = _cli_process([argv[0], write_config(tmp_path, n_cells=4, d=1e149), *argv[1:]],
                        cwd=tmp_path, stdout=subprocess.DEVNULL)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == ""


@pytest.mark.parametrize("n_cells", [1, 7, 40])
def test_check_probes_cost_2k_energies_and_2k_plus_1_gradients(n_cells, monkeypatch):
    calls = {"energy": 0, "gradient": 0}

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(cli, "_energy", counted("energy", cli._energy))
    monkeypatch.setattr(cli, "_gradient", counted("gradient", cli._gradient))
    cli._derivative_probes(paper_spec(n_cells=n_cells), np.random.default_rng(0))
    k = cli._PROBES
    assert k == 8
    assert calls == {"energy": 3 * 2 * k, "gradient": 3 * (2 * k + 1)}  # 3 configurations


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
    # link.csv is a symlink into the missing directory
    "coupling-dangling-link": (["coupling", "--q-points", "16", "--out", "{tmp}/link.csv"],
                               "its directory does not exist"),
    "spectrum-dangling-link": (["spectrum", "--out", "{tmp}/link.csv"],
                               "its directory does not exist"),
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


@pytest.mark.parametrize("out_g, out_j", [
    ("same.csv", "same.csv"),
    ("same.csv", "sub/../same.csv"),
    ("old.csv", "link.csv"),        # an existing file and a symlink to it
    ("link.csv", "same.csv"),       # a symlink to the other, not yet written, file
])
def test_two_outputs_naming_one_file_exit_two(tmp_path, capsys, out_g, out_j):
    cfg = write_config(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "old.csv").write_text("old\n")
    (tmp_path / "link.csv").symlink_to(tmp_path / ("old.csv" if out_g == "old.csv" else "same.csv"))
    assert main(["local", cfg, "--out-g", str(tmp_path / out_g), "--out-j", str(tmp_path / out_j)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {tmp_path / out_j}: "
                          "another output names the same file")
    assert not (tmp_path / "same.csv").exists()
    assert (tmp_path / "old.csv").read_text() == "old\n"


@pytest.mark.parametrize("argv, compute", [
    (["spectrum", "--out", "link.csv"], "finite_spectrum"),
    (["local", "--out-g", "g.csv", "--out-j", "link.csv"], "local_phonon_model"),
], ids=["spectrum", "local"])
def test_dangling_link_exits_two_before_anything_is_computed(tmp_path, monkeypatch, capsys,
                                                             argv, compute):
    def never_called(*args, **kwargs):
        raise AssertionError(f"{compute} ran before the outputs were checked")

    cfg = write_config(tmp_path)
    (tmp_path / "link.csv").symlink_to(tmp_path / "missing" / "target.csv")
    monkeypatch.setattr(cli, compute, never_called)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], cfg, *argv[1:]]) == 2
    assert capsys.readouterr().err == ("configuration error: cannot write link.csv: "
                                       "its directory does not exist\n")
    assert sorted(os.listdir(tmp_path)) == ["chain.json", "link.csv"]


def test_two_outputs_to_one_device_are_written(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["local", cfg, "--out-g", os.devnull, "--out-j", os.devnull]) == 0


def test_two_names_of_one_inode_each_get_their_table(tmp_path):
    # each output replaces its own name, so hard links part and nothing is lost
    cfg = write_config(tmp_path)
    (tmp_path / "g.csv").write_text("old\n")
    os.link(tmp_path / "g.csv", tmp_path / "j.csv")
    assert main(["local", cfg, "--out-g", str(tmp_path / "g.csv"), "--out-j", str(tmp_path / "j.csv")]) == 0
    assert data_lines(tmp_path / "g.csv")[0] == "n,m,i,j,value"
    assert data_lines(tmp_path / "j.csv")[0] == "separation,bond_class,value"


def _cli_process(argv, **kwargs):
    """``rydphon argv`` as a child process, stderr captured as text; its stdout
    is block-buffered, as it is by default when it is not a terminal."""
    env = child_env()
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


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (16384, 16384))


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_file_failing_while_written_is_left_as_it_was(tmp_path, existed):
    """Past 16 KiB every write fails with EFBIG; the model file is far larger."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "model.json"
    if existed:
        out.write_bytes(b"old bytes\n")
    proc = _cli_process(["export", write_config(tmp_path), "--t", "1", "--U", "4", "--gcp", "0.5",
                         "--out", str(out)], preexec_fn=_limit_file_size)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(f"configuration error: cannot write {out}: File too large")
    assert "Traceback" not in err
    assert [p.name for p in out_dir.iterdir()] == (["model.json"] if existed else [])
    if existed:
        assert out.read_bytes() == b"old bytes\n"


def test_output_is_written_through_a_symlink_keeping_its_mode(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target.name)
    assert main(["spectrum", cfg, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert data_lines(target)[0] == "mode,omega,ipr,end_decay,edge_flag,nearest_band"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "link.csv", "target.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_keeps_the_summary_after_the_table(tmp_path):
    """``--out /dev/stdout > f.csv``: the table and then the summary line, both in f.csv."""
    out = tmp_path / "f.csv"
    with open(out, "w") as fh:
        proc = _cli_process(["spectrum", write_config(tmp_path, topology="topological"),
                             "--out", "/dev/stdout"], stdout=fh)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.read_text().splitlines()
    assert lines[0] == f"# rydphon {rydphon.__version__}"
    assert lines[-1].startswith("modes=42 edge_modes=")
    table = [ln for ln in lines[:-1] if not ln.startswith("#")]
    assert table[0] == "mode,omega,ipr,end_decay,edge_flag,nearest_band"
    assert [int(ln.split(",")[0]) for ln in table[1:]] == list(range(42))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "f.csv"]


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
