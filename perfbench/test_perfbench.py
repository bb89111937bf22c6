"""Tests of the benchmark's own code: spans, rebinding, output check, generator."""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import steal  # noqa: E402
from run import evaluate  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, JITTER, RELAXED_MIN_D, UNRELAXED_MIN_D, WORKLOADS, Operation, Workload,
    make_workload,
)


def _span(sid, parent, name, t0, t1, count=None):
    return (sid, parent, name, t0, t1, count)


def test_self_time_of_nested_spans():
    trace = [
        _span(3, 2, "potential.hessian", 2.0, 3.0),
        _span(2, 1, "bands.finite_spectrum", 1.0, 4.0),
        _span(4, 1, "bands.band_structure", 5.0, 6.0, 256),
        _span(1, None, "cli.spectrum", 0.0, 10.0),
    ]
    selfs = {span[2]: s for span, s in spans.self_times(trace)}
    assert selfs == {"potential.hessian": 1.0, "bands.finite_spectrum": 2.0,
                     "bands.band_structure": 1.0, "cli.spectrum": 6.0}
    m = spans.layer_metrics(trace, ("spectrum", "sweep"))
    assert m["cli.spectrum.wall_s"] == 10.0
    assert m["cli.self_s"] == 6.0
    assert m["bands.band_structure.q_points"] == 256
    assert m["bands.finite_spectrum.calls"] == 1
    assert m["cli.sweep.busy_ratio"] == 0.0
    # the subcommand wall time is its layer self times plus the CLI's own time
    layer_self = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "cli.self_s")
    assert layer_self + m["cli.self_s"] == pytest.approx(m["cli.spectrum.wall_s"])


def test_overlapping_thread_spans_count_once_in_parent_self_time():
    trace = [
        _span(2, 1, "bands.track_bands", 1.0, 6.0),
        _span(3, 1, "bands.track_bands", 2.0, 8.0),
        _span(4, 3, "bands.band_structure", 3.0, 4.0),
        _span(1, None, "cli.sweep", 0.0, 10.0),
    ]
    m = spans.layer_metrics(trace, ("sweep",))
    assert m["cli.self_s"] == pytest.approx(3.0)           # 10 s minus the union [1, 8]
    assert m["bands.track_bands.self_s"] == pytest.approx(10.0)
    assert m["cli.sweep.busy_ratio"] == pytest.approx(1.1)  # (5 + 6) / 10


def test_recorder_keeps_a_parent_stack_per_thread():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: None, "potential.hessian")
    outer = rec.wrap(lambda: inner(), "bands.band_diagnostics")
    with rec.root("cli.sweep"):
        threads = [threading.Thread(target=outer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    by_id = {s[0]: s for s in rec.spans}
    root = next(s for s in rec.spans if s[2] == "cli.sweep")
    outers = [s for s in rec.spans if s[2] == "bands.band_diagnostics"]
    inners = [s for s in rec.spans if s[2] == "potential.hessian"]
    assert len(outers) == len(inners) == 4
    assert all(s[1] == root[0] for s in outers)
    assert all(by_id[s[1]][2] == "bands.band_diagnostics" for s in inners)
    assert len({s[1] for s in inners}) == 4


def test_instrument_rebinds_every_namespace_and_restores_originals():
    import rydphon
    import rydphon.bands
    import rydphon.cli

    original = rydphon.bands.band_structure
    assert rydphon.cli.band_structure is original and rydphon.band_structure is original
    spec = rydphon.ChainSpec(n_cells=2, d=2.0)
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.instrument(rec):
            wrapper = rydphon.cli.band_structure
            assert wrapper is not original
            assert rydphon.bands.band_structure is wrapper
            assert rydphon.band_structure is wrapper
            assert rydphon.atom_phonon.band_structure is wrapper
            rydphon.finite_spectrum(spec, q_points=8)
            raise RuntimeError("leave the block early")
    for mod in (rydphon, rydphon.bands, rydphon.cli, rydphon.atom_phonon):
        assert mod.band_structure is original
    assert rydphon.potential.hessian.__module__ == "rydphon.potential"
    assert not hasattr(rydphon.potential.hessian, "__wrapped__")
    m = spans.layer_metrics(rec.spans, ())
    assert m["bands.finite_spectrum.calls"] == 1
    assert m["bands.band_structure.q_points"] == 8
    assert m["bands.finite_spectrum.modes"] == 12
    assert m["potential.hessian.calls"] == 1


def _csv(path, values):
    rows = "\n".join(f"{q!r},{band},{v!r}" for q, band, v in values)
    path.write_text(f"# rydphon test\nq,band,omega\n{rows}\n")


def _pass(out_dir, code=0):
    return {"digests": {"bands.csv": outputs.digest(out_dir / "bands.csv")},
            "results": [{"code": code, "stderr": ""}]}


@pytest.fixture
def one_output(tmp_path):
    workload = Workload("t", {}, (Operation("bands", "c.json", (), (("--out", "bands.csv"),)),))
    values = [(0.1 * k, 1 + k % 6, 1.0 + 0.01 * k) for k in range(60)]
    _csv(tmp_path / "bands.csv", values)
    reference = {"bands.csv": outputs.reference_entry(tmp_path / "bands.csv")}
    return workload, values, reference, tmp_path


def test_identical_output_passes(one_output):
    workload, _, reference, out = one_output
    check = evaluate(workload, [_pass(out), _pass(out)], out, reference)
    assert check["failed"] == 0 and check["attempted"] == 2
    assert check["identical_frac"] == 1.0


def test_last_bit_change_passes_but_is_not_byte_identical(one_output):
    workload, values, reference, out = one_output
    values[7] = (values[7][0], values[7][1], math.nextafter(values[7][2], 2.0))
    _csv(out / "bands.csv", values)
    check = evaluate(workload, [_pass(out)], out, reference)
    assert check["failed"] == 0
    assert check["identical_frac"] == 0.0


def test_perturbed_output_is_flagged_and_counted_as_failed(one_output):
    workload, values, reference, out = one_output
    values[7] = (values[7][0], values[7][1], values[7][2] + 1e-4)
    _csv(out / "bands.csv", values)
    check = evaluate(workload, [_pass(out), _pass(out)], out, reference)
    assert check["failed"] == 2 and check["attempted"] == 2
    assert any("omega" in p for p in check["problems"])


def test_output_that_changes_between_passes_fails(one_output):
    workload, values, _, out = one_output
    first = _pass(out)
    values[0] = (values[0][0], values[0][1], 5.0)
    _csv(out / "bands.csv", values)
    check = evaluate(workload, [first, _pass(out)], out, None)
    assert check["failed"] == 1
    assert check["identical_frac"] == 0.0


def test_nonzero_exit_fails(one_output):
    workload, _, reference, out = one_output
    check = evaluate(workload, [_pass(out, code=1)], out, reference)
    assert check["failed"] == 1


@pytest.fixture
def large_column(tmp_path):
    """A 360000-row column with the magnitude of the g table (max ~0.06)."""
    values = [0.06 * math.sin(1e-3 * k) ** 2 for k in range(360_000)]
    path = tmp_path / "g.csv"
    _write_column(path, values)
    return values, path, outputs.reference_entry(path)


def _write_column(path, values):
    path.write_text("# rydphon test\ng\n" + "\n".join(repr(v) for v in values) + "\n")


def _check(path, values, ref):
    _write_column(path, values)
    return outputs.check_output(path, ref)


def test_large_column_passes_last_bit_changes(large_column):
    values, path, ref = large_column
    changed = [math.nextafter(v, 1.0) if k % 3 == 0 else v for k, v in enumerate(values)]
    assert _check(path, changed, ref) == (False, [])


def test_large_column_flags_one_value_moved_by_1e_3(large_column):
    values, path, ref = large_column
    values = list(values)
    values[123_456] += 1e-3
    same, problems = _check(path, values, ref)
    assert not same and any("block" in p for p in problems)


@pytest.mark.parametrize("order", ["reversed", "two_blocks_swapped", "neighbours_swapped"])
def test_large_column_flags_reordered_rows(large_column, order):
    values, path, ref = large_column
    values = list(values)
    if order == "reversed":
        values.reverse()
    elif order == "two_blocks_swapped":
        size = len(values) // outputs.BLOCKS
        values[:size], values[size:2 * size] = values[size:2 * size], values[:size]
    else:  # two neighbouring rows inside one block
        values[1000], values[1001] = values[1001], values[1000]
    same, problems = _check(path, values, ref)
    assert not same and problems


def test_json_summaries_catch_a_changed_leaf(tmp_path):
    doc = {"phonons": {"omega": {"axes": ["band", "q"], "values": [[1.0, 2.0], [3.0, 4.0]]}},
           "schema_version": 1}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    ref = outputs.summarize(path)
    doc["phonons"]["omega"]["values"][1][0] = 3.5
    path.write_text(json.dumps(doc))
    assert outputs.compare(outputs.summarize(path), ref) != []
    doc["phonons"]["omega"]["values"][1][0] = 3.0
    doc["phonons"]["omega"]["axes"] = ["q", "band"]
    path.write_text(json.dumps(doc))
    assert outputs.compare(outputs.summarize(path), ref) != []


def test_probe_follows_an_operation_in_proportion():
    probe = speed.Probe()
    probe.follow(0.0)
    assert len(probe.take()) == 1
    probe.follow(1.0)
    samples = probe.take()
    assert sum(samples) >= speed.SHARE and sum(samples[:-1]) < speed.SHARE
    assert probe.take() == []


def test_speed_factor_is_the_mean_unit_time_over_the_nominal():
    assert speed.factor([1.0, 2.0, 6.0]) == pytest.approx(3.0 / speed.UNIT_NOMINAL_S)


def test_unstolen_share_of_the_cpu_time_asked_for():
    assert steal.unstolen_share((100, 10), (190, 40)) == 0.75   # 90 busy, 30 stolen
    assert steal.unstolen_share((100, 10), (150, 10)) == 1.0
    assert steal.unstolen_share((100, 10), (100, 10)) == 1.0    # nothing ran
    busy, stolen = steal.counters()
    assert busy >= 0 and stolen >= 0


def _relaxed_configs(workload):
    return {op.config for op in workload.operations if "--relax" in op.args}


def _sweep_range(workload):
    for op in workload.operations:
        if op.command == "sweep":
            args = list(op.args)
            return [float(args[args.index(flag) + 1]) for flag in ("--from", "--to")]
    return []


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_and_keeps_d_in_safe_ranges(name):
    nominal = make_workload(name, DEFAULT_SEED)
    for seed in range(1, 40):
        workload = make_workload(name, seed)
        assert workload == make_workload(name, seed)
        relaxed = _relaxed_configs(workload)
        for file, cfg in workload.configs.items():
            floor = RELAXED_MIN_D if file in relaxed else UNRELAXED_MIN_D
            assert cfg["d"] >= floor
            assert abs(cfg["d"] - nominal.configs[file]["d"]) <= JITTER
        assert all(v >= UNRELAXED_MIN_D for v in _sweep_range(workload))
    assert make_workload(name, 1) != make_workload(name, 2)


def test_default_seed_reproduces_the_paper_configs():
    configs = HERE.parent / "configs"
    paper = make_workload("paper_session", DEFAULT_SEED)
    for file in ("default.json", "topological_d2.json", "trivial_d25.json"):
        assert paper.configs[file] == json.loads((configs / file).read_text())
    assert _sweep_range(paper) == [1.5, 2.5]
