"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criterion 8 documents a model-level discrepancy: the intracell local
coupling J(d) is strictly monotonic on the swept interval for every
admissible dipole strength (see notes in the repository docs), so the
required interior maximum does not exist.  The test states the criterion
as written and is expected to fail.
"""

import json
import time

import numpy as np
import pytest

import rydphon as rp
from rydphon.cli import main
from rydphon.geometry import spec_to_dict

from conftest import paper_spec


def criterion(num, ok, description):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_derivative_oracles(rng):
    start = time.perf_counter()
    spec = paper_spec()
    centers = rp.trap_centers(spec).positions
    worst_grad = worst_hess = 0.0
    for _ in range(20):
        cfg = rp.Configuration(centers + 0.03 * rng.standard_normal(centers.shape), 0.0, False)
        worst_grad = max(worst_grad, float(np.abs(
            rp.gradient(cfg, spec) - rp.fd_gradient(cfg, spec, 1e-5)).max()))
        worst_hess = max(worst_hess, float(np.abs(
            rp.hessian(cfg, spec) - rp.fd_hessian(cfg, spec, 1e-4)).max()))
    elapsed = time.perf_counter() - start
    criterion(1, worst_grad < 1e-6 and worst_hess < 1e-5 and elapsed < 5.0,
              f"analytic vs central differences (grad {worst_grad:.1e}, "
              f"hess {worst_hess:.1e}, {elapsed:.1f}s)")


def test_criterion_02_representation_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n_cells in (2, 3, 4):
        for topology in (rp.Topology.TRIVIAL, rp.Topology.TOPOLOGICAL):
            for d in (1.5, 2.0, 2.5):
                spec = paper_spec(d=d, topology=topology, n_cells=n_cells)
                model = rp.local_phonon_model(spec)
                bogo = rp.bogoliubov_frequencies(model.h, model.g)
                ref = np.sqrt(np.linalg.eigvalsh(
                    rp.hessian(rp.trap_centers(spec), spec) / spec.mass))
                worst = max(worst, float(np.abs(bogo - ref).max()))
    elapsed = time.perf_counter() - start
    criterion(2, worst < 1e-8 and elapsed < 10.0,
              f"Bogoliubov equals normal modes (err {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_03_orthonormality_and_symmetry():
    worst_ortho = worst_sym = 0.0
    for d in (1.5, 2.0, 2.5):
        bands = rp.band_structure(paper_spec(d=d), q_points=256)
        qs = bands.q_grid
        for k in range(len(qs)):
            gram = bands.xi[k].conj().T @ bands.xi[k]
            worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(6)).max()))
            match = np.flatnonzero(np.isclose(qs, -qs[k], rtol=0.0, atol=1e-12))
            if match.size:
                worst_sym = max(worst_sym, float(
                    np.abs(bands.omega[k] - bands.omega[match[0]]).max()))
    criterion(3, worst_ortho < 1e-10 and worst_sym < 1e-10,
              f"orthonormality {worst_ortho:.1e}, omega(q)=omega(-q) {worst_sym:.1e}")


def test_criterion_04_edge_modes():
    topo = rp.finite_spectrum(paper_spec(topology=rp.Topology.TOPOLOGICAL))
    triv = rp.finite_spectrum(paper_spec(topology=rp.Topology.TRIVIAL))
    flagged = np.flatnonzero(topo.edge_flags)
    # the detached modes sit in the gap above band 1 and above band 5,
    # counting bands from zero as the figure description does; nearest
    # 1-based bulk bands are therefore 2 and 6
    nearest = sorted(topo.report.nearest_band[flagged].tolist())
    ok = len(flagged) == 3 and nearest == [2, 6, 6] and triv.n_edge_modes == 0
    criterion(4, ok,
              f"topological: {len(flagged)} edge modes adjacent to bands {nearest} "
              f"(= 1 and 5 zero-based); trivial: {triv.n_edge_modes}")


def test_criterion_05_crossings():
    pairs_15 = rp.band_diagnostics(rp.band_structure(paper_spec(d=1.5))).crossing_pairs
    pairs_25 = rp.band_diagnostics(rp.band_structure(paper_spec(d=2.5))).crossing_pairs
    ok = (5, 6) in pairs_15 and (5, 6) in pairs_25 and (4, 6) in pairs_25
    criterion(5, ok, f"crossing pairs d=1.5: {pairs_15}; d=2.5: {pairs_25}")


def test_criterion_06_concavity_transition():
    ds = np.round(np.arange(1.5, 1.9001, 0.05), 2)
    signs = {0: [], 5: []}
    for d in ds:
        diag = rp.band_diagnostics(rp.band_structure(paper_spec(d=float(d))))
        signs[0].append(float(diag.concavity[0]))
        signs[5].append(float(diag.concavity[5]))
    ok = True
    detail = []
    for band_idx, label in ((0, "band 1"), (5, "band 6")):
        seq = signs[band_idx]
        flips = [k for k in range(len(seq) - 1) if seq[k] != seq[k + 1]]
        inside = len(flips) == 1 and ds[flips[0]] >= 1.65 - 1e-9 and ds[flips[0] + 1] <= 1.85 + 1e-9
        ok = ok and inside
        detail.append(f"{label} flips at d in ({ds[flips[0]]}, {ds[flips[0]+1]})"
                      if len(flips) == 1 else f"{label} flips {len(flips)} times")
    criterion(6, ok, "; ".join(detail))


def test_criterion_07_band_flattening():
    bw = {d: rp.band_diagnostics(rp.band_structure(paper_spec(d=d))).bandwidth[0]
          for d in (1.5, 1.65, 1.85)}
    ok = bw[1.65] < bw[1.5] and bw[1.85] > bw[1.65]
    criterion(7, ok, f"band-1 widths {bw[1.5]:.4f} -> {bw[1.65]:.4f} -> {bw[1.85]:.4f}")


def test_criterion_08_intracell_coupling_maximum():
    ds = np.linspace(1.5, 2.5, 21)
    values = []
    for d in ds:
        model = rp.local_phonon_model(paper_spec(d=float(d)))
        values.append(model.J[(1, 0)])
    k = int(np.argmax(values))
    interior = 0 < k < len(ds) - 1 and 1.7 < ds[k] < 1.9
    criterion(8, interior,
              f"intracell J(d) maximum at d={ds[k]:.2f} "
              f"(required: interior maximum in (1.7, 1.9); J is monotonic "
              f"over the sweep for every dipole strength compatible with a "
              f"stable d=1.5 lattice - see decisions ledger)")


def test_criterion_09_band_count_classifier():
    # coupled_bands counts a band at 5 % of the peak coupling power
    count_25, count_15 = (len(rp.coupled_bands(rp.coupling_grid(rp.band_structure(
        paper_spec(d=d))))[0]) for d in (2.5, 1.5))
    ok = count_25 == 2 and count_15 >= 3
    criterion(9, ok, f"coupled bands at 5%: d=2.5 -> {count_25}, d=1.5 -> {count_15}")


def test_criterion_10_form_factor_limits():
    spec = paper_spec()
    err0 = abs(rp.rho0(0.0, spec.d) - 1.0)
    err_pole = abs(rp.rho0(2.0 * np.pi / spec.d, spec.d) - 0.5)
    grid = rp.coupling_grid(rp.band_structure(spec, q_points=64))
    k0 = int(np.argmin(np.abs(grid.q_grid)))
    m_at_zero = float(grid.m_abs[k0].max())
    ok = err0 < 1e-10 and err_pole < 1e-8 and m_at_zero == 0.0
    criterion(10, ok,
              f"|rho0(0)-1|={err0:.1e}, |rho0(2pi/d)-1/2|={err_pole:.1e}, |M(0)|={m_at_zero}")


def test_criterion_11_export_determinism(tmp_path):
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(spec_to_dict(paper_spec())))
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (first, second):
        assert main(["export", str(cfg_path), "--t", "1.0", "--U", "4.0",
                     "--gcp", "0.5", "--q-points", "128", "--out", str(out)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    round_trip = rp.deserialize(first) == rp.deserialize(second)
    criterion(11, identical and round_trip,
              f"byte-identical exports: {identical}; round-trip equality: {round_trip}")


def test_criterion_12_runtime_budget(tmp_path):
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(spec_to_dict(paper_spec())))
    start = time.perf_counter()
    assert main(["check", str(cfg_path)]) == 0
    assert main(["sweep", str(cfg_path), "--param", "d", "--from", "1.5", "--to", "2.5",
                 "--steps", "21", "--out", str(tmp_path / "sweep.csv")]) == 0
    for d in np.arange(1.5, 1.9001, 0.05):
        rp.band_diagnostics(rp.band_structure(paper_spec(d=float(d))))
    elapsed = time.perf_counter() - start
    criterion(12, elapsed < 120.0, f"check suite plus sweeps in {elapsed:.1f}s")
