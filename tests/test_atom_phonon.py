import numpy as np
import pytest

from rydphon import (
    BandStructure,
    ChainSpec,
    CouplingGrid,
    ZeroFrequencyError,
    band_diagnostics,
    band_structure,
    coupled_bands,
    coupling_grid,
    physical_coupling,
    rho0,
)
from rydphon.geometry import base_offsets

from conftest import paper_spec


def test_rho0_normalization_at_zero():
    assert abs(rho0(0.0, 2.0) - 1.0) < 1e-14


def test_rho0_at_pi():
    assert abs(rho0(np.pi / 2.0, 2.0) - 8.0 / (3.0 * np.pi)) < 1e-14


def test_rho0_at_removable_pole():
    for d in (1.5, 2.0, 2.5):
        assert abs(rho0(2.0 * np.pi / d, d) - 0.5) < 1e-8


def test_rho0_continuous_across_branch():
    d = 2.0
    x = 2.0 * np.pi - 1.001e-3
    x2 = 2.0 * np.pi - 0.999e-3
    assert abs(rho0(x / d, d) - rho0(x2 / d, d)) < 1e-6


def test_rho0_even_and_bounded():
    d = 1.7
    qs = np.linspace(0.0, 2.0 * np.pi / d, 500)
    vals = rho0(qs, d)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert np.allclose(vals, rho0(-qs, d), atol=1e-15)


def test_coupling_zero_at_q0():
    grid = coupling_grid(band_structure(paper_spec()))
    k0 = np.argmin(np.abs(grid.q_grid))
    assert grid.q_grid[k0] == 0.0
    assert np.abs(grid.m_complex[k0]).max() == 0.0


def test_transverse_bands_do_not_couple():
    bands = band_structure(paper_spec())
    grid = coupling_grid(bands)
    z_amplitude = np.abs(bands.xi[:, [2, 5], :]).sum(axis=1)
    transverse = z_amplitude < 1e-10
    assert transverse.any()
    assert np.all(grid.m_abs[transverse] < 1e-9)
    # the pure-y band never couples beyond rounding dust
    assert np.abs(grid.m_abs[:, 2]).max() < 1e-13


def test_coupling_symmetric_in_q():
    grid = coupling_grid(band_structure(paper_spec()))
    qs = grid.q_grid
    for k in range(len(qs)):
        match = np.flatnonzero(np.isclose(qs, -qs[k], rtol=0.0, atol=1e-12))
        if match.size:
            assert np.abs(grid.m_abs[k] - grid.m_abs[match[0]]).max() < 1e-12


def test_modulus_convention_sign_invariance():
    spec = paper_spec()
    bands = band_structure(spec, q_points=32)
    xi_flipped = bands.xi.copy()
    xi_flipped[:, 2, :] *= -1.0
    xi_flipped[:, 5, :] *= -1.0
    flipped = BandStructure(
        q_grid=bands.q_grid, omega=bands.omega, xi=xi_flipped,
        spec=spec, relaxed=bands.relaxed,
    )
    m = coupling_grid(bands).m_complex
    m_flipped = coupling_grid(flipped).m_complex
    assert np.allclose(m, m_flipped, atol=1e-15)


def test_flat_band_closed_form():
    # without dipoles the polarization vectors are the Cartesian basis and
    # the z bands are 3 (A) and 6 (B): M = q rho0 / sqrt(nu) * e^{-iq rho_z}
    spec = paper_spec(v_dd=0.0)
    grid = coupling_grid(band_structure(spec, q_points=64))
    rho_z = base_offsets(spec)[:, 2]
    for k, q in enumerate(grid.q_grid):
        expected_a = q * rho0(q, spec.d) * np.exp(-1j * q * rho_z[0])
        expected_b = q * rho0(q, spec.d) * np.exp(-1j * q * rho_z[1])
        assert abs(grid.m_complex[k, 2] - expected_a) < 1e-12
        assert abs(grid.m_complex[k, 5] - expected_b) < 1e-12
        others = [0, 1, 3, 4]
        assert np.abs(grid.m_complex[k, others]).max() < 1e-15


def test_trap_frequency_scaling_of_flat_band_coupling():
    g1 = coupling_grid(band_structure(paper_spec(v_dd=0.0), q_points=16))
    g2 = coupling_grid(band_structure(paper_spec(v_dd=0.0, nu=(2.0, 2.0, 2.0)), q_points=16))
    assert np.allclose(g2.m_abs, g1.m_abs / np.sqrt(2.0), atol=1e-14)


def test_two_band_regime_at_large_spacing():
    grid = coupling_grid(band_structure(paper_spec(d=2.5)))
    labels, q_star, fractions = coupled_bands(grid)
    assert labels == [1, 6]
    assert abs(q_star) == pytest.approx(np.pi / (2 * 2.5), abs=1e-12)
    assert fractions.max() == 1.0
    assert (fractions[[1, 2, 3, 4]] < 0.05).all()


def test_multi_band_regime_at_small_spacing():
    labels, _, _ = coupled_bands(coupling_grid(band_structure(paper_spec(d=1.5))))
    assert len(labels) >= 3


def test_no_coupled_bands_where_the_coupling_vanishes():
    qs = np.array([-0.5, 0.0, 0.5])
    zero = np.zeros((3, 6))
    grid = CouplingGrid(q_grid=qs, m_complex=zero.astype(complex), m_abs=zero,
                        rho0_values=np.ones(3), omega=np.ones((3, 6)), spec=paper_spec())
    labels, q_star, fractions = coupled_bands(grid)
    assert labels == [] and q_star == -0.5
    assert np.array_equal(fractions, np.zeros(6))


def test_coupling_continuity_between_grids():
    spec = paper_spec()
    bands_fine = band_structure(spec, q_points=512)
    coarse = coupling_grid(band_structure(spec, q_points=256))
    fine = coupling_grid(bands_fine)
    # the coarse grid is a subset of the fine grid: identical values there
    assert np.abs(fine.m_abs[1::2] - coarse.m_abs).max() == 0.0
    gaps = np.diff(bands_fine.omega, axis=1).min(axis=1)
    touchy = bands_fine.q_grid[gaps < 5e-3]
    err = 0.0
    for j in range(6):
        interp = np.interp(fine.q_grid, coarse.q_grid, coarse.m_abs[:, j])
        for k, q in enumerate(fine.q_grid):
            if touchy.size and np.abs(touchy - q).min() < 0.08:
                continue  # band crossings / degenerate touches move between grids
            err = max(err, abs(interp[k] - fine.m_abs[k, j]))
    assert err < 1e-3


def test_physical_coupling_scaler():
    grid = coupling_grid(band_structure(paper_spec(), q_points=16))
    assert np.abs(physical_coupling(grid, g_cp=0.0)).max() == 0.0
    phys = physical_coupling(grid, g_cp=2.0)
    assert np.allclose(phys, 2.0 / np.sqrt(2.0) * grid.m_complex, atol=1e-15)


def test_zero_frequency_rejected():
    spec = paper_spec(v_dd=0.0)
    bands = band_structure(spec, q_points=8)
    broken = BandStructure(
        q_grid=bands.q_grid, omega=np.zeros_like(bands.omega), xi=bands.xi,
        spec=spec, relaxed=False,
    )
    with pytest.raises(ZeroFrequencyError):
        coupling_grid(broken)


def _coupling_by_loop(bands, spec, rho_z):
    """Per-q row reference for coupling_grid's m_complex."""
    m = np.zeros((len(bands.q_grid), 6), dtype=complex)
    for k, q in enumerate(bands.q_grid):
        if np.any(bands.omega[k] <= 0.0):
            raise ZeroFrequencyError(f"zero phonon frequency at q = {q:g}")
        phases = np.exp(-1j * q * np.asarray(rho_z))
        structure = phases @ np.abs(bands.xi[k][[2, 5], :])
        m[k] = q * rho0(q, spec.d) / np.sqrt(bands.omega[k]) * structure
    return m


@pytest.mark.parametrize("kwargs,q_points,geometry", [
    ({"d": 2.0}, 64, "trap"),
    ({"d": 2.5}, 255, "relaxed"),
    ({"d": 1.5, "topology": "topological"}, 97, "trap"),
    ({"d": 2.0, "v_dd": 0.0}, 33, "trap"),
    ({"d": 1.8, "theta": 0.0, "phi": 0.3}, 128, "trap"),
])
def test_coupling_grid_matches_per_row_loop(kwargs, q_points, geometry):
    # geometry is that of the bands; the phases use the trap-center rho_z either way
    spec = paper_spec(**kwargs)
    bands = band_structure(spec, q_points=q_points, relax=geometry == "relaxed")
    grid = coupling_grid(bands)
    expected = _coupling_by_loop(bands, spec, base_offsets(spec)[:, 2])
    assert grid.m_complex.tobytes() == expected.tobytes()


def test_zero_frequency_message_names_first_bad_q():
    spec = paper_spec()
    bands = band_structure(spec, q_points=16)
    omega = bands.omega.copy()
    omega[[5, 9], 3] = 0.0
    broken = BandStructure(
        q_grid=bands.q_grid, omega=omega, xi=bands.xi,
        spec=spec, relaxed=False,
    )
    with pytest.raises(ZeroFrequencyError) as expected:
        _coupling_by_loop(broken, spec, base_offsets(spec)[:, 2])
    with pytest.raises(ZeroFrequencyError) as raised:
        coupling_grid(broken)
    assert str(raised.value) == str(expected.value)
    assert f"{bands.q_grid[5]:g}" in str(raised.value)
