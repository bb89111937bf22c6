"""Command-line front end.

Subcommands: bands, spectrum, local, coupling, sweep, export, check.
Exit codes: 0 success, 1 computation error, 2 configuration or
argument error, 3 check failure.  All outputs are deterministic
functions of the configuration file and the arguments; the sweep
evaluates its points one after another and writes them in sweep order.

Every CSV goes through one writer, ``_write_table``: each subcommand
hands it named columns of equal length, the header is their names, and
the rows are formatted and written a fixed number at a time, to the file
or to stdout, so no output's whole text is held in memory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .atom_phonon import coupled_band_count, coupled_bands, coupling_grid, rho0
from .bands import (
    DEFAULT_CUTOFF_CELLS,
    DEFAULT_Q_POINTS,
    band_diagnostics,
    band_structure,
    finite_spectrum,
)
from .errors import ConfigError, RydphonError
from .geometry import ChainSpec, Configuration, load_chain_spec, trap_centers
from .local_phonons import bogoliubov_frequencies, local_phonon_model
from .model_export import CONVENTIONS, _open_output, assemble, serialize, spec_digest
from .potential import fd_gradient, fd_hessian, gradient, hessian, total_energy

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
EXIT_CHECK = 3

_CONVENTIONS_COMMENT = "conventions: " + "; ".join(f"{k}={v}" for k, v in CONVENTIONS.items())
_CHUNK_ROWS = 4096


def _write_table(path, spec: ChainSpec, columns: dict, comments=()):
    """Write a CSV table to ``path``, or to stdout when it is None.

    ``columns`` maps each column name, in order, to a 1-D array or list;
    all have the same length.  Comment lines with the tool version, configuration
    hash, conventions and ``comments`` come first, then the names.  A cell
    is ``str`` of the array's ``.tolist()`` entry, which for a float is its
    shortest round-trip repr.
    """
    cols = [np.asarray(c) for c in columns.values()]
    head = [f"rydphon {__version__}", f"config_hash={spec_digest(spec)}", _CONVENTIONS_COMMENT,
            *comments]
    with _open_output(path) as fh:
        fh.write("".join(f"# {line}\n" for line in head) + ",".join(columns) + "\n")
        for start in range(0, len(cols[0]), _CHUNK_ROWS):
            cells = [map(str, c[start:start + _CHUNK_ROWS].tolist()) for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _q_band_columns(q_grid: np.ndarray) -> dict:
    """The (q, band) key columns of a table with one row per q point and band."""
    return {"q": np.repeat(q_grid, 6), "band": np.tile(np.arange(1, 7), len(q_grid))}


def cmd_bands(spec: ChainSpec, args) -> int:
    bands = band_structure(spec, q_points=args.q_points,
                           cutoff_cells=args.cutoff_cells, relax=args.relax)
    report = [f"crossing bands ({a},{b}) at q={q!r}" for a, b, q in band_diagnostics(bands).crossings]
    columns = {**_q_band_columns(bands.q_grid), "omega": bands.omega.ravel()}
    components = [atom + axis for atom in "ab" for axis in "xyz"]
    for c, name in enumerate(components):   # xi is indexed (q, component, band)
        columns[f"re_xi_{name}"] = bands.xi[:, c].real.ravel()
        columns[f"im_xi_{name}"] = bands.xi[:, c].imag.ravel()
    _write_table(args.out, spec, columns, report)
    for line in report:
        print(line)
    return EXIT_OK


def cmd_spectrum(spec: ChainSpec, args) -> int:
    fs = finite_spectrum(spec, relax=args.relax)
    rep = fs.report
    _write_table(args.out, spec, {
        "mode": np.arange(len(fs.frequencies)), "omega": fs.frequencies, "ipr": rep.ipr,
        "end_decay": rep.end_decay, "edge_flag": rep.edge_flags.astype(int),
        "nearest_band": rep.nearest_band,
    }, [f"relaxed={args.relax}", f"edge_modes={fs.n_edge_modes}"])
    print(f"modes={len(fs.frequencies)} edge_modes={fs.n_edge_modes}")
    return EXIT_OK


def cmd_local(spec: ChainSpec, args) -> int:
    model = local_phonon_model(spec, relax=args.relax)
    g = model.g.transpose(0, 2, 1, 3)   # rows ordered by (n, m, i, j)
    n, m, i, j = np.indices(g.shape).reshape(4, -1)
    axes = np.array(["x", "y", "z"])
    _write_table(args.out_g, spec, {"n": n, "m": m, "i": axes[i], "j": axes[j], "value": g.ravel()})
    keys = sorted(model.J)
    _write_table(args.out_j, spec, {"separation": [s for s, _ in keys],
                                    "bond_class": [c for _, c in keys],
                                    "value": [model.J[k] for k in keys]})
    return EXIT_OK


def cmd_coupling(spec: ChainSpec, args) -> int:
    grid = coupling_grid(band_structure(spec, q_points=args.q_points, relax=args.relax))
    count, q_star, _ = coupled_band_count(grid)
    m = grid.m_complex
    _write_table(args.out, spec, {
        **_q_band_columns(grid.q_grid), "re_m": m.real.ravel(), "im_m": m.imag.ravel(),
        # |M| as a scalar complex abs() gives it; np.abs (grid.m_abs) can differ in the last bit
        "abs_m": np.hypot(m.real, m.imag).ravel(),
        "rho0": np.repeat(grid.rho0_values, 6), "omega": grid.omega.ravel(),
    }, [f"coupled_bands={count} at q*={q_star!r}"])
    print(f"coupled_bands={count} bands={coupled_bands(grid)}")
    return EXIT_OK


_SWEPT_FIELDS = ("d", "delta", "a", "theta", "phi", "v_dd")


def _sweep_point(spec: ChainSpec, q_points: int) -> dict:
    """One sweep row: column name -> value."""
    bands = band_structure(spec, q_points=q_points)
    diag = band_diagnostics(bands)
    model = local_phonon_model(spec)
    grid = coupling_grid(bands)
    return {
        **{f"bandwidth_{j}": w for j, w in enumerate(diag.bandwidth, 1)},
        **{f"concavity_{j}": int(c) for j, c in enumerate(diag.concavity, 1)},
        "n_crossings": len(diag.crossings),
        "crossing_pairs": ";".join(f"{a}-{b}" for a, b in diag.crossing_pairs) or "-",
        "j_intracell": model.J.get((1, 0), 0.0),
        "j_intercell": model.J.get((1, 1), 0.0),
        **{f"max_m_{j}": m for j, m in enumerate(grid.m_abs.max(axis=0), 1)},
        "coupled_bands": ";".join(str(b) for b in coupled_bands(grid)) or "-",
    }


def cmd_sweep(spec: ChainSpec, args) -> int:
    if args.param not in _SWEPT_FIELDS:
        raise ConfigError(f"cannot sweep parameter {args.param!r}; choose from {_SWEPT_FIELDS}")
    if args.steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    points = []
    for v in map(float, np.linspace(args.from_, args.to, args.steps)):
        changes = {args.param: v}
        if args.param == "d" and spec.a == 2.0 * spec.d:
            changes["a"] = 2.0 * v  # keep the a = 2 d convention while sweeping d
        points.append({"value": v, **_sweep_point(spec.with_(**changes), args.q_points)})
    _write_table(args.out, spec, {name: [p[name] for p in points] for name in points[0]},
                 [f"param={args.param} from={args.from_!r} to={args.to!r} steps={args.steps}"])
    return EXIT_OK


def cmd_export(spec: ChainSpec, args) -> int:
    model = assemble(spec, t=args.t, U=args.U, g_cp=args.gcp,
                     q_points=args.q_points, relax=args.relax)
    serialize(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _run_checks(spec: ChainSpec):
    rng = np.random.default_rng(20240801)
    centers = trap_centers(spec)

    def perturbed():
        return Configuration(
            centers.positions + 0.03 * rng.standard_normal(centers.positions.shape)
        )

    checks = []

    grad_err = 0.0
    hess_err = 0.0
    for _ in range(3):
        cfg = perturbed()
        grad_err = max(grad_err, float(np.abs(gradient(cfg, spec) - fd_gradient(cfg, spec, 1e-5)).max()))
        hess_err = max(hess_err, float(np.abs(hessian(cfg, spec) - fd_hessian(cfg, spec, 1e-4)).max()))
    checks.append(("gradient-vs-central-differences", grad_err, 1e-6))
    checks.append(("hessian-vs-central-differences", hess_err, 1e-5))

    cfg = perturbed()
    hess = hessian(cfg, spec)
    checks.append(("hessian-symmetry", float(np.abs(hess - hess.T).max()), 1e-12))

    bands = band_structure(spec)
    gram = bands.xi.conj().transpose(0, 2, 1) @ bands.xi
    checks.append(("eigenvector-orthonormality", float(np.abs(gram - np.eye(6)).max()), 1e-10))

    # pair each q with the grid point nearest to -q (the grid is ascending)
    qs = bands.q_grid
    right = np.clip(np.searchsorted(qs, -qs), 1, len(qs) - 1)
    mirror = np.where(np.abs(qs[right - 1] + qs) <= np.abs(qs[right] + qs), right - 1, right)
    paired = np.abs(qs[mirror] + qs) <= 1e-12
    sym = np.abs(bands.omega[paired] - bands.omega[mirror[paired]]).max(initial=0.0)
    checks.append(("omega-even-in-q", float(sym), 1e-10))

    small = spec.with_(n_cells=min(spec.n_cells, 4))
    model = local_phonon_model(small)
    bogo = bogoliubov_frequencies(model.h, model.g)
    ref = np.sqrt(np.linalg.eigvalsh(hessian(trap_centers(small), small) / small.mass))
    checks.append(("bogoliubov-vs-normal-modes", float(np.abs(bogo - ref).max()), 1e-8))

    checks.append(("rho0-at-zero", abs(rho0(0.0, spec.d) - 1.0), 1e-10))
    checks.append(("rho0-at-pole", abs(rho0(2.0 * np.pi / spec.d, spec.d) - 0.5), 1e-8))

    grid = coupling_grid(bands)
    k0 = int(np.argmin(np.abs(bands.q_grid)))
    checks.append(("coupling-vanishes-at-q0", float(grid.m_abs[k0].max()), 0.0))

    energy = total_energy(centers, spec)
    checks.append(("energy-report-consistency",
                   abs(energy.total - energy.trap_part - energy.dipole_part), 1e-12))
    return checks


def cmd_check(spec: ChainSpec, args) -> int:
    checks = _run_checks(spec)
    failed = 0
    for name, value, tol in checks:
        ok = value <= tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.0e})")
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_CHECK
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type for an integer >= low; argparse exits with status 2 otherwise."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


def _finite_float(low: float = -np.inf):
    """argparse type for a finite number >= low; argparse exits with status 2 otherwise."""
    def number(text: str) -> float:
        value = float(text)
        if not (np.isfinite(value) and value >= low):
            bound = f" >= {low:g}" if np.isfinite(low) else ""
            raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text}")
        return value
    return number


def _add_common(p, q_points=True, relax=True):
    p.add_argument("config", help="chain configuration file (JSON)")
    if q_points:
        p.add_argument("--q-points", type=_int_at_least(2), default=DEFAULT_Q_POINTS, dest="q_points")
    if relax:
        p.add_argument("--relax", action="store_true",
                       help="use relaxed equilibrium positions instead of trap centers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rydphon",
                                     description="Phonon models of dipolar zig-zag tweezer chains")
    parser.add_argument("--version", action="version", version=f"rydphon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="bulk phonon band structure CSV")
    _add_common(p)
    p.add_argument("--cutoff-cells", type=_int_at_least(1), default=DEFAULT_CUTOFF_CELLS, dest="cutoff_cells")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("spectrum", help="finite-chain spectrum CSV with edge flags")
    _add_common(p, q_points=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("local", help="local-phonon coupling matrices g and J")
    _add_common(p, q_points=False)
    p.add_argument("--out-g", default=None, dest="out_g")
    p.add_argument("--out-j", default=None, dest="out_j")
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("coupling", help="atom-phonon coupling table CSV")
    _add_common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("sweep", help="parameter sweep of band/coupling diagnostics")
    _add_common(p, relax=False)
    p.add_argument("--param", default="d")
    p.add_argument("--from", type=float, required=True, dest="from_")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="assemble and write the model file")
    _add_common(p)
    p.add_argument("--t", type=_finite_float(), required=True)
    p.add_argument("--U", type=_finite_float(), required=True)
    p.add_argument("--gcp", type=_finite_float(0.0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("check", help="run the numerical self-checks")
    _add_common(p, q_points=False, relax=False)
    p.set_defaults(func=cmd_check)

    return parser


def _check_outputs(args):
    """Reject an output path whose directory is missing, or that is a directory,
    before anything is computed."""
    for path in filter(None, (getattr(args, name, None) for name in ("out", "out_g", "out_j"))):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: its directory does not exist")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        with _open_output(None):  # the tables and summary lines that go to stdout
            return args.func(load_chain_spec(args.config), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RydphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
