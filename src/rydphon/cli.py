"""Command-line front end.

Subcommands: bands, spectrum, local, coupling, sweep, export, check.
Exit codes: 0 success, 1 computation error, 2 configuration or
argument error, 3 check failure.  All outputs are deterministic
functions of the configuration file and the arguments; the sweep
evaluates its points one after another and writes them in sweep order.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .atom_phonon import (
    COUPLING_CSV_HEADER,
    coupled_band_count,
    coupled_bands,
    coupling_csv_rows,
    coupling_grid,
    rho0,
)
from .bands import (
    BAND_CSV_HEADER,
    DEFAULT_CUTOFF_CELLS,
    DEFAULT_Q_POINTS,
    SPECTRUM_CSV_HEADER,
    band_csv_rows,
    band_diagnostics,
    band_structure,
    finite_spectrum,
    spectrum_csv_rows,
)
from .errors import ConfigError, RydphonError
from .geometry import ChainSpec, Configuration, load_chain_spec, trap_centers
from .local_phonons import (
    G_CSV_HEADER,
    J_CSV_HEADER,
    bogoliubov_frequencies,
    g_csv_rows,
    j_csv_rows,
    local_phonon_model,
)
from .model_export import CONVENTIONS, assemble, serialize, spec_digest
from .potential import fd_gradient, fd_hessian, gradient, hessian, total_energy

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
EXIT_CHECK = 3

_CONVENTIONS_COMMENT = "conventions: " + "; ".join(f"{k}={v}" for k, v in CONVENTIONS.items())


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path, spec: ChainSpec, header: str, rows, extra_comments=()):
    lines = [f"# rydphon {__version__}", f"# config_hash={spec_digest(spec)}"]
    lines.append(f"# {_CONVENTIONS_COMMENT}")
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _crossing_report(diag) -> list:
    return [
        "crossing bands ({a},{b}) at q={q}".format(a=a, b=b, q=_fmt(q))
        for a, b, q in diag.crossings
    ]


def cmd_bands(args) -> int:
    spec = load_chain_spec(args.config)
    bands = band_structure(spec, q_points=args.q_points,
                           cutoff_cells=args.cutoff_cells, relax=args.relax)
    diag = band_diagnostics(bands)
    report = _crossing_report(diag)
    _write_csv(args.out, spec, BAND_CSV_HEADER, band_csv_rows(bands), report)
    for line in report:
        print(line)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec = load_chain_spec(args.config)
    relax = args.relax and not args.no_relax
    fs = finite_spectrum(spec, relax=relax)
    _write_csv(args.out, spec, SPECTRUM_CSV_HEADER, spectrum_csv_rows(fs),
               [f"relaxed={relax}", f"edge_modes={fs.n_edge_modes}"])
    print(f"modes={len(fs.frequencies)} edge_modes={fs.n_edge_modes}")
    return EXIT_OK


def cmd_local(args) -> int:
    spec = load_chain_spec(args.config)
    model = local_phonon_model(spec, relax=args.relax)
    _write_csv(args.out_g, spec, G_CSV_HEADER, g_csv_rows(model.g))
    _write_csv(args.out_j, spec, J_CSV_HEADER, j_csv_rows(model.J))
    return EXIT_OK


def cmd_coupling(args) -> int:
    spec = load_chain_spec(args.config)
    grid = coupling_grid(spec, q_points=args.q_points, relax=args.relax)
    count, q_star, _ = coupled_band_count(grid)
    _write_csv(args.out, spec, COUPLING_CSV_HEADER, coupling_csv_rows(grid),
               [f"coupled_bands={count} at q*={_fmt(q_star)}"])
    print(f"coupled_bands={count} bands={coupled_bands(grid)}")
    return EXIT_OK


SWEEP_CSV_HEADER = (
    "value,"
    + ",".join(f"bandwidth_{j}" for j in range(1, 7)) + ","
    + ",".join(f"concavity_{j}" for j in range(1, 7))
    + ",n_crossings,crossing_pairs,j_intracell,j_intercell,"
    + ",".join(f"max_m_{j}" for j in range(1, 7))
    + ",coupled_bands"
)

_SWEPT_FIELDS = ("d", "delta", "a", "theta", "phi", "v_dd")


def _sweep_point(spec: ChainSpec, q_points: int):
    bands = band_structure(spec, q_points=q_points)
    diag = band_diagnostics(bands)
    model = local_phonon_model(spec)
    grid = coupling_grid(spec, q_points=q_points, bands=bands)
    pairs = ";".join(f"{a}-{b}" for a, b in diag.crossing_pairs)
    row = list(diag.bandwidth)
    row.extend(int(c) for c in diag.concavity)
    row.append(len(diag.crossings))
    row.append(pairs or "-")
    row.append(model.J.get((1, 0), 0.0))
    row.append(model.J.get((1, 1), 0.0))
    row.extend(grid.m_abs.max(axis=0))
    row.append(";".join(str(b) for b in coupled_bands(grid)) or "-")
    return row


def cmd_sweep(args) -> int:
    spec = load_chain_spec(args.config)
    if args.param not in _SWEPT_FIELDS:
        raise ConfigError(f"cannot sweep parameter {args.param!r}; choose from {_SWEPT_FIELDS}")
    if args.steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    values = np.linspace(args.from_, args.to, args.steps)
    rows = []
    for v in map(float, values):
        changes = {args.param: v}
        if args.param == "d" and spec.a == 2.0 * spec.d:
            changes["a"] = 2.0 * v  # keep the a = 2 d convention while sweeping d
        rows.append([v, *_sweep_point(spec.with_(**changes), args.q_points)])
    _write_csv(args.out, spec, SWEEP_CSV_HEADER, rows,
               [f"param={args.param} from={_fmt(args.from_)} to={_fmt(args.to)} steps={args.steps}"])
    return EXIT_OK


def cmd_export(args) -> int:
    spec = load_chain_spec(args.config)
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

    grid = coupling_grid(spec, bands=bands, q_points=len(bands.q_grid))
    k0 = int(np.argmin(np.abs(bands.q_grid)))
    checks.append(("coupling-vanishes-at-q0", float(grid.m_abs[k0].max()), 0.0))

    energy = total_energy(centers, spec)
    checks.append(("energy-report-consistency",
                   abs(energy.total - energy.trap_part - energy.dipole_part), 1e-12))
    return checks


def cmd_check(args) -> int:
    spec = load_chain_spec(args.config)
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


def _add_common(p, q_points=True):
    p.add_argument("config", help="chain configuration file (JSON)")
    if q_points:
        p.add_argument("--q-points", type=_int_at_least(2), default=DEFAULT_Q_POINTS, dest="q_points")
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
    p.add_argument("--no-relax", action="store_true",
                   help="force trap-center geometry (the default)")
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
    _add_common(p)
    p.add_argument("--param", default="d")
    p.add_argument("--from", type=float, required=True, dest="from_")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="assemble and write the model file")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--gcp", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("check", help="run the numerical self-checks")
    _add_common(p, q_points=False)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RydphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
