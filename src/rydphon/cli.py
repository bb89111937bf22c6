"""Command-line front end.

Subcommands: bands, spectrum, local, coupling, sweep, export, check.
Exit codes: 0 success, 1 computation error, 2 configuration or
argument error, 3 check failure.  All outputs are deterministic
functions of the configuration file and the arguments; the sweep
evaluates its points one after another and writes them in sweep order.
A command on a chain of at most 16 cells runs numpy's BLAS on one thread
(``_SERIAL_BLAS_CELLS``), as its matrices are too small for a second one to
pay.  On a longer chain, each threaded factorization of its 3N x 3N Hessian
is followed by a join of the idle OpenBLAS workers, so that they do not
spin through the single-threaded work after it; the next threaded call
starts them again, at the same count.  ``_blas.command`` does both, for the
length of one command.

Every CSV goes through one writer, ``_write_table``: each subcommand
hands it named columns of one shape, the header is their names, and the
rows are formatted and written about a fixed number at a time, to the file
or to stdout, so no output's whole text is held in memory.  ``local``
hands its (n, m, i, j) keys and the transposed g as views of g's shape,
so its 9N^2-row table adds no full-size array to g and h.  Float cells
are spelled by the one formatter that also writes the model file,
``model_export._float_text``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, _blas
from .atom_phonon import coupled_bands, coupling_grid
from .bands import DEFAULT_Q_POINTS, band_diagnostics, band_structure, finite_spectrum
from .errors import ConfigError, RydphonError
from .geometry import ChainSpec, load_chain_spec, trap_centers
from .local_phonons import bogoliubov_frequencies, local_phonon_model
from .model_export import (
    CONVENTIONS,
    _float_text,
    _open_output,
    _output_mode,
    assemble,
    serialize,
    spec_digest,
)
from .potential import _energy, _gradient, _hessian, _pairs, hessian

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
EXIT_CHECK = 3

# A command on a chain of at most this many cells (96 coordinates) runs BLAS on
# one thread; up to it, the outputs are the bytes that two threads give.
_SERIAL_BLAS_CELLS = 16

_CONVENTIONS_COMMENT = "conventions: " + "; ".join(f"{k}={v}" for k, v in CONVENTIONS.items())
_CHUNK_ROWS = 4096


def _write_table(path, spec: ChainSpec, columns: dict, comments=()):
    """Write a CSV table to ``path``, or to stdout when it is None.

    ``columns`` maps each column name, in order, to a list or an array whose
    C-order flattening is the column; all have one shape, else ValueError
    names them before anything is written.  An N-D column may be a view (a
    transpose, a ``np.broadcast_to`` of its keys), so a table of 9N^2 rows
    needs no full-size index or value copy.  Comment lines with the tool
    version, configuration hash, conventions and ``comments`` come first,
    then the names.  Rows go out in chunks of whole slabs along the first
    axis: as many slabs as fit in ``_CHUNK_ROWS`` rows, and at least one, so
    a 1-D column is written ``_CHUNK_ROWS`` rows at a time; each chunk is
    ``c[lo:hi].ravel()``.  A float cell is its shortest round-trip ``repr``:
    the chunk's ``_float_text`` with comma separators, split at the commas.
    Any other cell (int, bool, text) is ``str`` of the array's ``.tolist()``
    entry, from ``_str_tokens``, chunk by chunk.
    """
    cols = [np.asarray(c) for c in columns.values()]
    shapes = [c.shape for c in cols]
    if any(shape != shapes[0] for shape in shapes):
        raise ValueError("table columns differ in shape: "
                         + ", ".join(f"{name} {shape}" for name, shape in zip(columns, shapes)))
    slab = math.prod(shapes[0][1:])                # rows per index of the first axis
    step = max(1, _CHUNK_ROWS // max(slab, 1))     # slabs per chunk
    head = [f"rydphon {__version__}", f"config_hash={spec_digest(spec)}", _CONVENTIONS_COMMENT,
            *comments]
    with _open_output(path) as fh:
        fh.write("".join(f"# {line}\n" for line in head) + ",".join(columns) + "\n")
        for lo in range(0, len(cols[0]) if slab else 0, step):
            chunks = [c[lo:lo + step].ravel() for c in cols]
            cells = [_float_text(c, ",").split(",") if c.dtype.kind == "f" else _str_tokens(c)
                     for c in chunks]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _str_tokens(values: np.ndarray) -> list:
    """``str`` of every entry of ``values.tolist()``, without a sort.

    A text column is its own list, as ``str`` of a ``str`` is the string.
    An integer column whose range [min, max] is no wider than it is long
    (every integer column the subcommands write: bands, modes, atoms,
    separations, flags, concavities) indexes a table of ``str`` over that
    range, so each value is formatted once.  Any other column (bools, wide
    ranges) formats entry by entry.
    """
    if values.dtype.kind == "U":
        return values.tolist()
    if values.dtype.kind in "iu" and values.size:
        low, high = values.min(), values.max()
        if int(high) - int(low) < values.size:
            table = np.array([str(v) for v in range(int(low), int(high) + 1)], dtype=object)
            return table[values - low].tolist()
    return [str(v) for v in values.tolist()]


def _q_band_columns(q_grid: np.ndarray) -> dict:
    """The (q, band) key columns of a table with one row per q point and band."""
    return {"q": np.repeat(q_grid, 6), "band": np.tile(np.arange(1, 7), len(q_grid))}


def cmd_bands(spec: ChainSpec, args) -> int:
    bands = band_structure(spec, q_points=args.q_points, relax=args.relax)
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
    atoms = np.arange(g.shape[0])
    axes = np.array(["x", "y", "z"])
    _write_table(args.out_g, spec, {   # the keys as views of g's shape, never copied whole
        "n": np.broadcast_to(atoms[:, None, None, None], g.shape),
        "m": np.broadcast_to(atoms[:, None, None], g.shape),
        "i": np.broadcast_to(axes[:, None], g.shape),
        "j": np.broadcast_to(axes, g.shape),
        "value": g,
    })
    keys = sorted(model.J)
    _write_table(args.out_j, spec, {"separation": [s for s, _ in keys],
                                    "bond_class": [c for _, c in keys],
                                    "value": [model.J[k] for k in keys]})
    return EXIT_OK


def cmd_coupling(spec: ChainSpec, args) -> int:
    grid = coupling_grid(band_structure(spec, q_points=args.q_points, relax=args.relax))
    labels, q_star, _ = coupled_bands(grid)
    m = grid.m_complex
    _write_table(args.out, spec, {
        **_q_band_columns(grid.q_grid), "re_m": m.real.ravel(), "im_m": m.imag.ravel(),
        # |M| as a scalar complex abs() gives it; np.abs (grid.m_abs) can differ in the last bit
        "abs_m": np.hypot(m.real, m.imag).ravel(),
        "rho0": np.repeat(grid.rho0_values, 6), "omega": grid.omega.ravel(),
    }, [f"coupled_bands={len(labels)} at q*={q_star!r}"])
    print(f"coupled_bands={len(labels)} bands={labels}")
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
        "coupled_bands": ";".join(str(b) for b in coupled_bands(grid)[0]) or "-",
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


_PROBES = 8           # check's random unit directions per perturbed configuration
_PROBE_STEP = 1e-6    # their central-difference step, times max(1, ||x||_inf)
_PROBE_TOL = 1e-7     # the bound on both probes' relative errors
_PROBE_ROUNDING = 16  # ulps of the probe energies that the gradient probe allows


def _derivative_probes(spec: ChainSpec, rng):
    """Largest relative errors (gradient, Hessian) of the analytic derivatives
    along 8 random unit directions v (``_PROBES``) at each of 3 configurations
    x, the trap centers moved by 0.03 times standard normal draws.

    The step is h = 1e-6 * max(1, ||x||_inf), so that x +- h v differs from
    x at any spacing.  The errors, each passing at <= 1e-7 (``_PROBE_TOL``):
    - gradient: |(E(x+hv) - E(x-hv))/2h - g.v| over sum_i |g_i v_i|
      + 16 eps max|E(x +- hv)| / (1e-7 h).  So the probe passes within 1e-7
      of the dot product's terms plus 16 ulps of the probe energies over h,
      the energies' own rounding, which dominates from d ~ 1e20 on;
    - Hessian: ||(g(x+hv) - g(x-hv))/2h - Hv||_inf over ||H||_inf ||v||_inf.
    Each probed point's one pair geometry serves its energy and gradient, so
    a configuration costs 2k energies, 2k + 1 gradients and one Hessian,
    O(k N^2) in all.  A NaN error stays NaN, and the check fails.
    """
    centers = trap_centers(spec).positions
    pairs = np.triu_indices(spec.n_atoms, 1)
    hess = np.empty((centers.size,) * 2)
    eps = np.finfo(float).eps
    grad_errs, hess_errs = [], []
    for _ in range(3):
        x = centers + 0.03 * rng.standard_normal(centers.shape)
        geometry = _pairs(x, spec, pairs)
        grad = _gradient(x, centers, spec, geometry)
        _hessian(spec, geometry, hess)
        hess_norm = np.abs(hess).sum(axis=1).max()
        h = _PROBE_STEP * max(1.0, float(np.abs(x).max()))
        directions = rng.standard_normal((_PROBES, x.size))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        for v in directions:
            probed = []
            for y in (x + h * v.reshape(-1, 3), x - h * v.reshape(-1, 3)):
                at_y = _pairs(y, spec, pairs)
                probed.append((_energy(y, centers, spec, at_y),
                               _gradient(y, centers, spec, at_y)))
            (e_plus, g_plus), (e_minus, g_minus) = probed
            rounding = _PROBE_ROUNDING * eps * max(abs(e_plus), abs(e_minus)) / h
            grad_errs.append(abs((e_plus - e_minus) / (2.0 * h) - grad @ v)
                             / (np.abs(grad) @ np.abs(v) + rounding / _PROBE_TOL))
            hess_errs.append(np.abs((g_plus - g_minus) / (2.0 * h) - hess @ v).max()
                             / (hess_norm * np.abs(v).max()))
    return float(np.max(grad_errs)), float(np.max(hess_errs))


def _run_checks(spec: ChainSpec):
    """(name, value, tol) of each self-check; a check passes when value <= tol.

    The two derivative checks compare the analytic gradient and Hessian with
    central differences along random directions (``_derivative_probes``
    states the step and the relative tolerances).  The others compare the
    Bloch eigenvectors' Gram matrix with 1, omega(q) with omega(-q), and the
    Bogoliubov frequencies of a chain of at most 4 cells with its normal modes.
    """
    grad_err, hess_err = _derivative_probes(spec, np.random.default_rng(20240801))
    checks = [("gradient-vs-central-differences", grad_err, _PROBE_TOL),
              ("hessian-vs-central-differences", hess_err, _PROBE_TOL)]

    bands = band_structure(spec)
    gram = bands.xi.conj().transpose(0, 2, 1) @ bands.xi
    checks.append(("eigenvector-orthonormality", float(np.abs(gram - np.eye(6)).max()), 1e-10))

    # q_k = -q_{n-2-k} on the n-point grid; its right end, pi/a, has no partner
    sym = np.abs(bands.omega[:-1] - bands.omega[-2::-1]).max()
    checks.append(("omega-even-in-q", float(sym), 1e-10))

    small = spec.with_(n_cells=min(spec.n_cells, 4))
    model = local_phonon_model(small)
    bogo = bogoliubov_frequencies(model.h, model.g)
    ref = np.sqrt(np.linalg.eigvalsh(hessian(trap_centers(small), small) / small.mass))
    checks.append(("bogoliubov-vs-normal-modes", float(np.abs(bogo - ref).max()), 1e-8))
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
    """Reject an output path that is a directory, that ``_open_output`` would
    write in a missing directory, or that names a file another output
    replaces, before anything is computed."""
    replaced = set()
    for path in filter(None, (getattr(args, name, None) for name in ("out", "out_g", "out_j"))):
        try:
            how, _, target = _output_mode(path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        if how != "replace":
            continue  # devices, FIFOs and stdout's file are written in place
        if not os.path.isdir(os.path.dirname(target)):
            raise ConfigError(f"cannot write {path}: its directory does not exist")
        if target in replaced:
            raise ConfigError(f"cannot write {path}: another output names the same file")
        replaced.add(target)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        with _open_output(None):  # the tables and summary lines that go to stdout
            spec = load_chain_spec(args.config)
            with _blas.command(serial=spec.n_cells <= _SERIAL_BLAS_CELLS):
                return args.func(spec, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RydphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
