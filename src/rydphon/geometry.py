"""Zig-zag tweezer chain geometry: chain parameters and trap centers.

Unit system: the single dipolar length scale is set to 1 by choosing
mass = 1, trap frequency = 1 and dipole strength 1/3 (length^5 =
3*v_dd/(mass*omega^2)).  All lengths below are in that unit, all
energies in mass*omega^2*length^2 and all frequencies in units of the
trap frequency.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError

DEFAULT_V_DD = 1.0 / 3.0

N_BASES = 2  # A and B sublattices; fixed

_SPEC_KEYS = ("n_cells", "d", "delta", "a", "theta", "phi", "topology",
              "nu", "mass", "v_dd")
_NUMBER_FIELDS = ("d", "delta", "a", "theta", "phi", "mass", "v_dd")


class Topology(str, Enum):
    TRIVIAL = "trivial"
    TOPOLOGICAL = "topological"


def magic_angle() -> float:
    """Dipole tilt at which the in-line angular factor 1 - 3cos^2 vanishes."""
    return math.acos(1.0 / math.sqrt(3.0))


def dipole_unit(theta: float, phi: float) -> np.ndarray:
    """Unit vector of the dipole axis from polar angle theta (from z) and azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _plain_number(name: str, value):
    """value as a finite built-in int or float: Python ints and floats are kept
    as given (JSON values digest unchanged), numpy scalars are converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if type(value) not in (int, float):
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class ChainSpec:
    """Full geometric and physical configuration of a zig-zag chain.

    ``d`` is the intra-cell z spacing, ``delta`` the transverse x offset
    between the two legs, ``a`` the cell period along z (defaults to 2*d
    so consecutive atoms are equally spaced).
    """

    n_cells: int
    d: float
    delta: float = 1.0
    a: float | None = None
    theta: float = field(default_factory=magic_angle)
    phi: float = 0.0
    topology: Topology = Topology.TRIVIAL
    nu: tuple[float, float, float] = (1.0, 1.0, 1.0)
    mass: float = 1.0
    v_dd: float = DEFAULT_V_DD

    def __post_init__(self):
        if self.a is None:
            object.__setattr__(self, "a", 2.0 * _plain_number("d", self.d))
        for name in _NUMBER_FIELDS:
            object.__setattr__(self, name, _plain_number(name, getattr(self, name)))
        try:
            object.__setattr__(self, "topology", Topology(str.lower(self.topology)))
        except (TypeError, ValueError):
            raise ConfigError(
                f"topology must be 'trivial' or 'topological', got {self.topology!r}"
            ) from None
        nu = self.nu.tolist() if isinstance(self.nu, np.ndarray) else self.nu
        if not isinstance(nu, (tuple, list)):
            nu = (nu,) * 3
        object.__setattr__(self, "nu", tuple(float(_plain_number("nu", x)) for x in nu))
        if not isinstance(self.n_cells, numbers.Integral) or isinstance(self.n_cells, bool):
            raise ConfigError(f"n_cells must be an integer, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))  # numpy integers are not JSON
        if self.n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.d <= 0:
            raise ConfigError(f"d must be > 0, got {self.d}")
        if self.a <= 0:
            raise ConfigError(f"a must be > 0, got {self.a}")
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        if len(self.nu) != 3 or any(x <= 0 for x in self.nu):
            raise ConfigError(f"nu must be three positive frequencies, got {self.nu}")
        if self.mass <= 0:
            raise ConfigError(f"mass must be > 0, got {self.mass}")
        if self.v_dd < 0:
            raise ConfigError(f"v_dd must be >= 0, got {self.v_dd}")

    @property
    def n_atoms(self) -> int:
        return N_BASES * self.n_cells

    @property
    def m_hat(self) -> np.ndarray:
        return dipole_unit(self.theta, self.phi)

    @property
    def nu_array(self) -> np.ndarray:
        return np.asarray(self.nu, dtype=float)

    def with_(self, **changes) -> "ChainSpec":
        """Copy of this spec with the given fields replaced."""
        return replace(self, **changes)


def base_offsets(spec: ChainSpec) -> np.ndarray:
    """(2, 3) offsets of the A and B atoms relative to their cell position."""
    half_x = 0.5 * spec.delta
    half_z = 0.5 * spec.d
    if spec.topology is Topology.TRIVIAL:
        return np.array([[-half_x, 0.0, -half_z],
                         [+half_x, 0.0, +half_z]])
    return np.array([[-half_x, 0.0, +half_z],
                     [+half_x, 0.0, -half_z]])


@dataclass(frozen=True)
class Configuration:
    """Concrete 3D positions of all atoms plus relaxation metadata.

    ``residual_inf_norm`` is the force residual at these positions when
    it has been evaluated (always set by the relaxation solver) and None
    for raw configurations.  ``hessian`` is the (3N, 3N) Hessian at these
    positions, likewise set by the solver; ``min_hessian_eigenvalue`` and
    ``stable`` are computed from it on first use, and are None without it.
    """

    positions: np.ndarray  # (N, 3)
    residual_inf_norm: float | None = None
    relaxed: bool = False
    n_iterations: int = 0
    energy_history: tuple[float, ...] = ()
    hessian: np.ndarray | None = None  # (3N, 3N)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        if self.residual_inf_norm is not None and self.residual_inf_norm < 0:
            raise ValueError("residual_inf_norm must be nonnegative")

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def min_hessian_eigenvalue(self) -> float | None:
        hess = self.hessian
        return None if hess is None else float(np.linalg.eigvalsh(hess).min())

    @property
    def stable(self) -> bool | None:
        """Whether the positions are a local minimum: False at a saddle, which
        squeezed chains do reach (a flag, not an error)."""
        eig = self.min_hessian_eigenvalue
        return None if eig is None else eig > 0.0


def trap_centers(spec: ChainSpec) -> Configuration:
    """Unrelaxed configuration with every atom at its tweezer center; atom
    2 * cell + base is base A (0) or B (1) of its cell."""
    offsets = base_offsets(spec)
    cells = np.arange(spec.n_cells)
    pos = np.zeros((spec.n_atoms, 3))
    pos[:, 2] = np.repeat(cells * spec.a, N_BASES)
    pos += np.tile(offsets, (spec.n_cells, 1))
    return Configuration(positions=pos, relaxed=False)


def spec_to_dict(spec: ChainSpec) -> dict:
    """Plain-dict form of a spec (JSON-ready, used for files and provenance)."""
    data = {key: getattr(spec, key) for key in _SPEC_KEYS}
    data.update(topology=spec.topology.value, nu=list(spec.nu))
    return data


def spec_from_dict(data: dict) -> ChainSpec:
    """Build a ChainSpec from a key/value mapping.

    Accepts exactly the keys n_cells, d, delta, a, theta, phi, topology,
    nu, mass, v_dd; anything else is rejected by name.  ``theta`` may be
    the string "magic".
    """
    if not isinstance(data, dict):
        raise ConfigError(f"chain configuration must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_SPEC_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    kwargs = dict(data)
    theta = kwargs.get("theta")
    if isinstance(theta, str):
        if theta.lower() != "magic":
            raise ConfigError(f"theta must be a number or 'magic', got {theta!r}")
        kwargs["theta"] = magic_angle()
    for key in ("n_cells", "d"):
        if key not in kwargs:
            raise ConfigError(f"missing required configuration key: {key}")
    try:
        return ChainSpec(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _read_json(path, what: str, invalid=ConfigError):
    """The JSON document at ``path``: ConfigError if unreadable, ``invalid`` if not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise invalid(f"{what} {path} is not valid JSON: {exc}") from None


def load_chain_spec(path) -> ChainSpec:
    """Read a ChainSpec from a JSON configuration file."""
    return spec_from_dict(_read_json(path, "configuration file"))
