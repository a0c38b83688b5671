"""Physical model definition.

Parameters of the two-level dipole coupled to a massless boson field, the
smooth infrared cutoff profile chi and its complement, and the Pauli
matrices.  Everything here is immutable after construction and safe
to share across workers.

The configuration keys are the ModelParams fields, each with its default,
doc line and rule: the physical and RG parameters, then the flow's stage
cap and tolerance and the dispersion sweep.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# spin basis convention: index 0 = down (ground level), index 1 = up
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

# plateau and support edges of the cutoff ramp
CHI_PLATEAU = 0.75
CHI_SUPPORT = 1.0

XI_MAX = 1.0 / (4.0 * math.sqrt(8.0 * math.pi))


class ConfigError(ValueError):
    """Raised when model parameters or a run configuration are invalid."""


def chi(x, rho_scale: float = 1.0):
    """Smooth cutoff: 1 on [0, 3/4*rho], 0 beyond rho, cos^2 ramp between.

    Accepts scalars or arrays; C^1 in x.
    """
    if rho_scale <= 0.0:
        raise ConfigError("rho_scale must be positive")
    u = np.asarray(x, dtype=float) / rho_scale
    out = np.ones_like(u)
    ramp = (u > CHI_PLATEAU) & (u < CHI_SUPPORT)
    out = np.where(u >= CHI_SUPPORT, 0.0, out)
    c = np.cos((math.pi / 2.0) * (4.0 * u - 3.0), where=ramp, out=np.zeros_like(u))
    out = np.where(ramp, c * c, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def chibar(x, rho_scale: float = 1.0):
    """Complement profile, chi^2 + chibar^2 = 1 pointwise."""
    c = chi(x, rho_scale)
    return np.sqrt(np.clip(1.0 - np.square(c), 0.0, 1.0))


def rho_power(scale: float, rho: float) -> int:
    """The integer s with scale = rho^s, to 1e-9 in s; raises ConfigError
    when there is none."""
    s = math.log(scale) / math.log(rho)
    if abs(s - round(s)) >= 1e-9:
        raise ConfigError(f"scale {scale:.6g} is not an integer power of rho = {rho:.6g}")
    return round(s)


def _as_vec(value, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape == (1,) and dim == 3:
        # scalar shorthand: momentum along e_z
        v = np.array([0.0, 0.0, float(v[0])])
    if v.shape != (dim,):
        raise ConfigError(f"momentum must be a scalar (d=1) or a {dim}-vector")
    return v


def _key(default, doc: str):
    return dataclasses.field(default=default, metadata={"doc": doc})


@dataclasses.dataclass(frozen=True, eq=False)
class ModelParams:
    """All physical and RG parameters; validated at construction.

    Momenta are scalars in d=1 and 3-vectors in d=3 (stored as arrays of
    length d either way).  The spin coupling is a 2x2 Hermitian matrix or
    a tag of _spin_matrix; None means sigma_x, the only one d=3 takes.
    """

    m: float = _key(1.0, "dipole mass")
    omega0: float = _key(1.0, "two-level splitting")
    lam0: float = _key(0.0, "coupling constant")
    p: object = _key(0.0, "conserved momentum (d=1 scalar; d=3: component along e_z)")
    p_star: object = _key(0.0, "reference momentum for the gap parameter mu")
    rho: float = _key(0.45, "RG scale factor, in (0, 1/2)")
    rho0: float = _key(0.45 ** 3, "first-decimation scale; keep it a power of rho")
    xi: float = _key(0.04, "kernel weight for the xi-norm")
    dim: int = _key(1, "spatial dimension, 1 (desk mode) or 3 (validation mode)")
    spin_coupling: object = _key("sigma_x", "sigma_x | sigma_z | mix:<a>,<b> for a*sx+b*sz")
    uv_cutoff: float = _key(1.0, "photon energy of the top mode shell (j = 0)")
    # truncations and grid descriptors
    M_max: int = _key(2, "kernel index cap (m+n <= M_max)")
    L_max: int = _key(3, "Neumann / chain depth cap")
    N_max: int = _key(3, "oracle photon-number cap")
    j_max: int = _key(10, "deepest geometric grid index; IR floor rho^j_max")
    j_max_pair: int = _key(7, "mode-grid cap for kernels with two photon arguments")
    n_r_uniform: int = _key(12, "extra uniform r-grid nodes resolving the chi ramp")
    n_l_uniform: int = _key(4, "extra uniform |l|-grid nodes (d=1)")
    n_l_axis_d3: int = _key(3, "l-grid nodes per axis in d=3 validation mode (odd, >= 3)")
    n_z_samples: int = _key(9, "Chebyshev samples of the spectral parameter")
    # run control: the flow's stop rule and the dispersion sweep
    n_flow_max: int = _key(40, "max RG iterations")
    tol_factor: float = _key(1e-10, "flow convergence tolerance, in units of mu")
    p_sweep_max: float = _key(0.4, "dispersion sweep half-width, in units of m")
    p_sweep_points: int = _key(9, "dispersion sweep point count (odd, symmetric)")

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ConfigError("dimension must be 1 or 3")
        object.__setattr__(self, "p_star", _as_vec(self.p_star, self.dim))
        object.__setattr__(self, "p", _as_vec(self.p, self.dim))
        g = "sigma_x" if self.spin_coupling is None else self.spin_coupling
        g = _spin_matrix(g) if isinstance(g, str) else np.asarray(g, dtype=complex)
        if g.shape != (2, 2):
            raise ConfigError("spin coupling must be a 2x2 matrix")
        object.__setattr__(self, "spin_coupling", g)
        # comparisons below let NaN through, so reject non-finite values first
        for f in dataclasses.fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if not np.allclose(g, g.conj().T, atol=1e-12):
            raise ConfigError("spin coupling must be Hermitian")
        if self.dim == 3 and not np.array_equal(g, SIGMA_X):
            raise ConfigError("spin_coupling must be sigma_x in d=3 (eps(k).sigma couples there)")
        if self.m <= 0.0:
            raise ConfigError("mass m must be positive")
        if self.omega0 <= 0.0:
            raise ConfigError("level splitting omega0 must be positive")
        if self.lam0 < 0.0:
            raise ConfigError("coupling lam0 must be >= 0")
        if np.linalg.norm(self.p_star) >= self.m:
            raise ConfigError("reference momentum must satisfy |p*| < m")
        if not (0.0 < self.rho < 0.5):
            raise ConfigError("rho must lie in (0, 1/2)")
        if not (0.0 < self.xi < XI_MAX):
            raise ConfigError(f"xi must lie in (0, {XI_MAX:.6g})")
        if not (0.0 < self.rho0 < min(self.omega0, self.xi ** (2.0 / 3.0))):
            raise ConfigError("rho0 must lie in (0, min(omega0, xi^(2/3)))")
        mu = self.mu
        if not (0.0 < mu <= 0.5):
            raise ConfigError("gap parameter mu out of (0, 1/2]")
        if np.linalg.norm(self.p - self.p_star) >= mu * self.m:
            raise ConfigError("momentum must satisfy |p - p*| < mu*m")
        # a negative j_max_pair would leave no mode carrying the pair kernels;
        # the convergence criterion compares two stages
        lows = {"M_max": 1, "L_max": 1, "N_max": 1, "j_max": 1, "j_max_pair": 0,
                "n_r_uniform": 0, "n_l_uniform": 0, "n_flow_max": 2}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        # the flow reads its ledgers off the middle member, at z = 0 for odd counts
        # only; an odd d=3 l-axis holds l = 0 too, and so does an odd sweep
        for name in ("n_z_samples", "n_l_axis_d3", "p_sweep_points"):
            n = getattr(self, name)
            if n < 3 or n % 2 == 0:
                raise ConfigError(f"{name} must be odd and >= 3, got {n}")
        if self.uv_cutoff <= 0.0:
            raise ConfigError("uv cutoff must be positive")
        if self.tol_factor <= 0.0:
            raise ConfigError("tol_factor must be > 0")
        # each sweep point sets p_star = p, and |p_star| < m
        if not (0.0 < self.p_sweep_max < 1.0):
            raise ConfigError("p_sweep_max must lie in (0, 1)")

    @property
    def mu(self) -> float:
        return (self.m - float(np.linalg.norm(self.p_star))) / (2.0 * self.m)

    def with_updates(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)


# ---------------------------------------------------------------------------
# configuration (plain-text key=value files; no env vars)

# default and doc line of every key, in dump order
_KEYS = {f.name: (f.default, f.metadata["doc"]) for f in dataclasses.fields(ModelParams)}


def config_defaults() -> dict:
    return {key: default for key, (default, _doc) in _KEYS.items()}


def apply_config_line(cfg: dict, raw: str, where: str) -> None:
    """Set the key of one key=value line (comments allowed) in cfg.

    Unknown keys and unparsable values raise ConfigError, prefixed by
    `where` (the line's origin).
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return
    if "=" not in line:
        raise ConfigError(f"{where}: expected key=value, got {raw!r}")
    key, val = (s.strip() for s in line.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        cfg[key] = type(_KEYS[key][0])(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {val!r}") from exc


def parse_config_text(text: str) -> dict:
    """Parse a key=value config file body; unknown keys are rejected."""
    cfg = config_defaults()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        apply_config_line(cfg, raw, f"line {lineno}")
    return cfg


def _spin_matrix(tag: str) -> np.ndarray:
    if tag == "sigma_x":
        return SIGMA_X.copy()
    if tag == "sigma_z":
        return SIGMA_Z.copy()
    if tag.startswith("mix:"):
        try:
            a, b = (float(s) for s in tag[4:].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad spin coupling tag {tag!r}") from exc
        return a * SIGMA_X + b * SIGMA_Z
    raise ConfigError(f"bad spin coupling tag {tag!r}")


def config_dump_text(cfg: dict | None = None) -> str:
    """Render a config (defaults if None) with one documented key per line."""
    cfg = dict(config_defaults(), **(cfg or {}))
    return "".join(f"{key} = {cfg[key]}  # {doc}\n" for key, (_default, doc) in _KEYS.items())
