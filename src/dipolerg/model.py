"""Physical model definition.

Parameters of the two-level dipole coupled to a massless boson field, the
smooth infrared cutoff profile chi and its complement, polarization
frames for d=3, and the d=1 desk-mode reduction switches.  Everything here is immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# spin basis convention: index 0 = down (ground level), index 1 = up
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
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


# fixed fallback frame for k parallel to e_z (declared tie-break)
_FALLBACK_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def polarization(k: np.ndarray, lam: int) -> np.ndarray:
    """Transverse unit polarization vector eps_lam(k), lam in {1, 2}.

    The frame is built from e_z x k; directions parallel to e_z fall back
    to (e_x, e_y).
    """
    if lam not in (1, 2):
        raise ConfigError("polarization index must be 1 or 2")
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ConfigError("polarization needs a 3-vector")
    kn = np.linalg.norm(k)
    if kn == 0.0:
        raise ConfigError("polarization undefined at k = 0")
    khat = k / kn
    e_z = np.array([0.0, 0.0, 1.0])
    cross = np.cross(e_z, khat)
    cn = np.linalg.norm(cross)
    if cn < 1e-12:
        return _FALLBACK_FRAME[lam - 1].copy()
    e1 = cross / cn
    if lam == 1:
        return e1
    e2 = np.cross(khat, e1)
    return e2 / np.linalg.norm(e2)


def _as_vec(value, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape == (1,) and dim == 3:
        # scalar shorthand: momentum along e_z
        v = np.array([0.0, 0.0, float(v[0])])
    if v.shape != (dim,):
        raise ConfigError(f"momentum must be a scalar (d=1) or a {dim}-vector")
    return v


@dataclasses.dataclass(frozen=True, eq=False)
class ModelParams:
    """All physical and RG parameters; validated at construction.

    Momenta are scalars in d=1 and 3-vectors in d=3 (stored as arrays of
    length d either way).
    """

    m: float = 1.0
    omega0: float = 1.0
    lam0: float = 0.0
    p_star: object = 0.0
    p: object = 0.0
    rho: float = 0.45
    rho0: float = 0.45 ** 3
    xi: float = 0.04
    dim: int = 1
    spin_coupling: object = None
    uv_cutoff: float = 1.0
    # truncations and grid descriptors
    M_max: int = 2
    L_max: int = 3
    N_max: int = 3
    j_max: int = 10
    j_max_pair: int = 7
    n_r_uniform: int = 12
    n_l_uniform: int = 4
    n_l_axis_d3: int = 3
    n_z_samples: int = 9

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ConfigError("dimension must be 1 or 3")
        object.__setattr__(self, "p_star", _as_vec(self.p_star, self.dim))
        object.__setattr__(self, "p", _as_vec(self.p, self.dim))
        g = (SIGMA_X.copy() if self.spin_coupling is None
             else np.asarray(self.spin_coupling, dtype=complex))
        if g.shape != (2, 2):
            raise ConfigError("spin coupling must be a 2x2 matrix")
        object.__setattr__(self, "spin_coupling", g)
        # comparisons below let NaN through, so reject non-finite values first
        for f in dataclasses.fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if not np.allclose(g, g.conj().T, atol=1e-12):
            raise ConfigError("spin coupling must be Hermitian")
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
        for name in ("M_max", "L_max", "N_max", "j_max"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_z_samples < 3:
            raise ConfigError("need at least 3 z samples")
        if self.uv_cutoff <= 0.0:
            raise ConfigError("uv cutoff must be positive")

    @property
    def mu(self) -> float:
        return (self.m - float(np.linalg.norm(self.p_star))) / (2.0 * self.m)

    def with_updates(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)

    def rho0_power(self) -> int | None:
        """If rho0 is (numerically) an integer power of rho, return it."""
        s = math.log(self.rho0) / math.log(self.rho)
        si = round(s)
        if si >= 1 and abs(s - si) < 1e-9:
            return si
        return None


# ---------------------------------------------------------------------------
# configuration schema (plain-text key=value files; no env vars)

_SCHEMA = {
    "m": (float, 1.0, "dipole mass"),
    "omega0": (float, 1.0, "two-level splitting"),
    "lam0": (float, 0.0, "coupling constant"),
    "p": (float, 0.0, "conserved momentum (d=1 scalar; d=3: component along e_z)"),
    "p_star": (float, 0.0, "reference momentum for the gap parameter mu"),
    "rho": (float, 0.45, "RG scale factor, in (0, 1/2)"),
    "rho0": (float, 0.45 ** 3, "first-decimation scale; keep it a power of rho"),
    "xi": (float, 0.04, "kernel weight for the xi-norm"),
    "dim": (int, 1, "spatial dimension, 1 (desk mode) or 3 (validation mode)"),
    "spin_coupling": (str, "sigma_x", "sigma_x | sigma_z | mix:<a>,<b> for a*sx+b*sz"),
    "uv_cutoff": (float, 1.0, "photon energy of the top mode shell (j = 0)"),
    "M_max": (int, 2, "kernel index cap (m+n <= M_max)"),
    "L_max": (int, 3, "Neumann / chain depth cap"),
    "N_max": (int, 3, "oracle photon-number cap"),
    "j_max": (int, 10, "deepest geometric grid index; IR floor rho^j_max"),
    "j_max_pair": (int, 7, "mode-grid cap for kernels with two photon arguments"),
    "n_r_uniform": (int, 12, "extra uniform r-grid nodes resolving the chi ramp"),
    "n_l_uniform": (int, 4, "extra uniform |l|-grid nodes (d=1)"),
    "n_l_axis_d3": (int, 3, "l-grid nodes per axis in d=3 validation mode"),
    "n_z_samples": (int, 9, "Chebyshev samples of the spectral parameter"),
    "n_flow_max": (int, 40, "max RG iterations"),
    "tol_factor": (float, 1e-10, "flow convergence tolerance, in units of mu"),
    "p_sweep_max": (float, 0.4, "dispersion sweep half-width, in units of m"),
    "p_sweep_points": (int, 9, "dispersion sweep point count (odd, symmetric)"),
}


def config_defaults() -> dict:
    return {k: v[1] for k, v in _SCHEMA.items()}


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
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typ = _SCHEMA[key][0]
    try:
        cfg[key] = typ(val)
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


def params_from_config(cfg: dict) -> ModelParams:
    kw = {f.name: cfg[f.name] for f in dataclasses.fields(ModelParams) if f.name in cfg}
    if "spin_coupling" in kw and isinstance(kw["spin_coupling"], str):
        kw["spin_coupling"] = _spin_matrix(kw["spin_coupling"])
    return ModelParams(**kw)


def config_dump_text(cfg: dict | None = None) -> str:
    """Render a config (defaults if None) with one documented key per line."""
    cfg = dict(config_defaults(), **(cfg or {}))
    lines = []
    for key, (_typ, _default, doc) in _SCHEMA.items():
        val = cfg[key]
        if isinstance(val, float):
            sval = repr(val)
        else:
            sval = str(val)
        lines.append(f"{key} = {sval}  # {doc}")
    return "\n".join(lines) + "\n"
