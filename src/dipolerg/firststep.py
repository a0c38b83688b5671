"""First decimation: from the two-level fiber Hamiltonian to kernel form.

Eliminates the upper dipole level and all field content above the first
band edge in a single soft decimation at scale rho0, expanding the
off-band inverse as a finite chain series.  The output is a sequence of
scalar kernels in rescaled variables, the starting point of the flow.
The spectral parameter is passed in rescaled units: the physical value is
rho0 * z.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import ModelParams, ConfigError, chi, chibar
from .kernels import KernelGrid, KernelSequence, polydisc_measure, _l_sums
from . import wick
from . import oracle as oracle_mod
from . import feshbach
from .fockspace import FockBasis, dilation


class FirstStepError(RuntimeError):
    """First decimation is outside its contractive regime."""


@dataclasses.dataclass
class TwoLevelResolventData:
    """Diagonal off-band inverse of the free two-level fiber operator.

    Lower-level entry carries the squared soft-cutoff complement; the upper
    level is entirely off-band.  Arguments arrive in original (unscaled)
    units.  Tracks the worst gap margins seen, raising once the inversion
    leaves its safe region.
    """
    params: ModelParams
    z_phys: complex
    min_gap_low: float = math.inf
    min_gap_high: float = math.inf

    def __call__(self, rq, lqs):
        p = self.params
        dim = len(lqs)
        shape = (len(rq),) + tuple(len(q) for q in lqs)
        r = np.asarray(rq).reshape((-1,) + (1,) * dim)
        l2, pl = _l_sums(lqs, p.p)
        b1 = r + l2 / (2.0 * p.m) - pl / p.m - self.z_phys
        b2 = b1 + p.omega0
        cb2 = chibar(rq, p.rho0).reshape((-1,) + (1,) * dim) ** 2
        active = np.broadcast_to(cb2 > 0.0, shape)
        floor_low = p.mu * p.rho0 / 4.0
        if np.any(active):
            gap_low = float(np.min(np.where(active, b1.real, np.inf)))
            self.min_gap_low = min(self.min_gap_low, gap_low)
            if gap_low < floor_low:
                raise FirstStepError(
                    f"lower-level gap {gap_low:.3e} below {floor_low:.3e}")
        gap_high = float(np.min(b2.real))
        self.min_gap_high = min(self.min_gap_high, gap_high)
        if gap_high < p.omega0 / 4.0:
            raise FirstStepError(
                f"upper-level gap {gap_high:.3e} below {p.omega0 / 4.0:.3e}")
        low = np.where(active, cb2 / np.where(active, b1, 1.0), 0.0)
        high = np.broadcast_to(1.0 / b2, shape)
        return np.stack([low, high], axis=-1)


class _SpinVertex:
    """One-photon vertex of the first decimation: the 2x2 spin matrix
    sign * i * lam0 * sqrt(|k|) * g(k), constant over the (r, l) grid.
    Creation (1, 0) carries sign -1, annihilation (0, 1) sign +1.
    """

    def __init__(self, sign: float, params: ModelParams, grid: KernelGrid):
        self.sign = sign
        self.lam = params.lam0
        self.grid = grid

    def eval_product(self, global_ids, rq, lqs):
        (gid,) = global_ids
        shape = (len(rq),) + tuple(len(q) for q in lqs) + (2, 2)
        coef = self.sign * 1j * self.lam * math.sqrt(self.grid.k_abs[gid])
        out = np.empty(shape, dtype=complex)
        out[...] = coef * self.grid.coupling[gid]
        return out


def _free_part(params: ModelParams, grid: KernelGrid, z: complex) -> np.ndarray:
    """Rescaled lower-level free symbol: r + rho0 l^2/2m - p.l/m - z."""
    r = grid.r_nodes.reshape((-1,) + (1,) * len(grid.l_axes)).astype(complex)
    l2, pl = _l_sums(grid.l_axes, params.p)
    return r + (params.rho0 * l2 / (2.0 * params.m) - pl / params.m) - z


def initial_kernels(params: ModelParams, z,
                    grid: KernelGrid | None = None) -> KernelSequence:
    """Kernel sequence produced by the first decimation, rescaled to scale 1.

    z is the rescaled spectral parameter; the decimation itself happens at
    physical parameter rho0 * z.  Raises FirstStepError when a gap margin
    is violated or the chain series ratio reaches 1.  The ratio needs two
    live chain lengths: sigma_x coupling at L_max=3 never has them (its odd
    targets vanish), so there only the gap margins guard the decimation.
    """
    steps = params.rho0_power()
    if steps is None:
        raise ConfigError("rho0 must be an integer power of rho for the grid")
    if grid is None:
        grid = KernelGrid(params)
    z = complex(z)
    if abs(z) > 0.5 * params.mu:
        raise FirstStepError(
            f"spectral parameter {z} outside the half-gap window "
            f"|z| <= {0.5 * params.mu:.4g}")
    z_phys = params.rho0 * z
    F = TwoLevelResolventData(params, z_phys)
    vertices = {(1, 0): _SpinVertex(-1.0, params, grid),
                (0, 1): _SpinVertex(1.0, params, grid)}
    ctx = wick.WickContext(grid=grid, vertices=vertices, L_max=params.L_max,
                           scale=params.rho0, ext_shift_steps=steps, F_eval=F)
    kernels, ratio = wick._assemble_kernels(ctx, params.M_max,
                                            _free_part(params, grid, z))
    if ratio >= 1.0:
        raise FirstStepError(f"first decimation diverges: chain ratio {ratio:.3f}")
    meta = {"stage": 0, "series_ratio": ratio,
            "gap_low": F.min_gap_low, "gap_high": F.min_gap_high}
    return KernelSequence(grid, kernels, params.p, z, meta)


# ---------------------------------------------------------------------------
# coupling window

# acceptance region for the starting sequence, in units of the model
GAMMA_FRAC = 0.5     # of mu; the decoupled baseline already sits at rho0/mu
DELTA_FRAC = 0.5     # of mu
EPS_MAX = 0.5
RATIO_MAX = 0.5
# bisection bracket and step count of lambda_critical_estimate
_LAM_HI = 2.0
_N_BISECT = 30


def first_step_admissible(params: ModelParams,
                          grid: KernelGrid | None = None) -> bool:
    try:
        seq = initial_kernels(params, 0.0, grid=grid)
    except FirstStepError:
        return False
    if seq.meta["series_ratio"] > RATIO_MAX:
        return False
    led = polydisc_measure(seq)
    mu = params.mu
    return (led.gamma <= GAMMA_FRAC * mu
            and led.delta <= DELTA_FRAC * mu
            and led.eps <= EPS_MAX)


def lambda_critical_estimate(params: ModelParams) -> float:
    """Largest coupling whose starting sequence meets the polydisc targets.

    Empirical bisection; a conservative stand-in for the analytic window.
    """
    grid = KernelGrid(params)
    if not first_step_admissible(params.with_updates(lam0=0.0), grid):
        raise FirstStepError("even the decoupled model misses the targets")
    lo, hi = 0.0, _LAM_HI
    if first_step_admissible(params.with_updates(lam0=_LAM_HI), grid):
        return _LAM_HI
    for _ in range(_N_BISECT):
        mid = 0.5 * (lo + hi)
        if first_step_admissible(params.with_updates(lam0=mid), grid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# dense cross-representation check

def spin_fock_decimation(params: ModelParams, z_phys: complex,
                         basis: FockBasis | None = None):
    """Decimate H(p) - z_phys on spin (x) Fock with the first-step partition.

    The partition keeps the lower level with field energy below rho0 (soft
    cutoff chi) and removes the upper level entirely; the reference T is the
    diagonal of H, since the coupling has no diagonal part.  Returns
    (dense H, basis, DecimationResult).
    """
    H, basis = oracle_mod.build_fiber_hamiltonian(params, basis, z=z_phys)
    Hd = H.toarray()
    chi_vec = np.concatenate([chi(basis.r, params.rho0), np.zeros(len(basis))])
    return Hd, basis, feshbach.feshbach_map(Hd, H.diagonal(), chi_vec)


def matrix_first_step(params: ModelParams, z, basis: FockBasis | None = None):
    """Dense-route first decimation on the spin-Fock matrix representation.

    Decimates H(p) - rho0*z with the soft partition (lower level only,
    field content below the band edge), then rescales by conjugation with
    the grid dilation.  Returns the rescaled lower-level block and the
    basis, for comparison against assembling the kernel sequence into an
    operator.
    """
    steps = params.rho0_power()
    if steps is None:
        raise ConfigError("rho0 must be an integer power of rho for the grid")
    _, basis, res = spin_fock_decimation(params, params.rho0 * complex(z), basis)
    nf = len(basis)
    gamma = dilation(basis, steps=steps).dense()
    F_hat = (gamma @ res.F[:nf, :nf] @ gamma.conj().T) / params.rho0
    return F_hat, basis, res
