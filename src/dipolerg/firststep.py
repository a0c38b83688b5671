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
from .kernels import (Kernel, KernelGrid, KernelSequence, symmetrize, polydisc_measure,
                      _l_sums)
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

    def max_abs(self) -> float:
        p = self.params
        return 4.0 / (p.mu * p.rho0) + 4.0 / p.omega0


def _vertex_closures(params: ModelParams, grid: KernelGrid):
    lam = params.lam0

    def kernel_eval(a, b, create_ids, annih_ids, rq, lqs):
        ids = list(create_ids) + list(annih_ids)
        if len(ids) != 1 or a + b != 1:
            raise ConfigError("first decimation vertices carry exactly one leg")
        shape = (len(rq),) + tuple(len(q) for q in lqs) + (2, 2)
        gid = ids[0]
        if gid < 0:
            return np.zeros(shape, dtype=complex)
        sign = -1.0 if a == 1 else 1.0
        coef = sign * 1j * lam * math.sqrt(grid.k_abs[gid])
        out = np.empty(shape, dtype=complex)
        out[...] = coef * grid.coupling[gid]
        return out

    def kernel_max(a, b):
        gmax = float(np.max(np.abs(grid.coupling))) if len(grid.modes) else 0.0
        return lam * math.sqrt(float(grid.k_abs.max())) * gmax

    return kernel_eval, kernel_max


def _free_part(params: ModelParams, grid: KernelGrid, z: complex) -> np.ndarray:
    """Rescaled lower-level free symbol: r + rho0 l^2/2m - p.l/m - z."""
    r = grid.r_nodes.reshape((-1,) + (1,) * len(grid.l_axes)).astype(complex)
    l2, pl = _l_sums(grid.l_axes, params.p)
    return r + (params.rho0 * l2 / (2.0 * params.m) - pl / params.m) - z


def initial_kernels(params: ModelParams, z,
                    grid: KernelGrid | None = None) -> KernelSequence:
    """Kernel sequence produced by the first decimation, rescaled to scale 1.

    z is the rescaled spectral parameter; the decimation itself happens at
    physical parameter rho0 * z.  Raises FirstStepError when the chain
    series fails to decay or a gap margin is violated.
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
    kernel_eval, kernel_max = _vertex_closures(params, grid)
    F = TwoLevelResolventData(params, z_phys)
    ctx = wick.WickContext(
        grid=grid, available={(1, 0), (0, 1)}, L_max=params.L_max,
        scale=params.rho0, ext_shift_steps=steps,
        kernel_eval=kernel_eval, F_eval=F, kernel_max=kernel_max,
        F_max=F.max_abs(), spin_dim=2, single_leg=True)

    kernels = {}
    ratio = 0.0
    targets = [(m, n) for t in range(params.M_max + 1)
               for m in range(t + 1) for n in [t - m]]
    for (m, n) in targets:
        ids = grid.mode_ids() if m + n <= 1 else grid.pair_mode_ids()
        vals, per_L = wick.assemble_target(m, n, ctx, ext_mode_ids=ids)
        ratio = max(ratio, wick.series_ratio(per_L))
        if m == 0 and n == 0:
            vals = vals + _free_part(params, grid, z)
        else:
            vals = symmetrize(vals, m, n, 1 + len(grid.l_axes))
            if not np.any(vals):
                continue
        kernels[(m, n)] = Kernel(m, n, grid, vals, ids)
    if ratio >= 1.0:
        raise FirstStepError(f"first decimation diverges: chain ratio {ratio:.3f}")
    meta = {"stage": 0, "series_ratio": ratio,
            "gap_low": F.min_gap_low, "gap_high": F.min_gap_high}
    return KernelSequence(grid, kernels, params.p, z, meta)


# ---------------------------------------------------------------------------
# coupling window

@dataclasses.dataclass(frozen=True)
class PolydiscTargets:
    """Acceptance region for the starting sequence, in units of the model."""
    gamma_frac: float = 0.5     # of mu; the decoupled baseline already sits at rho0/mu
    delta_frac: float = 0.5     # of mu
    eps_max: float = 0.5
    ratio_max: float = 0.5


def first_step_admissible(params: ModelParams, targets: PolydiscTargets,
                          grid: KernelGrid | None = None) -> bool:
    try:
        seq = initial_kernels(params, 0.0, grid=grid)
    except FirstStepError:
        return False
    if seq.meta["series_ratio"] > targets.ratio_max:
        return False
    led = polydisc_measure(seq)
    mu = params.mu
    return (led.gamma <= targets.gamma_frac * mu
            and led.delta <= targets.delta_frac * mu
            and led.eps <= targets.eps_max)


def lambda_critical_estimate(params: ModelParams,
                             targets: PolydiscTargets | None = None,
                             lam_hi: float = 2.0, n_iter: int = 30) -> float:
    """Largest coupling whose starting sequence meets the polydisc targets.

    Empirical bisection; a conservative stand-in for the analytic window.
    """
    targets = targets or PolydiscTargets()
    grid = KernelGrid(params)
    if not first_step_admissible(params.with_updates(lam0=0.0), targets, grid):
        raise FirstStepError("even the decoupled model misses the targets")
    lo, hi = 0.0, lam_hi
    if first_step_admissible(params.with_updates(lam0=lam_hi), targets, grid):
        return lam_hi
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        if first_step_admissible(params.with_updates(lam0=mid), targets, grid):
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
