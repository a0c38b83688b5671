"""First decimation: from the two-level fiber Hamiltonian to kernel form.

Eliminates the upper dipole level and all field content above the first
band edge in a single soft decimation at scale rho0, expanding the
off-band inverse as a finite chain series.  The output is a sequence of
scalar kernels in rescaled variables, the starting point of the flow.
The spectral parameter is passed in rescaled units: the physical value is
rho0 * z.  Only the resolvent depends on it, so one assembler pass builds
the sequences at every z-node.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import ModelParams, ConfigError, chi, chibar
from .kernels import KernelFamily, KernelGrid, polydisc_measure, _l_sums
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
    units, and z_phys holds the spectral parameter of every family member.
    Tracks the worst gap margins seen at each member, raising once the
    inversion leaves its safe region at any of them.
    """
    params: ModelParams
    z_phys: np.ndarray

    def __post_init__(self):
        self.z_phys = np.atleast_1d(np.asarray(self.z_phys, dtype=complex))
        self.min_gap_low = np.full(len(self.z_phys), math.inf)
        self.min_gap_high = np.full(len(self.z_phys), math.inf)

    def __call__(self, rq, lqs):
        """Resolvent on each row's (r, l) product grid at every member: rq
        has shape (rows, n_r), every l-query (rows, n_l); returns (rows,
        n_z, n_r, n_l, 2)."""
        p = self.params
        rq = np.asarray(rq)
        r = rq.reshape((len(rq), 1) + rq.shape[1:] + (1,) * len(lqs))
        l2, pl = _l_sums(lqs, p.p)
        l2, pl = l2[:, None], pl[:, None]
        z = self.z_phys.reshape((1, -1) + (1,) * (1 + len(lqs)))
        b1 = r + l2 / (2.0 * p.m) - pl / p.m - z
        b2 = b1 + p.omega0
        cb2 = chibar(r, p.rho0) ** 2
        active = np.broadcast_to(cb2 > 0.0, b1.shape)
        # per member: every axis but the family axis
        axes = (0,) + tuple(range(2, b1.ndim))
        if np.any(active):
            gap_low = np.min(np.where(active, b1.real, np.inf), axis=axes)
            self.min_gap_low = np.minimum(self.min_gap_low, gap_low)
            self._check("lower-level", gap_low, p.mu * p.rho0 / 4.0)
        gap_high = np.min(b2.real, axis=axes)
        self.min_gap_high = np.minimum(self.min_gap_high, gap_high)
        self._check("upper-level", gap_high, p.omega0 / 4.0)
        low = np.where(active, cb2 / np.where(active, b1, 1.0), 0.0)
        high = 1.0 / b2
        return np.stack([low, high], axis=-1)

    def _check(self, level, gaps, floor):
        k = int(np.argmin(gaps))
        if gaps[k] < floor:
            raise FirstStepError(f"{level} gap {gaps[k]:.3e} below {floor:.3e} "
                                 f"at z_phys={self.z_phys[k]:.4g}")


class _SpinVertex:
    """One-photon vertex of the first decimation: the 2x2 spin matrix
    sign * i * lam0 * sqrt(|k|) * g(k), constant over the (r, l) grid.
    Creation (1, 0) carries sign -1, annihilation (0, 1) sign +1.
    """

    def __init__(self, sign: float, params: ModelParams, grid: KernelGrid):
        self.sign = sign
        self.lam = params.lam0
        self.grid = grid

    def eval_product(self, ids, rq, lqs):
        """The (rows, 1, *base, 2, 2) spin matrices of each row's mode, one for
        every member, broadcast (read-only) over that row's (r, l) query grid."""
        (gid,) = np.asarray(ids, dtype=int).T
        coef = self.sign * 1j * self.lam * np.sqrt(self.grid.k_abs[gid])
        mats = coef[:, None, None] * self.grid.coupling[gid]
        grid_shape = (1, np.shape(rq)[1]) + tuple(np.shape(q)[1] for q in lqs)
        mats = mats.reshape((len(gid),) + (1,) * len(grid_shape) + (2, 2))
        return np.broadcast_to(mats, (len(gid),) + grid_shape + (2, 2))

    def live_modes(self):
        return np.flatnonzero(np.any(self.grid.coupling != 0, axis=(1, 2)))

    def spin_pattern(self) -> np.ndarray:
        return np.any(self.grid.coupling != 0, axis=0)


def _free_part(params: ModelParams, grid: KernelGrid, zs: np.ndarray) -> np.ndarray:
    """Rescaled lower-level free symbol r + rho0 l^2/2m - p.l/m - z at
    every z of zs: shape (n_z, *base)."""
    r = grid.r_nodes.reshape((-1,) + (1,) * len(grid.l_axes)).astype(complex)
    l2, pl = _l_sums(grid.l_axes, params.p)
    z = np.asarray(zs, dtype=complex).reshape((-1,) + (1,) * (1 + len(grid.l_axes)))
    return r + (params.rho0 * l2 / (2.0 * params.m) - pl / params.m) - z


def initial_kernels(params: ModelParams, zs,
                    grid: KernelGrid | None = None) -> KernelFamily:
    """Kernel sequences produced by the first decimation at every rescaled
    spectral parameter of zs, rescaled to scale 1, as one family.

    The decimation itself happens at physical parameter rho0 * z; one
    assembler pass serves every z.  Raises FirstStepError when any z is
    outside the half-gap window, a gap margin is violated or a chain series
    ratio reaches 1.  The ratio needs two live chain lengths: sigma_x
    coupling at L_max=3 never has them (its odd targets vanish), so there
    only the gap margins guard the decimation.
    """
    steps = params.rho0_power()
    if steps is None:
        raise ConfigError("rho0 must be an integer power of rho for the grid")
    if grid is None:
        grid = KernelGrid(params)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    for z in zs:
        if abs(z) > 0.5 * params.mu:
            raise FirstStepError(
                f"spectral parameter {complex(z)} outside the half-gap window "
                f"|z| <= {0.5 * params.mu:.4g}")
    F = TwoLevelResolventData(params, params.rho0 * zs)
    # the decoupled model has no vertices, hence no chains
    vertices = ({(1, 0): _SpinVertex(-1.0, params, grid),
                 (0, 1): _SpinVertex(1.0, params, grid)} if params.lam0 else {})
    ctx = wick.WickContext(grid=grid, vertices=vertices, L_max=params.L_max,
                           scale=params.rho0, ext_shift_steps=steps, F_eval=F)
    stacks, ratios = wick._assemble_kernels(ctx, params.M_max, _free_part(params, grid, zs))
    for z, ratio in zip(zs, ratios):
        if ratio >= 1.0:
            raise FirstStepError(f"first decimation diverges at z={complex(z)}: "
                                 f"chain ratio {ratio:.3f}")
    metas = [{"stage": 0, "series_ratio": ratio, "gap_low": float(lo), "gap_high": float(hi)}
             for ratio, lo, hi in zip(ratios, F.min_gap_low, F.min_gap_high)]
    return KernelFamily(grid, stacks, params.p, zs, metas)


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
        family = initial_kernels(params, [0.0], grid=grid)
    except FirstStepError:
        return False
    if family.metas[0]["series_ratio"] > RATIO_MAX:
        return False
    led = polydisc_measure(family)
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
    gamma = dilation(basis, steps=steps).toarray()
    F_hat = (gamma @ res.F[:nf, :nf] @ gamma.conj().T) / params.rho0
    return F_hat, basis, res
