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

from .model import ModelParams, ConfigError, chibar
from .kernels import KernelFamily, KernelGrid, polydisc_measure, rl_frame
from . import wick


class FirstStepError(RuntimeError):
    """First decimation is outside its contractive regime."""


# bytes of evaluated query rows the resolvent's table may hold
_TABLE_BYTES = 2 ** 26


@dataclasses.dataclass
class TwoLevelResolventData:
    """Diagonal off-band inverse of the free two-level fiber operator.

    Lower-level entry carries the squared soft-cutoff complement; the upper
    level is entirely off-band.  Arguments arrive in original (unscaled)
    units, and z_phys holds the spectral parameter of every family member.
    Each distinct query row (the bytes of its r- and l-queries) is evaluated
    at every member once, its gap margins checked and recorded then, into a
    table that later queries gather from; the table serves one assembler
    pass and holds at most _TABLE_BYTES (or one row), then stores no more.
    """
    params: ModelParams
    z_phys: np.ndarray

    def __post_init__(self):
        self.z_phys = np.atleast_1d(np.asarray(self.z_phys, dtype=complex))
        self.min_gap_low = np.full(len(self.z_phys), math.inf)
        self.min_gap_high = np.full(len(self.z_phys), math.inf)
        self._index = {}        # query row bytes -> table row
        self._table = None      # (lower, upper), each (capacity, members, n_r, n_l)

    def __call__(self, rq, lqs, run=slice(None), levels=(0, 1)):
        """The levels in `levels` (0 lower, 1 upper) on each row's (r, l)
        product grid at the members in run, each (rows, members, n_r, n_l):
        rq has shape (rows, n_r), every l-query (rows, n_l).  A row is
        evaluated, and its gaps checked, at both levels."""
        keys = [row.tobytes() for row in np.concatenate([rq, *lqs], axis=1)]
        # the first row of each distinct key not in the table
        fresh = {k: keys.index(k) for k in dict.fromkeys(keys) if k not in self._index}
        if fresh:
            first = list(fresh.values())
            evaluated = self._evaluate(rq[first], [q[first] for q in lqs])
            if self._table is None:
                cap = max(1, _TABLE_BYTES // (2 * evaluated[0][0].nbytes))
                self._table = tuple(np.empty((cap,) + lv.shape[1:], complex) for lv in evaluated)
            n0 = len(self._index)
            n = min(len(fresh), len(self._table[0]) - n0)
            for table, lv in zip(self._table, evaluated):
                table[n0:n0 + n] = lv[:n]
            self._index.update(zip(list(fresh)[:n], range(n0, n0 + n)))
        at = [self._index.get(k, 0) for k in keys]
        out = tuple(self._table[t][at, run] for t in levels)
        spill = [i for i, k in enumerate(keys) if k not in self._index]
        if spill:           # rows a full table did not store: from their evaluation
            pos = dict(zip(fresh, range(len(fresh))))
            for o, t in zip(out, levels):
                o[spill] = evaluated[t][[pos[keys[i]] for i in spill], run]
        return out

    def _evaluate(self, rq, lqs):
        """Both levels of query rows at every member, after the gap checks."""
        p = self.params
        r, l2, pl = rl_frame(rq, lqs, p.p, family=True)
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
        return np.where(active, cb2 / np.where(active, b1, 1.0), 0.0), 1.0 / b2

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

    def eval_product(self, ids, rq, lqs, run=slice(None)):
        """Each row's spin matrix, (rows, 1, ..., 1, 2, 2): the same at every member and (r, l)."""
        (gid,) = np.asarray(ids, dtype=int).T
        coef = self.sign * 1j * self.lam * np.sqrt(self.grid.k_abs[gid])[:, None, None]
        return (coef * self.grid.coupling[gid]).reshape((-1,) + (1,) * (2 + len(lqs)) + (2, 2))

    def live_modes(self):
        return np.flatnonzero(np.any(self.grid.coupling != 0, axis=(1, 2)))

    def spin_pattern(self) -> np.ndarray:
        return np.any(self.grid.coupling != 0, axis=0)


def _free_part(params: ModelParams, grid: KernelGrid, zs: np.ndarray) -> np.ndarray:
    """Rescaled lower-level free symbol r + rho0 l^2/2m - p.l/m - z at
    every z of zs: shape (n_z, *base)."""
    r, l2, pl = rl_frame(grid.r_nodes, grid.l_axes, params.p)
    z = np.asarray(zs, dtype=complex).reshape((-1,) + (1,) * (1 + len(grid.l_axes)))
    return r + (params.rho0 * l2 / (2.0 * params.m) - pl / params.m) - z


def initial_kernels(params: ModelParams, zs,
                    grid: KernelGrid | None = None) -> KernelFamily:
    """Kernel sequences produced by the first decimation at every rescaled
    spectral parameter of zs, rescaled to scale 1, as one family.

    The decimation itself happens at physical parameter rho0 * z; one
    assembler pass serves every z.  Raises ConfigError when a z is not
    finite or (model.rho_power, through the assembler's WickContext) rho0
    is not an integer power of rho, and FirstStepError when
    any z is outside the half-gap window, a gap margin is violated or a
    chain series ratio reaches 1.  The ratio needs two live chain lengths:
    sigma_x coupling at L_max=3 never has them (its odd targets vanish), so
    there only the gap margins guard the decimation.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.all(np.isfinite(zs)):
        raise ConfigError("spectral parameter z must be finite")
    if grid is None:
        grid = KernelGrid(params)
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
                           scale=params.rho0, F_eval=F)
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
