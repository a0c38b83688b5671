"""The iterated decimate-and-rescale flow on kernel sequences.

Each stage removes the top field-energy shell with a soft partition,
re-expands the off-band inverse as a chain series over the current
kernels, and rescales back to the unit band.  The spectral parameter is
tracked as an analytic family over Chebyshev sample nodes, stored as one
KernelFamily per stage; its per-stage reparameterization, fitted to the
members' band-symbol origins, is inverted numerically and composed into
the energy chain whose limit is the fiber ground energy.  A single
member (the ledger's, the final slopes') is a family of one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import ConfigError, ModelParams, chi, chibar
from .kernels import (KernelFamily, KernelGrid, polydisc_measure, rl_frame,
                      scale_transform, base_gradients)
from . import wick
from .firststep import initial_kernels, FirstStepError
from . import feshbach, oracle
from .fockspace import FockBasis


class FlowError(RuntimeError):
    """The flow left its contractive regime."""


# ---------------------------------------------------------------------------
# one decimate-and-rescale step

def _band_denominator(family: KernelFamily):
    """Closure evaluating the soft off-band inverse of each (0,0) symbol, a
    resolvent of one spin level.

    Arguments arrive at the pre-rescale scale of the current sequences:
    entries beyond the unit band are zero (the implicit band indicator of
    the monomials), and the squared cutoff complement sits on top of the
    interpolated symbol.  Raises FlowError near a zero of a symbol.
    """
    def F_eval(rq, lqs, run=slice(None), levels=(0,)):
        # rq (rows, n_r), every l-query (rows, n_l); the members in run; one level
        rcol, l2, _ = rl_frame(rq, lqs, family=True)
        cb2 = chibar(rcol, family.grid.rho) ** 2
        inside = rcol <= 1.0 + 1e-12
        vals = family.stacks[(0, 0)].eval_product(
            np.zeros((len(rq), 0), int), rq, lqs, run)[..., 0, 0]
        # physical region only: field momentum cannot exceed field energy
        live = (cb2 > 0.0) & inside & (np.sqrt(l2) <= rcol + 1e-9)
        if np.any(live & (np.abs(vals) < 1e-12)):
            raise FlowError("band symbol vanishes inside the decimation region")
        return (np.where(live, cb2 / np.where(live, vals, 1.0), 0.0),)

    return F_eval


def _band_margin(family: KernelFamily) -> np.ndarray:
    """Each member's smallest |w00| over the region the decimation inverts."""
    grid = family.grid
    live_r = chibar(grid.r_nodes, grid.rho) > 0.0
    mask = grid.mask & live_r.reshape((-1,) + (1,) * len(grid.l_axes))
    vals = np.where(mask, np.abs(family.stacks[(0, 0)].values), np.inf)
    return vals.min(axis=tuple(range(1, vals.ndim)))


def renormalize(family: KernelFamily, params: ModelParams) -> KernelFamily:
    """One flow step: soft decimation of the top shell, then rescale.

    The (0,0) part passes through as scale_transform of the band symbol
    plus closed chain corrections; kernels with m+n in [1, M_max] are
    reassembled from all chain shapes up to depth L_max, the assembler
    rescaling them as it goes.  One assembler pass serves every member,
    with the numbers of renormalizing it as a family of one; a member that
    misses its band margin or diverges raises FlowError.
    """
    grid = family.grid
    rho = grid.rho
    floor = params.mu * rho / 8.0
    margins = _band_margin(family)
    for margin in margins:
        if margin < floor:
            raise FlowError(f"band margin {margin:.3e} below {floor:.3e}")
    ctx = wick.WickContext(
        grid=grid, vertices=family.stacks, L_max=params.L_max, scale=rho,
        F_eval=_band_denominator(family),
        F_max=4.0 / np.maximum(margins, 1e-300))
    # rescaled passthrough of the band symbol, no boundary factors
    w00_base = scale_transform(family.stacks[(0, 0)])
    stacks, ratios = wick._assemble_kernels(ctx, params.M_max, w00_base)
    for ratio in ratios:
        if ratio >= 1.0:
            raise FlowError(f"chain series diverges: ratio {ratio:.3f}")
    metas = [{"stage": int(meta.get("stage", 0)) + 1,
              "series_ratio": ratio, "band_margin": float(margin)}
             for meta, ratio, margin in zip(family.metas, ratios, margins)]
    return KernelFamily(grid, stacks, family.p, family.zs, metas)


# ---------------------------------------------------------------------------
# spectral parameter bookkeeping

def cheb_nodes(n: int, half_width: float) -> np.ndarray:
    """Chebyshev-Gauss nodes on [-half_width, half_width]; odd n contains 0."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * math.pi / (2 * n))
    x = np.sort(x)
    x[np.abs(x) < 1e-15] = 0.0
    return half_width * x


def _lagrange_weights(nodes: np.ndarray, targets) -> np.ndarray:
    """Barycentric interpolation weights: row i interpolates at targets[i]."""
    bw = np.array([1.0 / np.prod(x - np.delete(nodes, i)) for i, x in enumerate(nodes)])
    rows = []
    for x in targets:
        d = x - nodes
        hit = np.abs(d) < 1e-300
        if np.any(hit):
            rows.append(hit.astype(float))
        else:
            t = bw / d
            rows.append(t / t.sum())
    return np.array(rows)


@dataclasses.dataclass
class StageMap:
    """Polynomial model of one stage's spectral reparameterization."""
    nodes: np.ndarray
    coef: np.ndarray       # polynomial fit, ascending powers
    dcoef: np.ndarray      # its derivative, for the Newton steps of inverse

    @classmethod
    def fit(cls, nodes, values):
        deg = len(nodes) - 1
        coef = np.polynomial.polynomial.polyfit(nodes, values, deg)
        return cls(nodes=np.asarray(nodes), coef=coef,
                   dcoef=np.polynomial.polynomial.polyder(coef))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coef)

    def inverse(self, target: complex, rho: float, tol: float) -> complex:
        """Solve E(z) = target by Newton from the contraction seed rho*target."""
        z = rho * target
        for _ in range(60):
            f = np.polynomial.polynomial.polyval(z, self.coef) - target
            if abs(f) < tol:
                break
            df = np.polynomial.polynomial.polyval(z, self.dcoef)
            if abs(df) < 1e-300:
                raise FlowError("spectral reparameterization has a flat spot")
            z = z - f / df
        else:
            raise FlowError("spectral reparameterization inversion stalled")
        lim = 1.0001 * float(np.max(np.abs(self.nodes)))
        if abs(z) > lim:
            raise FlowError("spectral parameter left the sample window")
        return complex(z)


def interpolate_family(family: KernelFamily, weights: np.ndarray, zs) -> KernelFamily:
    """The family interpolated by the Lagrange weight matrix (see
    _lagrange_weights), member k by row k, with spectral parameter zs[k] and
    its meta: one contraction of each kernel stack.  The input family's
    stacks are dropped, each once contracted: a renormalized family can be
    far smaller than its input, so two whole families here would set the
    flow's memory peak (so would a member view of the input kept alive)."""
    stacks = {mn: np.tensordot(weights, family.stacks.pop(mn).values, axes=1)
              for mn in list(family.stacks)}
    return KernelFamily(family.grid, stacks, family.p, zs, family.metas)


# ---------------------------------------------------------------------------
# the full flow

@dataclasses.dataclass
class FlowResult:
    energy: float                  # fiber ground energy at this momentum
    e_chain: list                  # per-stage composed energy estimates
    stages: int
    ledgers: list                  # polydisc measures per stage
    series_ratios: list
    stage_maps: list
    final_family: KernelFamily     # the last stage, one member per z-node
    z_nodes: np.ndarray


def _compose_chain(stage_maps: list[StageMap], rho: float, tol: float) -> complex:
    """e = h_0(h_1(... h_n(0))): pull 0 back through every stage map."""
    e = 0.0 + 0.0j
    for sm in reversed(stage_maps):
        e = sm.inverse(e, rho, tol)
    return e


def run_flow(params: ModelParams, z_half_width_frac: float = 0.45,
             min_stages: int = 2) -> FlowResult:
    """Iterate the flow from the first decimation until the energy chain
    is Cauchy at params.tol_factor * mu.  Returns the composed ground
    energy in physical units (rho0 times the limiting rescaled value).
    Raises FlowError when params.n_flow_max stages pass without meeting
    the criterion, and ConfigError when n_flow_max is below min_stages.
    """
    n_max = params.n_flow_max
    if n_max < min_stages:
        raise ConfigError(f"n_flow_max={n_max} is below min_stages={min_stages}")
    mu = params.mu
    rho = params.rho
    tol = params.tol_factor * mu
    nodes = cheb_nodes(params.n_z_samples, z_half_width_frac * mu)
    grid = KernelGrid(params)
    try:
        family = initial_kernels(params, nodes, grid=grid)
    except FirstStepError as exc:
        raise FlowError(f"first decimation failed: {exc}") from exc

    stage_maps: list[StageMap] = []
    e_chain: list[complex] = []
    ledgers = []
    ratios = []
    newton_tol = 1e-12 * mu
    for stage in range(n_max + 1):
        sm = StageMap.fit(nodes, -family.w00_origins() / rho)
        stage_maps.append(sm)
        e = _compose_chain(stage_maps, rho, newton_tol)
        e_chain.append(e)
        ledgers.append(polydisc_measure(family[len(nodes) // 2]))
        ratios.append(family.metas[len(nodes) // 2].get("series_ratio", 0.0))
        if stage >= max(min_stages, 2) and abs(e_chain[-1] - e_chain[-2]) < tol:
            break
        if stage == n_max:
            raise FlowError(f"energy chain not Cauchy after {n_max} stages: last step "
                            f"{abs(e_chain[-1] - e_chain[-2]):.3e}, tolerance {tol:.3e}")
        sources = [sm.inverse(complex(zk), rho, newton_tol) for zk in nodes]
        # member k, pulled back to sources[k], renormalizes to the family at nodes[k]
        family = interpolate_family(family, _lagrange_weights(nodes, sources), nodes)
        family = renormalize(family, params)
    energy = params.rho0 * complex(e_chain[-1]).real
    return FlowResult(energy=energy, e_chain=e_chain, stages=len(e_chain) - 1,
                      ledgers=ledgers, series_ratios=ratios,
                      stage_maps=stage_maps, final_family=family, z_nodes=nodes)


# ---------------------------------------------------------------------------
# marginal coefficients and the ground state

def extract_alpha_beta(family: KernelFamily) -> tuple[float, np.ndarray]:
    """Slopes of a family of one's band symbol at the origin: (d/dr, d/dl
    per axis)."""
    g = family.grid
    alpha, *beta = [float(np.real(d[(g.r0_idx,) + g.l0_idx]))
                    for d in base_gradients(family.stacks[(0, 0)][0])]
    return alpha, np.array(beta)


def ground_state(params: ModelParams, energy: float,
                 basis: FockBasis | None = None):
    """Leading reconstruction of the fiber ground state on the matrix space.

    Applies the first decimation's back-transport to the band vacuum at the
    computed energy: the partition keeps the lower level with field energy
    below rho0 (soft cutoff chi) and removes the upper level entirely, and
    the reference is the diagonal of H(p) - energy.  Depth-one truncation:
    corrections are of the order of the post-decimation kernel norms.
    Returns (vector, residual, basis) with the residual |(H - E) psi| / |psi|;
    raises FlowError when the back-transport fails.
    """
    H, basis = oracle.build_fiber_hamiltonian(params, basis, z=energy)
    chi_vec = np.concatenate([chi(basis.r, params.rho0), np.zeros(len(basis))])
    vac = np.zeros(2 * len(basis), dtype=complex)
    vac[basis.vacuum_index] = 1.0      # lower level block comes first
    try:
        psi = feshbach.back_transport(H, chi_vec, vac)
    except feshbach.DecimationError as exc:
        raise FlowError(f"ground state reconstruction failed: {exc}") from exc
    nrm = np.linalg.norm(psi)
    if nrm < 1e-300:
        raise FlowError("ground state reconstruction produced the zero vector")
    psi = psi / nrm
    residual = float(np.linalg.norm(H @ psi))
    return psi, residual, basis
