"""The iterated decimate-and-rescale flow on kernel sequences.

Each stage removes the top field-energy shell with a soft partition,
re-expands the off-band inverse as a chain series over the current
kernels, and rescales back to the unit band.  The spectral parameter is
tracked as an analytic family over Chebyshev sample nodes; its per-stage
reparameterization is inverted numerically and composed into the energy
chain whose limit is the fiber ground energy.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import ModelParams, chibar
from .kernels import (Kernel, KernelGrid, KernelSequence, interp_product,
                      polydisc_measure, _l_sums)
from . import wick
from .firststep import initial_kernels, FirstStepError, spin_fock_decimation
from .fockspace import FockBasis


# chain shapes whose a-priori magnitude bound falls below this are skipped
_PRUNE = 1e-14


class FlowError(RuntimeError):
    """The flow left its contractive regime."""


# ---------------------------------------------------------------------------
# one decimate-and-rescale step

def _band_denominator(seq: KernelSequence):
    """Closure evaluating the soft off-band inverse of the (0,0) symbol.

    Arguments arrive at the pre-rescale scale of the current sequence:
    entries beyond the unit band are zero (the implicit band indicator of
    the monomials), and the squared cutoff complement sits on top of the
    interpolated symbol.  Raises FlowError near a zero of the symbol.
    """
    grid = seq.grid
    rho = grid.rho
    w00 = seq.w00

    def F_eval(rq, lqs):
        cb2 = chibar(rq, rho) ** 2
        inside = np.asarray(rq) <= 1.0 + 1e-12
        shape = (len(rq),) + tuple(len(q) for q in lqs)
        live_r = (cb2 > 0.0) & inside
        vals = w00.eval_product((), rq, lqs)
        # physical region only: field momentum cannot exceed field energy
        l2, _ = _l_sums(lqs)
        rcol = np.asarray(rq).reshape((-1,) + (1,) * len(lqs))
        live = (live_r.reshape((-1,) + (1,) * len(lqs))
                & (np.sqrt(l2) <= rcol + 1e-9))
        live = np.broadcast_to(live, shape)
        floor = 1e-12
        bad = live & (np.abs(vals) < floor)
        if np.any(bad):
            raise FlowError("band symbol vanishes inside the decimation region")
        denom = np.where(live, vals, 1.0)
        num = (cb2 * inside).reshape((-1,) + (1,) * len(lqs))
        return np.where(live, num / denom, 0.0)

    return F_eval


def _band_margin(seq: KernelSequence) -> float:
    """Smallest |w00| over the region the decimation actually inverts."""
    grid = seq.grid
    cb = chibar(grid.r_nodes, grid.rho)
    live_r = cb > 0.0
    mask = grid.mask & live_r.reshape((-1,) + (1,) * len(grid.l_axes))
    vals = np.where(mask, np.abs(seq.w00.values), np.inf)
    return float(vals.min())


def renormalize(seq: KernelSequence, params: ModelParams) -> KernelSequence:
    """One flow step: soft decimation of the top shell, then rescale.

    The (0,0) part passes through as the rescaled symbol plus closed chain
    corrections; kernels with m+n in [1, M_max] are reassembled from all
    chain shapes up to depth L_max.
    """
    grid = seq.grid
    rho = grid.rho
    mu = params.mu
    margin = _band_margin(seq)
    if margin < mu * rho / 8.0:
        raise FlowError(f"band margin {margin:.3e} below {mu * rho / 8.0:.3e}")
    ctx = wick.WickContext(
        grid=grid, vertices=seq.kernels, L_max=params.L_max, scale=rho,
        ext_shift_steps=1, F_eval=_band_denominator(seq),
        F_max=4.0 / max(margin, 1e-300), prune=_PRUNE)
    # rescaled passthrough of the band symbol, no boundary factors
    queries = [rho * grid.r_nodes] + [rho * ax for ax in grid.l_axes]
    w00_base = interp_product(seq.w00.values, grid.base_axes, queries) / rho
    new_kernels, ratio = wick._assemble_kernels(ctx, params.M_max, w00_base)
    if ratio >= 1.0:
        raise FlowError(f"chain series diverges: ratio {ratio:.3f}")
    meta = {"stage": int(seq.meta.get("stage", 0)) + 1,
            "series_ratio": ratio, "band_margin": margin}
    return KernelSequence(grid, new_kernels, seq.p, seq.z, meta)


# ---------------------------------------------------------------------------
# spectral parameter bookkeeping

def cheb_nodes(n: int, half_width: float) -> np.ndarray:
    """Chebyshev-Gauss nodes on [-half_width, half_width]; odd n contains 0."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * math.pi / (2 * n))
    x = np.sort(x)
    x[np.abs(x) < 1e-15] = 0.0
    return half_width * x


def _lagrange_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """Barycentric interpolation weights at a point."""
    d = x - nodes
    hit = np.abs(d) < 1e-300
    if np.any(hit):
        w = np.zeros_like(nodes)
        w[np.argmax(hit)] = 1.0
        return w
    bw = np.ones_like(nodes)
    for i in range(len(nodes)):
        bw[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    t = bw / d
    return t / t.sum()


@dataclasses.dataclass
class StageMap:
    """Polynomial model of one stage's spectral reparameterization."""
    nodes: np.ndarray
    coef: np.ndarray       # polynomial fit, ascending powers

    @classmethod
    def fit(cls, nodes, values):
        deg = len(nodes) - 1
        coef = np.polynomial.polynomial.polyfit(nodes, values, deg)
        return cls(nodes=np.asarray(nodes), coef=coef)

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coef)

    def inverse(self, target: complex, rho: float, tol: float) -> complex:
        """Solve E(z) = target by Newton from the contraction seed rho*target."""
        z = rho * target
        dcoef = np.polynomial.polynomial.polyder(self.coef)
        for _ in range(60):
            f = np.polynomial.polynomial.polyval(z, self.coef) - target
            if abs(f) < tol:
                break
            df = np.polynomial.polynomial.polyval(z, dcoef)
            if abs(df) < 1e-300:
                raise FlowError("spectral reparameterization has a flat spot")
            z = z - f / df
        else:
            raise FlowError("spectral reparameterization inversion stalled")
        lim = 1.0001 * float(np.max(np.abs(self.nodes)))
        if abs(z) > lim:
            raise FlowError("spectral parameter left the sample window")
        return complex(z)


def interpolate_family(seqs: list[KernelSequence], nodes: np.ndarray,
                       z: complex) -> KernelSequence:
    """Kernel family member at an off-node spectral parameter (Lagrange)."""
    w = _lagrange_weights(nodes, complex(z))
    grid = seqs[0].grid
    indices = sorted({mn for s in seqs for mn in s.indices()})
    out = {}
    for mn in indices:
        ref = next(s.kernel(*mn) for s in seqs if s.kernel(*mn) is not None)
        acc = np.zeros_like(ref.values)
        for wk, s in zip(w, seqs):
            ker = s.kernel(*mn)
            if ker is not None:
                acc = acc + wk * ker.values
        out[mn] = Kernel(mn[0], mn[1], grid, acc, ref.mode_ids)
    meta = dict(seqs[0].meta)
    return KernelSequence(grid, out, seqs[0].p, z, meta)


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
    final_seqs: list
    z_nodes: np.ndarray


def _compose_chain(stage_maps: list[StageMap], rho: float, tol: float) -> complex:
    """e = h_0(h_1(... h_n(0))): pull 0 back through every stage map."""
    e = 0.0 + 0.0j
    for sm in reversed(stage_maps):
        e = sm.inverse(e, rho, tol)
    return e


def run_flow(params: ModelParams, n_max: int = 40,
             tol_factor: float = 1e-10, z_half_width_frac: float = 0.45,
             min_stages: int = 2) -> FlowResult:
    """Iterate the flow from the first decimation until the energy chain
    is Cauchy at tol_factor * mu.  Returns the composed ground energy in
    physical units (rho0 times the limiting rescaled value).
    """
    mu = params.mu
    rho = params.rho
    tol = tol_factor * mu
    nodes = cheb_nodes(params.n_z_samples, z_half_width_frac * mu)
    grid = KernelGrid(params)
    try:
        seqs = [initial_kernels(params, zk, grid=grid) for zk in nodes]
    except FirstStepError as exc:
        raise FlowError(f"first decimation failed: {exc}") from exc

    stage_maps: list[StageMap] = []
    e_chain: list[complex] = []
    ledgers = []
    ratios = []
    newton_tol = 1e-12 * mu
    for stage in range(n_max + 1):
        origins = np.array([s.w00_origin() for s in seqs])
        sm = StageMap.fit(nodes, -origins / rho)
        stage_maps.append(sm)
        e = _compose_chain(stage_maps, rho, newton_tol)
        e_chain.append(e)
        ledgers.append(polydisc_measure(seqs[len(nodes) // 2]))
        ratios.append(seqs[len(nodes) // 2].meta.get("series_ratio", 0.0))
        if stage >= max(min_stages, 2) and abs(e_chain[-1] - e_chain[-2]) < tol:
            break
        if stage == n_max:
            break
        new_seqs = []
        for zk in nodes:
            z_src = sm.inverse(complex(zk), rho, newton_tol)
            member = interpolate_family(seqs, nodes, z_src)
            nxt = renormalize(member, params)
            nxt.z = complex(zk)       # relabel to the new spectral parameter
            new_seqs.append(nxt)
        seqs = new_seqs
    energy = params.rho0 * complex(e_chain[-1]).real
    return FlowResult(energy=energy, e_chain=e_chain, stages=len(e_chain) - 1,
                      ledgers=ledgers, series_ratios=ratios,
                      stage_maps=stage_maps, final_seqs=seqs, z_nodes=nodes)


# ---------------------------------------------------------------------------
# marginal coefficients and the ground state

def extract_alpha_beta(seq: KernelSequence) -> tuple[float, np.ndarray]:
    """Slopes of the band symbol at the origin: (d/dr, d/dl per axis)."""
    g = seq.grid
    vals = seq.w00.values
    dr = np.gradient(vals, g.r_nodes, axis=0, edge_order=2)
    alpha = float(np.real(dr[(g.r0_idx,) + g.l0_idx]))
    beta = []
    for a, ax in enumerate(g.l_axes):
        dl = np.gradient(vals, ax, axis=1 + a, edge_order=2)
        beta.append(float(np.real(dl[(g.r0_idx,) + g.l0_idx])))
    return alpha, np.array(beta)


def ground_state(params: ModelParams, energy: float,
                 basis: FockBasis | None = None):
    """Leading reconstruction of the fiber ground state on the matrix space.

    Applies the first decimation's back-transport operator to the band
    vacuum at the computed energy.  Depth-one truncation: corrections are
    of the order of the post-decimation kernel norms.  Returns (vector,
    residual, basis) with the residual |(H - E) psi| / |psi|.
    """
    Hd, basis, res = spin_fock_decimation(params, energy, basis)
    vac = np.zeros(2 * len(basis), dtype=complex)
    vac[basis.vacuum_index] = 1.0      # lower level block comes first
    psi = res.Q @ vac
    nrm = np.linalg.norm(psi)
    if nrm < 1e-300:
        raise FlowError("ground state reconstruction produced the zero vector")
    psi = psi / nrm
    residual = float(np.linalg.norm(Hd @ psi))
    return psi, residual, basis
