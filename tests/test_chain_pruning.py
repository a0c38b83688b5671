"""The chain assembler skips structurally zero chains before evaluating them.

Each test runs the same computation twice, the second time with every
vertex reported live on every mode and every spin entry reported
non-zero, so that no chain is skipped, and requires identical numbers.
"""

import numpy as np
import pytest

from dipolerg import firststep, wick
from dipolerg.firststep import initial_kernels
from dipolerg.kernels import Kernel
from dipolerg.model import ModelParams, SIGMA_X, SIGMA_Z
from dipolerg.rgflow import renormalize
from dipolerg.selfcheck import wick_reassembly_defect

MIX = 0.6 * SIGMA_X + 0.8 * SIGMA_Z


def _switch_off_pruning(monkeypatch):
    def every_mode(self):
        return np.arange(len(self.grid.modes))

    monkeypatch.setattr(Kernel, "live_modes", every_mode)
    monkeypatch.setattr(firststep._SpinVertex, "live_modes", every_mode)
    monkeypatch.setattr(firststep._SpinVertex, "spin_pattern",
                        lambda self: np.ones((2, 2), dtype=bool))


def _count_chains(monkeypatch):
    """Record the term shape of every chain the assembler evaluates: one
    entry per row of each evaluated batch."""
    shapes = []
    orig = wick._chain_rows

    def counted(ctx, spec, modes, ends, queries):
        shapes.extend([spec] * len(modes))
        return orig(ctx, spec, modes, ends, queries)

    monkeypatch.setattr(wick, "_chain_rows", counted)
    return shapes


def _assert_same_sequence(a, b):
    assert sorted(a.stacks) == sorted(b.stacks)
    for mn in a.stacks:
        assert a.stacks[mn].n_modes == b.stacks[mn].n_modes
        assert np.array_equal(a.stacks[mn].values, b.stacks[mn].values)
    assert a.metas == b.metas


@pytest.mark.parametrize("coupling", [SIGMA_X, MIX], ids=["sigma_x", "mix"])
def test_first_step_pruning_is_exact(monkeypatch, coupling):
    # meta carries the gap guard's minima: skipping chains skips resolvent
    # evaluations, and the minima must not move
    params = ModelParams(lam0=0.004, j_max=5, j_max_pair=4, spin_coupling=coupling)
    pruned = initial_kernels(params, [0.05 * params.mu])
    _switch_off_pruning(monkeypatch)
    full = initial_kernels(params, [0.05 * params.mu])
    _assert_same_sequence(pruned, full)
    assert set(pruned.metas[0]) >= {"gap_low", "gap_high"}


def test_sigz_renormalize_pruning_is_exact_and_skips_nearly_every_chain(monkeypatch):
    params = ModelParams(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    family = initial_kernels(params, [0.0])
    shapes = _count_chains(monkeypatch)
    pruned = renormalize(family, params)
    n_pruned = len(shapes)
    _switch_off_pruning(monkeypatch)
    shapes.clear()
    full = renormalize(family, params)
    _assert_same_sequence(pruned, full)
    assert 0 < n_pruned <= 0.01 * len(shapes)


def test_wick_defect_pruning_is_exact(monkeypatch):
    pruned = wick_reassembly_defect()
    _switch_off_pruning(monkeypatch)
    assert wick_reassembly_defect() == pruned


@pytest.mark.parametrize("coupling,odd_live", [(SIGMA_X, False), (SIGMA_Z, True), (MIX, True)],
                         ids=["sigma_x", "sigma_z", "mix"])
def test_odd_first_step_targets_follow_the_spin_pattern(monkeypatch, coupling, odd_live):
    # an odd chain of sigma_x vertices has no <0|...|0> entry: its targets
    # evaluate no chain and are dropped; any diagonal part keeps them
    shapes = _count_chains(monkeypatch)
    params = ModelParams(lam0=0.004, j_max=4, j_max_pair=4, spin_coupling=coupling)
    seq = initial_kernels(params, [0.0])
    odd = [s for s in shapes if s.M + s.N == 1]
    assert bool(odd) == odd_live
    assert ((1, 0) in seq.stacks) == odd_live
    assert ((0, 1) in seq.stacks) == odd_live
    assert len(shapes) > len(odd)
