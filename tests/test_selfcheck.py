import pytest

from dipolerg import wick
from dipolerg.model import ModelParams
from dipolerg.selfcheck import wick_reassembly_defect


def test_reassembly_identity_machine_precision():
    assert wick_reassembly_defect() < 1e-12
    # the toy grid's two modes carry the pair kernels whatever j_max_pair says
    assert wick_reassembly_defect(ModelParams(j_max_pair=0)) < 1e-12


def test_reassembly_identity_depth_two():
    assert wick_reassembly_defect(ModelParams(L_max=2)) < 1e-12


def test_reassembly_detects_wrong_weight(monkeypatch):
    # the check must not be vacuous: a 1e-4 bias in the combinatorial
    # weight has to show up far above the tolerance
    orig = wick.combinatorial_weight
    monkeypatch.setattr(wick, "combinatorial_weight",
                        lambda spec: orig(spec) * 1.0001)
    assert wick_reassembly_defect() > 1e-5


def test_reassembly_detects_wrong_sign(monkeypatch):
    orig = wick.internal_pairings
    monkeypatch.setattr(wick, "internal_pairings",
                        lambda spec: orig(spec)[:1] if orig(spec) else [])
    assert wick_reassembly_defect() > 1e-5
