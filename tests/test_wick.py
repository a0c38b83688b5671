import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolerg.model import ConfigError
from dipolerg import wick
from dipolerg.wick import (TermSpec, enumerate_term_specs, combinatorial_weight,
                           internal_pairings, pull_shifts, series_ratio)


# Counting reference: contraction schemes of a literal operator pattern,
# enumerated independently of the term-shape machinery in wick.

@dataclasses.dataclass(frozen=True)
class ContractionScheme:
    """Uncontracted positions plus a pairing of the rest.

    pattern positions hold '+' (creation) or '-' (annihilation); each paired
    annihilation sits left of its creation partner, as required for a
    nonzero vacuum expectation of the contracted part.
    """
    uncontracted: tuple
    pairs: tuple          # ((annih_pos, create_pos), ...)


def enumerate_contractions(pattern) -> list[ContractionScheme]:
    """All schemes with a nonzero vacuum expectation of the contracted part."""
    pattern = list(pattern)
    if not pattern:
        raise ConfigError("pattern must be nonempty")
    if any(s not in ("+", "-") for s in pattern):
        raise ConfigError("pattern entries must be '+' or '-'")
    npos = len(pattern)
    schemes = []
    for keep_mask in itertools.product((False, True), repeat=npos):
        kept = tuple(i for i in range(npos) if keep_mask[i])
        rest = [i for i in range(npos) if not keep_mask[i]]
        ann = [i for i in rest if pattern[i] == "-"]
        cre = [i for i in rest if pattern[i] == "+"]
        if len(ann) != len(cre):
            continue
        for perm in itertools.permutations(cre):
            if all(a < c for a, c in zip(ann, perm)):
                schemes.append(ContractionScheme(kept, tuple(zip(ann, perm))))
    return schemes


def test_contraction_counts_small_patterns():
    # counted by hand: keep-all, plus every admissible pairing subset
    assert len(enumerate_contractions("+-")) == 1
    assert len(enumerate_contractions("-+")) == 2
    assert len(enumerate_contractions("+-+-")) == 2
    assert len(enumerate_contractions("+--+")) == 3
    assert len(enumerate_contractions("--++")) == 7


def test_contraction_pair_orientation():
    for scheme in enumerate_contractions("--++-+"):
        for a, c in scheme.pairs:
            assert a < c


def test_contraction_rejects_bad_pattern():
    with pytest.raises(ConfigError):
        enumerate_contractions("")
    with pytest.raises(ConfigError):
        enumerate_contractions("+x")


def test_term_spec_validation():
    with pytest.raises(ConfigError):
        TermSpec(m=(0,), p=(0,), n=(0,), q=(0,))      # legless vertex
    with pytest.raises(ConfigError):
        TermSpec(m=(1, 0), p=(0,), n=(0, 0), q=(0, 0))
    s = TermSpec(m=(1, 0), p=(0, 1), n=(0, 1), q=(1, 0))
    assert s.L == 2 and s.M == 1 and s.N == 1
    assert s.vertex_kernel(0) == (1, 1)


def test_enumerate_specs_respects_available():
    specs = enumerate_term_specs(1, 1, 2, {(1, 0), (0, 1)})
    for s in specs:
        for i in range(s.L):
            assert s.vertex_kernel(i) in {(1, 0), (0, 1)}
            assert sum(s.vertex_kernel(i)) == 1
    # (1,1) from two single-leg vertices: exactly the two orderings
    assert len([s for s in specs if s.L == 2]) == 2
    assert not [s for s in specs if s.L == 1]


def test_enumerate_specs_excludes_diagonal_passthrough():
    specs = enumerate_term_specs(0, 0, 3, {(1, 0), (0, 1), (1, 1)})
    assert all(s.L >= 2 for s in specs)
    # internal lines must balance
    for s in specs:
        assert sum(s.p) == sum(s.q)


def test_combinatorial_weight_binomials():
    s = TermSpec(m=(1,), p=(1,), n=(0,), q=(0,))
    assert combinatorial_weight(s) == 2      # choose which leg is external
    s = TermSpec(m=(1, 0), p=(1, 1), n=(0, 0), q=(0, 2))
    assert combinatorial_weight(s) == 2          # comb(2,1) at vertex 0
    s = TermSpec(m=(0,), p=(0,), n=(1,), q=(1,))
    assert combinatorial_weight(s) == 2


def test_internal_pairings_orientation():
    # annihilators must sit left of their creators along the chain
    s = TermSpec(m=(0, 0, 0), p=(0, 1, 1), n=(0, 0, 0), q=(1, 1, 0))
    pairings = internal_pairings(s)
    for pairing in pairings:
        for (i, j, _slot) in pairing:
            assert i < j
    # ann(0) -> cre(1) forced once ann(1) -> cre(2) is the only option left
    assert len(pairings) == 1
    # flipped orientation has no admissible pairing at all
    flipped = TermSpec(m=(0, 0, 0), p=(1, 1, 0), n=(0, 0, 0), q=(0, 1, 1))
    assert internal_pairings(flipped) == []


def test_internal_pairings_count_factorial():
    # two annihilators at vertex 0 paired with two creators at vertex 1:
    # 2! orderings of the creator slots
    s = TermSpec(m=(0, 0), p=(0, 2), n=(0, 0), q=(2, 0))
    assert len(internal_pairings(s)) == 2


def _scheme_count_by_shape(M, N, L, kernel_degrees):
    """Independent count of Wick schemes, grouped by per-vertex external legs.

    Builds the literal operator pattern of a chain of monomials and counts
    enumerate_contractions schemes whose kept legs match each spec, keeping
    the schemes distinguishable only up to the slot relabeling that
    combinatorial_weight accounts for.
    """
    counts = {}
    for degrees in itertools.product(kernel_degrees, repeat=L):
        pattern = []
        vertex_of = []
        kind = []
        for v, (a, b) in enumerate(degrees):
            pattern += ["+"] * a + ["-"] * b
            vertex_of += [v] * (a + b)
            kind += ["+"] * a + ["-"] * b
        for scheme in enumerate_contractions(pattern):
            m = [0] * L
            n = [0] * L
            for pos in scheme.uncontracted:
                if kind[pos] == "+":
                    m[vertex_of[pos]] += 1
                else:
                    n[vertex_of[pos]] += 1
            if sum(m) != M or sum(n) != N:
                continue
            for a, c in scheme.pairs:
                if vertex_of[a] >= vertex_of[c]:
                    break
            else:
                p = [0] * L
                q = [0] * L
                for a, c in scheme.pairs:
                    q[vertex_of[a]] += 1
                    p[vertex_of[c]] += 1
                key = (tuple(m), tuple(p), tuple(n), tuple(q))
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("M,N,L", [(0, 0, 2), (1, 1, 2), (2, 0, 2), (1, 0, 3)])
def test_scheme_count_identity(M, N, L):
    """weight(spec) * #pairings(spec) reproduces the raw scheme count."""
    degrees = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    raw = _scheme_count_by_shape(M, N, L, degrees)
    specs = [s for s in enumerate_term_specs(M, N, L, set(degrees)) if s.L == L]
    predicted = {}
    for s in specs:
        key = (s.m, s.p, s.n, s.q)
        predicted[key] = combinatorial_weight(s) * len(internal_pairings(s))
    raw = {k: v for k, v in raw.items() if v}
    predicted = {k: v for k, v in predicted.items() if v}
    assert raw == predicted


def test_pull_shifts_telescoping():
    """Gap shifts interleave vertex shifts: rt[t] - rt[t+1] swaps vertex t's
    created external energy for its annihilated one."""
    spec = TermSpec(m=(1, 2, 0), p=(1, 0, 0), n=(0, 1, 1), q=(0, 0, 1))
    k_abs = np.array([1.0, 0.45, 0.2025, 0.0911])
    k_vec = np.array([[1.0], [-0.45], [0.2025], [-0.0911]])
    create_ids = [[0], [1, 2], []]
    annih_ids = [[], [3], [0]]
    rec = pull_shifts(spec, create_ids, annih_ids, k_abs, k_vec)
    ce = [sum(k_abs[i] for i in ids) for ids in create_ids]
    ae = [sum(k_abs[i] for i in ids) for ids in annih_ids]
    for t in range(spec.L):
        assert rec.rt[t] - rec.rt[t + 1] == pytest.approx(ce[t] - ae[t])
        # vertex shift sits between its neighbouring gap shifts
        assert rec.r[t] == pytest.approx(rec.rt[t] - ce[t])
        assert rec.r[t] == pytest.approx(rec.rt[t + 1] - ae[t])
    assert rec.rt[0] == pytest.approx(sum(ce))
    assert rec.rt[-1] == pytest.approx(sum(ae))


def test_pull_shifts_validates_assignment():
    spec = TermSpec(m=(1,), p=(1,), n=(0,), q=(0,))
    with pytest.raises(ConfigError):
        pull_shifts(spec, [[]], [[]], np.array([1.0]), np.array([[1.0]]))


def test_series_ratio_decay_from_peak():
    assert series_ratio({1: 1.0, 2: 0.1, 3: 0.01}) == pytest.approx(0.1)
    # growth into a peak then decay: rate measured from the peak only
    assert series_ratio({1: 1e-6, 2: 1.0, 3: 0.2}) == pytest.approx(0.2)
    assert series_ratio({1: 0.0, 2: 1.0}) == 0.0    # single live entry
    assert series_ratio({}) == 0.0
