import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chargedfock.fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    inner_product,
    norm_sq,
    partitions_of,
    states_equal,
    zsym,
)
from chargedfock.scalar import GaussianRational, make_context
from state_reference import dump_state, gram

EXACT = make_context("exact-rational")


def brute_partitions(n, max_part=None):
    """Independent generator: unordered sums, built as sorted tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return {()}
    out = set()
    for first in range(1, min(n, max_part) + 1):
        for rest in brute_partitions(n - first, first):
            out.add(tuple(sorted((first,) + rest, reverse=True)))
    return out


def contraction_inner(lam, mu):
    """<J_{-lam} vac, J_{-mu} vac> reduced purely through [J_a, J_{-b}] = a*delta_{ab}."""
    if sum(lam) != sum(mu):
        return 0
    if not lam:
        return 1
    a, rest = lam[0], lam[1:]
    total = 0
    for i in range(len(mu)):
        if mu[i] == a:
            total += a * contraction_inner(rest, mu[:i] + mu[i + 1 :])
    return total


def test_partition_counts():
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(12)) == 77
    for n in range(11):
        assert set(partitions_of(n)) == brute_partitions(n)
        assert len(partitions_of(n)) == len(brute_partitions(n))


def test_partitions_reverse_lex_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(1, 13):
        ps = partitions_of(n)
        assert list(ps) == sorted(ps, reverse=True)
        assert all(sum(p) == n for p in ps)
        assert all(list(p) == sorted(p, reverse=True) for p in ps)


def test_gram_matches_contraction_oracle():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert gram(lam, mu) == contraction_inner(lam, mu)


def test_zsym_examples():
    assert zsym(()) == 1
    assert zsym((1,)) == 1
    assert zsym((1, 1)) == 2
    assert zsym((2,)) == 2
    assert zsym((2, 2)) == 8
    assert zsym((3, 1, 1)) == 6
    assert zsym((2, 1, 1)) == 4


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(-1, 0, 0)
    with pytest.raises(ValueError):
        Truncation(4, 2, -2)
    t = Truncation(4, -2, 2)
    assert t.admits_level(4) and not t.admits_level(5)
    assert t.admits_sector(-2) and not t.admits_sector(3)
    for cutoff in (None, 4.0, "4"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            Truncation(cutoff, -2, 2)


def test_interior_sectors_take_the_step_s_size_not_its_sign():
    t = Truncation(4, -2, 2)
    assert t.interior_sectors(1) == t.interior_sectors(-1) == range(-1, 2)
    assert t.interior_sectors(-2) == range(0, 1)
    assert list(t.interior_sectors(3)) == []
    assert t.interior_sectors(0) == range(-2, 3)


def test_inner_product_conjugate_linear_first_slot():
    ctx = make_context("exact-gaussian")
    i = ctx.imaginary_unit()
    v = SectorState.basis(0, (1,)).scale(i)
    w = SectorState.basis(0, (1,))
    assert inner_product(ctx, v, w) == -i
    assert inner_product(ctx, w, v) == i
    assert norm_sq(ctx, v) == 1


def test_inner_product_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        inner_product(EXACT, SectorState.zero(), TensorState.zero())


def test_tensor_gram_factorizes():
    v = TensorState.basis(0, (2, 1), (1, 1))
    assert norm_sq(EXACT, v) == zsym((2, 1)) * zsym((1, 1))


@st.composite
def sector_states(draw, max_level=4):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = {}
    for _ in range(n):
        level = draw(st.integers(min_value=0, max_value=max_level))
        lam = draw(st.sampled_from(partitions_of(level)))
        j = draw(st.integers(min_value=-1, max_value=1))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=10))
        entries[(j, lam)] = entries.get((j, lam), 0) + c
    return SectorState(entries)


@given(sector_states(), sector_states())
def test_inner_product_hermitian(v, w):
    assert inner_product(EXACT, v, w) == inner_product(EXACT, w, v)


@given(sector_states())
def test_norm_positive_definite(v):
    n = norm_sq(EXACT, v)
    assert n >= 0
    assert (n == 0) == states_equal(EXACT, v, SectorState.zero())


def test_dump_and_load_roundtrip_tensor():
    ctx = make_context("exact-gaussian")
    v = TensorState(
        {
            (0, (2,), ()): Fraction(1, 3),
            (1, (1,), (1, 1)): GaussianRational(0, Fraction(-2, 7)),
        }
    )
    buf = io.StringIO()
    dump_state(ctx, v, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert '"j": 0' in lines[0]
    records = [json.loads(line) for line in lines]
    decoded = {}
    for rec in records:
        key = (rec["j"], tuple(rec["left"]), tuple(rec["right"]))
        decoded[key] = GaussianRational(Fraction(rec["re"]), Fraction(rec["im"]))
    assert decoded == v.entries


def test_dump_deterministic_order():
    v = SectorState({(0, (1, 1)): Fraction(1), (0, (2,)): Fraction(2), (-1, ()): Fraction(3)})
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        dump_state(EXACT, v, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0].index('"j": -1') < bufs[0].index('"j": 0')
