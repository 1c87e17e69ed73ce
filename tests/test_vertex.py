import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedfock.vertex as vertex
from chargedfock.fock import (
    SectorState,
    Space,
    Truncation,
    inner_product,
    norm_sq,
    partitions_of,
    states_equal,
    zsym,
)
from chargedfock.heisenberg import apply_J
from chargedfock.scalar import make_context
from chargedfock.vertex import (
    apply_Y_mode,
    apply_Y_mode_recursive,
    charge_multiplier,
    conformal_weight,
    export_mode_block,
    truncated_mode_norm,
    vacuum_mode_norm_sq,
    y_mode_table,
)
from chargedfock.virasoro import apply_L
from fraction_reference import recursive_element
from state_reference import mode_index

EXACT = make_context("exact-rational")
A0 = Fraction(1, 2)
SP = Space(EXACT, A0, Truncation(64, -4, 4))  # above every level these tests reach
HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_charge_multiplier():
    assert charge_multiplier(SP, Fraction(1, 2)) == 1
    assert charge_multiplier(SP, Fraction(-3, 2)) == -3
    assert charge_multiplier(SP, Fraction(0)) == 0
    with pytest.raises(ValueError):
        charge_multiplier(SP, Fraction(1, 3))


def test_expand_E_low_levels():
    # the E^- (creation) factor alone acts on a vacuum: alpha**len(nu) / zsym(nu)
    a = Fraction(1, 2)
    assert y_mode_table(a, 0, ()) == (((), ONE),)
    assert y_mode_table(a, 1, ()) == (((1,), a),)
    assert dict(y_mode_table(a, 2, ())) == {(2,): a / 2, (1, 1): a * a / 2}
    # the E^+ (annihilation) factor alone brings (1,) down with -alpha
    assert y_mode_table(a, -1, (1,)) == (((), -a),)


def test_mode_table_frozen_values():
    a = HALF
    assert dict(y_mode_table(a, 0, (1,))) == {(1,): 1 - a * a}
    assert dict(y_mode_table(a, 1, (1,))) == {
        (1, 1): a - a**3 / 2,
        (2,): -a * a / 2,
    }
    assert dict(y_mode_table(ONE, 0, (1,))) == {}
    assert dict(y_mode_table(a, 2, ())) == {(2,): a / 2, (1, 1): a * a / 2}
    # annihilating below the vacuum level gives zero
    assert y_mode_table(a, -1, ()) == ()


def test_vacuum_application_and_pairing():
    vac = SectorState.basis(0, ())
    out = apply_Y_mode(SP, A0, 1, vac)
    assert out.entries == {(1, (1,)): A0}
    bra = SectorState.basis(1, (1,))
    assert inner_product(EXACT, bra, out) == A0
    # charge shift by two lattice units
    out2 = apply_Y_mode(SP, Fraction(1), 0, vac)
    assert out2.entries == {(2, ()): 1}


def test_vacuum_norm_closed_form():
    for alpha in (HALF, ONE, Fraction(3, 2)):
        for n in range(13):
            state = apply_Y_mode(SP, alpha, n, SectorState.basis(0, ()))
            assert norm_sq(EXACT, state) == vacuum_mode_norm_sq(alpha, n), (alpha, n)


def test_vacuum_norm_values():
    # C(2d+n-1, n) with 2d = alpha^2
    assert vacuum_mode_norm_sq(ONE, 3) == 1
    assert vacuum_mode_norm_sq(HALF, 1) == Fraction(1, 4)
    assert vacuum_mode_norm_sq(HALF, 2) == Fraction(5, 32)
    assert vacuum_mode_norm_sq(2, 2) == 10
    assert vacuum_mode_norm_sq(HALF, 0) == 1


def test_expansion_matches_recursion_oracle():
    for alpha in (HALF, ONE):
        for level in range(5):
            for lam in partitions_of(level):
                v = SectorState.basis(0, lam)
                for delta in range(-4, 5):
                    direct = apply_Y_mode(SP, alpha, delta, v)
                    recur = apply_Y_mode_recursive(SP, alpha, delta, v)
                    assert states_equal(EXACT, direct, recur), (alpha, lam, delta)


RECURSION_CHARGES = (Fraction(1, 2), Fraction(-2, 7), Fraction(3, 5), Fraction(-1), Fraction(2))


@st.composite
def recursion_cells(draw):
    """(charge, delta, lam), with lam and every output of level <= 7."""
    level = draw(st.integers(0, 7))
    delta = draw(st.integers(max(-4, -level), min(4, 7 - level)))
    return draw(st.sampled_from(RECURSION_CHARGES)), delta, draw(st.sampled_from(partitions_of(level)))


@settings(max_examples=200, deadline=None)
@given(recursion_cells())
def test_integer_recursion_equals_the_fraction_recursion(cell):
    # F = q**(len(mu) + len(lam)) <b_mu, Y_delta b_lam> at alpha = p / q, an
    # int; float mode runs the same recursion at (alpha, 1)
    alpha, delta, lam = cell
    p, q = alpha.numerator, alpha.denominator
    for mu in partitions_of(sum(lam) + delta):
        want = recursive_element(alpha, mu, delta, lam)
        got = vertex._recursive_element(p, q, mu, delta, lam)
        assert type(got) is int and got == q ** (len(mu) + len(lam)) * want, (mu, delta, lam)
        floats = vertex._recursive_element(float(alpha), 1, mu, delta, lam)
        assert floats == pytest.approx(float(want), rel=1e-12, abs=1e-12)


def test_current_covariance():
    # [J_m, Y_delta] v = alpha * Y_{delta-m} v
    alpha = HALF
    for level in range(4):
        for lam in partitions_of(level):
            for j in (0, -1):
                v = SectorState.basis(j, lam)
                for m in range(-3, 4):
                    for delta in range(-2, 3):
                        jy = apply_J(SP, m, apply_Y_mode(SP, alpha, delta, v))
                        yj = apply_Y_mode(SP, alpha, delta, apply_J(SP, m, v))
                        expected = apply_Y_mode(SP, alpha, delta - m, v).scale(alpha)
                        assert states_equal(EXACT, jy.sub(yj), expected), (m, delta, lam, j)


def test_primary_covariance():
    # [L_m, Y_delta] v = ((d-1)m - s) Y_{delta-m} v, s taken in v's sector
    alpha = HALF
    d = conformal_weight(alpha)
    for level in range(4):
        for lam in partitions_of(level):
            for j in (0, 1):
                v = SectorState.basis(j, lam)
                s = mode_index(SP, alpha, j, 0)
                for m in range(-2, 3):
                    for delta in range(-2, 3):
                        s_delta = mode_index(SP, alpha, j, delta)
                        ly = apply_L(SP, m, apply_Y_mode(SP, alpha, delta, v))
                        yl = apply_Y_mode(SP, alpha, delta, apply_L(SP, m, v))
                        coeff = (d - 1) * m - s_delta
                        expected = apply_Y_mode(SP, alpha, delta - m, v).scale(coeff)
                        assert states_equal(EXACT, ly.sub(yl), expected), (m, delta, lam, j)


def test_mode_index_values():
    # s = -alpha*beta - d - delta
    assert mode_index(SP, HALF, 0, 0) == -Fraction(1, 8)
    assert mode_index(SP, HALF, 2, 3) == -HALF - Fraction(1, 8) - 3
    assert mode_index(SP, ONE, 1, 0) == -HALF - HALF


def test_adjoint_is_opposite_charge_and_shift():
    alpha = HALF
    for delta in range(-3, 4):
        for lv in range(4):
            for lam in partitions_of(lv):
                if lv + delta < 0:
                    continue
                v = SectorState.basis(0, lam)
                for mu in partitions_of(lv + delta):
                    w = SectorState.basis(1, mu)
                    lhs = inner_product(EXACT, apply_Y_mode(SP, alpha, delta, v), w)
                    rhs = inner_product(EXACT, v, apply_Y_mode(SP, -alpha, -delta, w))
                    assert lhs == rhs, (delta, lam, mu)


def test_truncated_norm_matches_svd():
    space = Space(EXACT, A0, Truncation(6, -2, 2))
    for alpha in (HALF, ONE):
        for delta in (-2, 0, 1, 3):
            sigma = truncated_mode_norm(space, alpha, delta)
            # direct dense oracle
            from chargedfock.vertex import _mode_block_entries

            sources, targets = {}, {}
            entries = list(_mode_block_entries(space, alpha, delta))
            for _, lam, mu, _ in entries:
                sources.setdefault(lam, len(sources))
                targets.setdefault(mu, len(targets))
            A = np.zeros((len(targets), len(sources)))
            for _, lam, mu, coeff in entries:
                A[targets[mu], sources[lam]] = float(coeff) * (zsym(mu) / zsym(lam)) ** 0.5
            expected = float(np.linalg.svd(A, compute_uv=False)[0])
            assert sigma == pytest.approx(expected, abs=1e-12), (alpha, delta)


def test_truncated_norm_bounded_by_one():
    space = Space(EXACT, ONE, Truncation(6, -2, 2))
    for alpha in (HALF, ONE):
        for delta in range(-4, 5):
            assert truncated_mode_norm(space, alpha, delta) <= 1 + 1e-9


def test_truncated_norm_empty_block():
    space = Space(EXACT, A0, Truncation(3, -1, 1))
    assert truncated_mode_norm(space, A0, 7) == 0.0


def test_overflow_and_charge_window():
    tight = Space(EXACT, A0, Truncation(4, 0, 1))
    vac = SectorState.basis(1, ())
    out = apply_Y_mode(tight, A0, 0, vac)
    assert out.overflow and out.entries == {}
    out2 = apply_Y_mode(tight, A0, 5, SectorState.basis(0, ()))
    assert out2.overflow and out2.entries == {}


def test_export_mode_block_deterministic():
    space = Space(EXACT, A0, Truncation(3, -1, 1))
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        export_mode_block(space, A0, 1, buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == "source_level,source_partition,target_partition,re,im"
    assert any("1/2" in line for line in lines[1:])


def test_recursive_oracle_keeps_float_and_exact_charges_apart():
    # 0.5 == Fraction(1, 2) with equal hashes: an untyped memo hands the
    # float matrix element cached by a float run to a later exact run
    vertex._recursive_element.cache_clear()
    float_space = Space(make_context("float", 1e-9), 0.5, Truncation(4, -2, 2))
    exact_space = Space(EXACT, A0, Truncation(4, -2, 2))
    vac = SectorState.basis(0, ())
    floats = apply_Y_mode_recursive(float_space, 0.5, 1, vac)
    exact = apply_Y_mode_recursive(exact_space, A0, 1, vac)
    assert exact.entries == floats.entries == {(1, (1,)): HALF}
    assert all(type(c) is Fraction for c in exact.entries.values())
    assert all(type(c) is float for c in floats.entries.values())
