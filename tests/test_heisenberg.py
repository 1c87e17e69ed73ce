from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from chargedfock.fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    inner_product,
    partitions_of,
    states_equal,
)
from chargedfock.heisenberg import apply_J
from chargedfock.scalar import make_context
from state_reference import apply_J_tensor

EXACT = make_context("exact-rational")


# a cutoff above every level these tests reach, so that nothing is dropped
INTERIOR = 64


def interior_space(alpha0=Fraction(1, 2), window=(-2, 2)):
    return Space(EXACT, alpha0, Truncation(INTERIOR, *window))


SP = interior_space()


def test_lowering_and_raising_examples():
    vac = SectorState.basis(0, ())
    v = apply_J(SP, -1, vac)
    assert v.entries == {(0, (1,)): 1}
    assert apply_J(SP, 1, v).entries == {(0, ()): 1}
    # removing from a multiplicity-2 stack picks up m * mult
    w = apply_J(SP, -2, apply_J(SP, -2, vac))
    assert apply_J(SP, 2, w).entries == {(0, (2,)): 4}
    assert apply_J(SP, 3, w).entries == {}


def test_charge_action():
    v = SectorState.basis(2, (1,))
    assert apply_J(SP, 0, v).entries == {(2, (1,)): Fraction(1)}
    assert apply_J(SP, 0, SectorState.basis(-1, ())).entries == {(-1, ()): Fraction(-1, 2)}
    neutral = Space(EXACT, Fraction(0), SP.trunc)
    assert apply_J(neutral, 0, v).entries == {}


def test_bracket_on_all_interior_basis_vectors():
    # (J_m J_n - J_n J_m) v = m delta_{m,-n} v for all levels <= 5
    for level in range(6):
        for lam in partitions_of(level):
            v = SectorState.basis(1, lam)
            for m in range(-4, 5):
                for n in range(-4, 5):
                    ab = apply_J(SP, m, apply_J(SP, n, v))
                    ba = apply_J(SP, n, apply_J(SP, m, v))
                    expected = v.scale(m) if m == -n else SectorState.zero()
                    assert states_equal(EXACT, ab.sub(ba), expected), (m, n, lam)


def test_adjoint_pairing():
    # <J_{-m} v, w> = <v, J_m w> on basis pairs
    for m in range(1, 5):
        for lv in range(5):
            for lam in partitions_of(lv):
                v = SectorState.basis(0, lam)
                for mu in partitions_of(lv + m):
                    w = SectorState.basis(0, mu)
                    lhs = inner_product(EXACT, apply_J(SP, -m, v), w)
                    rhs = inner_product(EXACT, v, apply_J(SP, m, w))
                    assert lhs == rhs, (m, lam, mu)


def test_overflow_flag():
    tight = Space(EXACT, Fraction(1, 2), Truncation(2, -1, 1))
    v = SectorState.basis(0, (2,))
    out = apply_J(tight, -1, v)
    assert out.overflow
    assert out.entries == {}
    ok = apply_J(tight, -2, SectorState.basis(0, ()))
    assert not ok.overflow


def test_tensor_sides_commute():
    v = TensorState.basis(0, (2, 1), (1,))
    for m in (-2, -1, 1, 2):
        for n in (-2, -1, 1, 2):
            lr = apply_J_tensor(SP, "left", m, apply_J_tensor(SP, "right", n, v))
            rl = apply_J_tensor(SP, "right", n, apply_J_tensor(SP, "left", m, v))
            assert states_equal(EXACT, lr, rl)


def test_tensor_charge_is_diagonal():
    v = TensorState.basis(1, (1,), ())
    left = apply_J_tensor(SP, "left", 0, v)
    right = apply_J_tensor(SP, "right", 0, v)
    assert left.entries == right.entries == {(1, (1,), ()): Fraction(1, 2)}


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    ),
)
def test_bracket_property(m, lam):
    v = SectorState.basis(0, lam)
    n = -m
    ab = apply_J(SP, m, apply_J(SP, n, v))
    ba = apply_J(SP, n, apply_J(SP, m, v))
    assert states_equal(EXACT, ab.sub(ba), v.scale(m))
