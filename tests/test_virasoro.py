from fractions import Fraction
from itertools import product

import chargedfock.virasoro as virasoro
from chargedfock.desitter import PerturbedGenerator, apply_l_part
from chargedfock.fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    charge_key,
    partitions_of,
    states_equal,
)
from chargedfock.heisenberg import apply_J
from chargedfock.scalar import make_context
from chargedfock.virasoro import apply_L, apply_L_tensor, central_term
from state_reference import sugawara_k_loop

EXACT = make_context("exact-rational")
SP = Space(EXACT, Fraction(1, 2), Truncation(64, -2, 2))  # above every level these tests reach


def test_l0_grading():
    # L_0 eigenvalue = level + beta^2/2
    for j in (-2, 0, 1):
        beta = SP.alpha0 * j
        for level in range(5):
            for lam in partitions_of(level):
                v = SectorState.basis(j, lam)
                out = apply_L(SP, 0, v)
                assert states_equal(EXACT, out, v.scale(level + beta * beta / 2)), (j, lam)


def test_small_values_by_hand():
    vac0 = SectorState.basis(0, ())
    # neutral level-2 raising produces only the (1,1) stack, weight 1/2
    assert apply_L(SP, -2, vac0).entries == {(0, (1, 1)): Fraction(1, 2)}
    assert apply_L(SP, 2, SectorState.basis(0, (1, 1))).entries == {(0, ()): Fraction(1)}
    # annihilators kill the neutral vacuum
    for n in (1, 2, 3):
        assert apply_L(SP, n, vac0).entries == {}
    # charged vacuum: L_{-1} = beta * J_{-1}
    vacb = SectorState.basis(1, ())
    assert apply_L(SP, -1, vacb).entries == {(1, (1,)): Fraction(1, 2)}
    assert apply_L(SP, -1, vac0).entries == {}


def test_virasoro_bracket_c1():
    for j in (0, 1):
        for level in range(4):
            for lam in partitions_of(level):
                v = SectorState.basis(j, lam)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        ab = apply_L(SP, m, apply_L(SP, n, v))
                        ba = apply_L(SP, n, apply_L(SP, m, v))
                        expected = apply_L(SP, m + n, v).scale(m - n)
                        expected = expected.add(v.scale(central_term(m, n)))
                        assert states_equal(EXACT, ab.sub(ba), expected), (m, n, j, lam)


def test_central_term_values():
    assert central_term(2, -2) == Fraction(1, 2)
    assert central_term(3, -3) == Fraction(2)
    assert central_term(1, -1) == 0
    assert central_term(2, 1) == 0


def test_current_is_primary_weight_one():
    # [L_m, J_n] = -n J_{m+n}
    for j in (0, 1):
        for level in range(4):
            for lam in partitions_of(level):
                v = SectorState.basis(j, lam)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        lj = apply_L(SP, m, apply_J(SP, n, v))
                        jl = apply_J(SP, n, apply_L(SP, m, v))
                        expected = apply_J(SP, m + n, v).scale(-n)
                        assert states_equal(EXACT, lj.sub(jl), expected), (m, n, j, lam)


def test_adjoint_pairing():
    from chargedfock.fock import inner_product

    for m in (1, 2, 3):
        for lam in partitions_of(2):
            v = SectorState.basis(1, lam)
            for mu in partitions_of(2 + m):
                w = SectorState.basis(1, mu)
                lhs = inner_product(EXACT, apply_L(SP, -m, v), w)
                rhs = inner_product(EXACT, v, apply_L(SP, m, w))
                assert lhs == rhs


def test_lorentz_triple_closes():
    # the unperturbed generators G_{+-1} = L_{+-1} x 1 + 1 x L_{-+1} and
    # G_0 = L_0 x 1 - 1 x L_0 obey [G_1, G_-1] = 2 G_0 and [G_0, G_{+-1}] = -(+-1) G_{+-1}
    gens = {m: PerturbedGenerator("lorentz", m, Fraction(0), SP.alpha0) for m in (-1, 0, 1)}

    def g(m, v):
        return apply_l_part(SP, gens[m], v)

    probes = [
        TensorState.basis(0, (), ()),
        TensorState.basis(1, (1,), ()),
        TensorState.basis(0, (2, 1), (1, 1)),
        TensorState.basis(-1, (1,), (3,)),
    ]
    for v in probes:
        pm = g(1, g(-1, v))
        mp = g(-1, g(1, v))
        assert states_equal(EXACT, pm.sub(mp), g(0, v).scale(2))
        for m in (1, -1):
            kl = g(0, g(m, v))
            lk = g(m, g(0, v))
            assert states_equal(EXACT, kl.sub(lk), g(m, v).scale(-m))


def test_tensor_action_side():
    v = TensorState.basis(0, (1,), ())
    out = apply_L_tensor(SP, "left", 0, v)
    assert out.entries == {(0, (1,), ()): Fraction(1)}
    assert apply_L_tensor(SP, "right", 0, v).entries == {}


def test_fault_injection_breaks_bracket():
    v = SectorState.basis(0, ())
    virasoro.FAULT_SUGAWARA = True
    try:
        virasoro._sugawara_on_basis.cache_clear()
        ab = apply_L(SP, 2, apply_L(SP, -2, v))
        ba = apply_L(SP, -2, apply_L(SP, 2, v))
        expected = apply_L(SP, 0, v).scale(4).add(v.scale(central_term(2, -2)))
        assert not states_equal(EXACT, ab.sub(ba), expected)
    finally:
        virasoro.FAULT_SUGAWARA = False
        virasoro._sugawara_on_basis.cache_clear()


def test_overflow_flag_on_truncated_action():
    tight = Space(EXACT, Fraction(1, 2), Truncation(1, -1, 1))
    out = apply_L(tight, -2, SectorState.basis(0, ()))
    assert out.overflow
    assert out.entries == {}


def test_sugawara_rows_keep_float_and_exact_charges_apart():
    # L_0 on the charge-1/2 vacuum is beta^2/2 = 1/8; a float run first must
    # not leave its 0.125 for the exact run, nor the exact row for the float run
    virasoro._sugawara_on_basis.cache_clear()
    float_space = Space(make_context("float", 1e-9), 0.5, Truncation(4, -2, 2))
    vac = SectorState.basis(1, ())
    floats = apply_L(float_space, 0, vac)
    exact = apply_L(SP, 0, vac)
    assert exact.entries == floats.entries == {(1, ()): Fraction(1, 8)}
    assert type(exact.entries[(1, ())]) is Fraction
    assert type(floats.entries[(1, ())]) is float


def test_term_lists_give_the_k_loop_rows():
    # one sector-free term list per (mode, partition) serves every sector:
    # its rows equal, by repr, those of the whole k-loop run in each sector,
    # the order of their entries and float sums included, at a zero charge
    # (every J_0 term dropped) and with the fault on
    build = virasoro._sugawara_on_basis.__wrapped__
    for alpha0, fault in product((Fraction(1, 2), Fraction(2, 7), Fraction(0), 0.3), (False, True)):
        for n, level, j in product(range(-6, 7), range(9), range(-2, 3)):
            for lam in partitions_of(level):
                want = repr(sugawara_k_loop(n, j, lam, alpha0, fault))
                assert repr(build(n, j, lam, charge_key(alpha0), fault)) == want, (alpha0, fault, n, j, lam)
