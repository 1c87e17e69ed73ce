import logging
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chargedfock.desitter as desitter
from chargedfock import virasoro
from chargedfock.desitter import (
    PerturbedGenerator,
    apply_l_part,
    closure_table,
    commutator_targets,
    default_interior_buffer,
    explore_d_half,
    mixed_gap_coefficients,
    psi_coefficient,
    verify_lorentz,
    verify_virasoro_c0,
    virasoro_combination,
    weak_commutator_parts,
)
from chargedfock.fock import (
    Space,
    TensorState,
    Truncation,
    inner_product,
    partitions_of,
    states_equal,
)
from chargedfock.scalar import GaussianRational, make_context
from chargedfock.twodim import IMAGES, image_inner_product
from chargedfock.vertex import conformal_weight
from chargedfock.virasoro import apply_L_tensor

EXACT = make_context("exact-rational")
GAUSS = make_context("exact-gaussian")
A0 = Fraction(1, 2)
ALPHA = Fraction(1, 2)
LAM = Fraction(1, 4)


def space(L=8, ctx=EXACT, window=(-2, 2), alpha0=A0):
    return Space(ctx, alpha0, Truncation(L, *window))


VAC = TensorState.basis(0, (), ())
EXCITED = TensorState.basis(0, (1,), ())
# one charge step above the vacuum, spanning chiral level offsets -2..2 so
# every |m+n| <= 2 cell pairs against VAC through the one-bilinear terms
STEP = TensorState.zero()
for _l, _r in [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,)), ((2,), ()), ((), (2,))]:
    STEP = STEP.add(TensorState.basis(1, _l, _r))


def lorentz_pair(m, n, lam=LAM):
    return (
        PerturbedGenerator("lorentz", m, lam, ALPHA),
        PerturbedGenerator("lorentz", n, lam, ALPHA),
    )


def residuals(sp, gen_a, gen_b, phi1, phi2, buffer):
    parts = weak_commutator_parts(sp, gen_a, gen_b, phi1, phi2, buffer)
    ll_t, psi_t = commutator_targets(sp, gen_a, gen_b, phi1, phi2)
    return parts, parts.ll - ll_t, parts.mixed - psi_t


def test_family_validation():
    with pytest.raises(ValueError):
        PerturbedGenerator("lorentz", 2, LAM, ALPHA)
    with pytest.raises(ValueError):
        PerturbedGenerator("witt", 1, LAM, ALPHA)
    gen = PerturbedGenerator("d_half", -3, LAM, ALPHA)
    assert gen.adjoint().m == 3


def test_lorentz_l_part_matches_unperturbed_generators():
    # G_{+-1} = L_{+-1} (x) 1 + 1 (x) L_{-+1} and G_0 = L_0 (x) 1 - 1 (x) L_0
    sp = space(6)
    v = TensorState.basis(0, (2,), (1,)).add(TensorState.basis(1, (), (1, 1)))
    for m in (1, -1, 0):
        left = apply_L_tensor(sp, "left", m, v)
        right = apply_L_tensor(sp, "right", -m, v)
        expected = left.sub(right) if m == 0 else left.add(right)
        gen = PerturbedGenerator("lorentz", m, LAM, ALPHA)
        assert states_equal(EXACT, apply_l_part(sp, gen, v), expected)


def test_psi_coefficient_by_family():
    sp = space(6, ctx=GAUSS)
    assert psi_coefficient(sp, PerturbedGenerator("lorentz", 0, LAM, ALPHA)) == 0
    assert psi_coefficient(sp, PerturbedGenerator("lorentz", 1, LAM, ALPHA)) == LAM
    assert psi_coefficient(sp, PerturbedGenerator("d_half", 3, LAM, ALPHA)) == LAM
    assert psi_coefficient(
        sp, PerturbedGenerator("virasoro_c0", 2, LAM, ALPHA)
    ) == GaussianRational(0, Fraction(1, 2))
    # the imaginary coefficient needs gaussian scalars only when it is nonzero
    rational = space(6)
    assert psi_coefficient(rational, PerturbedGenerator("virasoro_c0", 2, Fraction(0), ALPHA)) == 0
    with pytest.raises(ValueError):
        psi_coefficient(rational, PerturbedGenerator("virasoro_c0", 2, LAM, ALPHA))


def test_interior_preconditions():
    sp = space(8)
    gen_a, gen_b = lorentz_pair(1, -1)
    deep = TensorState.basis(0, (7,), ())
    with pytest.raises(ValueError):
        weak_commutator_parts(sp, gen_a, gen_b, deep, VAC, 3)
    with pytest.raises(ValueError):
        weak_commutator_parts(sp, gen_a, gen_b, VAC, VAC, 0)
    edge = TensorState.basis(2, (), ())  # one bilinear branch exits the window
    with pytest.raises(ValueError):
        weak_commutator_parts(sp, gen_a, gen_b, edge, VAC, 3)


def test_commutator_targets_refuse_an_edge_state():
    # the target G_1 carries a bilinear, whose image of a state in the
    # window's last sector leaves the window
    sp = space(8)
    gen_a, gen_b = lorentz_pair(1, 0)
    edge = TensorState.basis(2, (), ())
    bra = TensorState.basis(0, (), (1,))
    with pytest.raises(ValueError, match="left the charge window"):
        commutator_targets(sp, gen_a, gen_b, bra, edge)
    # one sector further in, the same target pairs to lam (m - n) <bra, Psi_1 vac_1>
    _ll, psi_target = commutator_targets(sp, gen_a, gen_b, bra, TensorState.basis(1, (), ()))
    assert psi_target == Fraction(-1, 8)


def test_unperturbed_lorentz_relations_close_exactly():
    sp = space(8)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            gen_a, gen_b = lorentz_pair(m, n, lam=Fraction(0))
            for phi1, phi2 in [(VAC, VAC), (EXCITED, EXCITED), (STEP, VAC)]:
                parts, ll_res, mixed_res = residuals(sp, gen_a, gen_b, phi1, phi2, 3)
                assert ll_res == 0
                assert mixed_res == 0
                assert parts.psipsi == 0
                assert parts.tail_budget == 0.0


def test_boost_cell_reproduces_double_level_difference():
    # [G_1, G_-1] pairs to 2 (L_0 (x) 1 - 1 (x) L_0) on interior vectors
    sp = space(8)
    gen_a, gen_b = lorentz_pair(1, -1)
    phi = TensorState.basis(0, (2, 1), (1,))
    parts, ll_res, mixed_res = residuals(sp, gen_a, gen_b, phi, phi, 3)
    k0 = apply_l_part(sp, PerturbedGenerator("lorentz", 0, Fraction(0), ALPHA), phi)
    two_k0 = inner_product(EXACT, phi, k0) * 2
    assert parts.ll == two_k0 == 8  # chiral levels (3, 1) weigh in with twice their gap
    shifted = TensorState.basis(0, (1,), (2, 1))
    parts2 = weak_commutator_parts(sp, gen_a, gen_b, phi, shifted, 3)
    assert parts2.ll == 0  # the level-difference target is diagonal in the tensor basis
    assert ll_res == 0 and mixed_res == 0


def test_mixed_terms_cancel_exactly_across_lorentz_cells():
    sp = space(8)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            gen_a, gen_b = lorentz_pair(m, n, lam=Fraction(1))
            parts, ll_res, mixed_res = residuals(sp, gen_a, gen_b, STEP, VAC, 3)
            assert ll_res == 0
            assert mixed_res == 0
            assert parts.psipsi == 0  # two bilinears step twice in charge


def test_mixed_cancellation_is_not_vacuous():
    sp = space(8)
    gen_a, gen_b = lorentz_pair(-1, 0, lam=Fraction(1))
    parts = weak_commutator_parts(sp, gen_a, gen_b, TensorState.basis(1, (1,), ()), VAC, 3)
    assert parts.mixed == -ALPHA  # (m - n) lambda <step, Psi_{-1} vac> = -1 * 1 * 1/2


def test_bilinear_part_scales_as_coupling_squared():
    sp = space(8)
    vals = {}
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        gen_a, gen_b = lorentz_pair(1, -1, lam=lam)
        parts = weak_commutator_parts(sp, gen_a, gen_b, EXCITED, EXCITED, 3)
        vals[lam] = parts.psipsi
    # exact quadratic through the three couplings: no constant or linear part
    r0, rh, r1 = vals[Fraction(0)], vals[Fraction(1, 2)], vals[Fraction(1)]
    assert r0 == 0
    assert -3 * r0 + 4 * rh - r1 == 0
    assert 2 * r0 - 4 * rh + 2 * r1 == r1
    assert r1 != 0


def test_bilinear_residual_within_tail_budget():
    gen_a, gen_b = lorentz_pair(1, -1, lam=Fraction(1))
    by_cutoff = {}
    for L in (8, 12):
        parts = weak_commutator_parts(space(L), gen_a, gen_b, EXCITED, EXCITED, 3)
        assert parts.psipsi != 0
        assert abs(complex(parts.psipsi)) <= parts.tail_budget
        by_cutoff[L] = parts
    assert abs(complex(by_cutoff[12].psipsi)) < abs(complex(by_cutoff[8].psipsi))
    assert by_cutoff[12].tail_budget < by_cutoff[8].tail_budget


def _total(parts):
    """The whole weak commutator: the sum of its three pieces."""
    return parts.ll + parts.mixed + parts.psipsi


def test_starred_antisymmetry_every_cell():
    sp = space(8, ctx=GAUSS)
    lam = Fraction(1, 2)
    phi1 = TensorState.basis(1, (1,), ())
    phi2 = TensorState.basis(0, (1,), (1,))
    for family, cells in [
        ("virasoro_c0", [(2, -1), (1, 1), (2, -2)]),
        ("d_half", [(2, -1), (1, 0)]),
        ("lorentz", [(1, 0), (1, -1)]),
    ]:
        for m, n in cells:
            gen_a = PerturbedGenerator(family, m, lam, ALPHA)
            gen_b = PerturbedGenerator(family, n, lam, ALPHA)
            lhs = GAUSS.conj(_total(weak_commutator_parts(sp, gen_a, gen_b, phi2, phi1, 4)))
            rhs = _total(weak_commutator_parts(sp, gen_b.adjoint(), gen_a.adjoint(), phi1, phi2, 4))
            assert lhs == rhs


def test_literal_antisymmetry_on_adjoint_paired_cells():
    sp = space(8, ctx=GAUSS)
    phi1 = TensorState.basis(1, (1,), ())
    phi2 = TensorState.basis(0, (1,), (1,))
    for family, m in [("virasoro_c0", 2), ("lorentz", 1), ("d_half", 1)]:
        gen_a = PerturbedGenerator(family, m, Fraction(1, 2), ALPHA)
        gen_b = gen_a.adjoint()
        lhs = _total(weak_commutator_parts(sp, gen_a, gen_b, phi1, phi2, 4))
        rhs = -GAUSS.conj(_total(weak_commutator_parts(sp, gen_b, gen_a, phi2, phi1, 4)))
        assert lhs == rhs


def test_virasoro_c0_mixed_identity_and_central_absence():
    sp = space(8, ctx=GAUSS)
    lam = Fraction(1, 2)
    for m, n in [(2, -1), (-2, 1), (1, -1), (2, -2), (0, 1)]:
        gen_a = PerturbedGenerator("virasoro_c0", m, lam, ALPHA)
        gen_b = PerturbedGenerator("virasoro_c0", n, lam, ALPHA)
        for phi1, phi2 in [(STEP, VAC), (VAC, VAC), (EXCITED, EXCITED)]:
            parts, ll_res, mixed_res = residuals(sp, gen_a, gen_b, phi1, phi2, 4)
            assert ll_res == 0  # in particular: no central term survives at m + n = 0
            assert mixed_res == 0


def test_d_half_gap_formula_and_closure_at_half():
    lam = Fraction(1, 4)
    bra = TensorState.basis(1, (1,), ())
    for alpha0, alpha in [(A0, Fraction(1, 2)), (Fraction(1), Fraction(1))]:
        sp = space(8, alpha0=alpha0)
        d = conformal_weight(alpha)
        for m, n in [(0, -1), (-1, 0), (1, -2), (-2, 1)]:
            gen_a = PerturbedGenerator("d_half", m, lam, alpha)
            gen_b = PerturbedGenerator("d_half", n, lam, alpha)
            parts, ll_res, mixed_res = residuals(sp, gen_a, gen_b, bra, VAC, 4)
            psi_sum, _ = IMAGES.apply(sp, alpha, m + n, VAC)
            predicted = lam * (2 * d - 1) * ((m - n) * image_inner_product(bra, psi_sum))
            assert ll_res == 0
            assert mixed_res == predicted
            if alpha == Fraction(1):
                assert mixed_res == 0  # weight 1/2: the family closes
            else:
                assert mixed_res != 0


def test_symbolic_gap_and_ladder_coefficients():
    for d in (Fraction(1, 2), Fraction(1, 8), Fraction(3, 7)):
        for m in range(-3, 4):
            for n in range(-3, 4):
                info = mixed_gap_coefficients(d, m, n)
                assert info["identity"]  # lhs == 2d(m-n) for every weight
                assert info["closes"] == (m == n or d == Fraction(1, 2))
                lhs, rhs = virasoro_combination(d, m, n)
                assert lhs == rhs  # weight cancels from the imaginary-coefficient ladder
    rows = closure_table()
    assert all(r["identity_2d"] for r in rows)
    half = [r for r in rows if r["d"] == "1/2"]
    eighth = [r for r in rows if r["d"] == "1/8" and r["m"] != r["n"]]
    assert half and all(r["closes"] for r in half)
    assert eighth and not any(r["closes"] for r in eighth)
    example = mixed_gap_coefficients(Fraction(1, 8), 1, -1)
    assert example["lhs"] == Fraction(1, 2) and example["ladder"] == 2


def test_verify_lorentz_report_passes_and_is_deterministic():
    sp = space(8)
    rep = verify_lorentz(sp, ALPHA, LAM, interior_buffer=3, seed=7, samples=2)
    assert rep["summary"]["verdict"] == "pass"
    assert rep["summary"]["identity_failures"] == 0
    probes = {r["probe"] for r in rep["records"]}
    assert {"vacuum-pair", "current-pair", "split-pair", "charge-step-pair"} <= probes
    required = {
        "family", "m", "n", "lambda", "alpha", "L", "buffer",
        "residual_re", "residual_im", "tail_budget", "verdict",
    }
    assert all(required <= set(r) for r in rep["records"])
    again = verify_lorentz(sp, ALPHA, LAM, interior_buffer=3, seed=7, samples=2)
    assert rep == again


def test_verify_lorentz_zero_coupling_all_exact():
    rep = verify_lorentz(space(6), ALPHA, Fraction(0), interior_buffer=3, seed=0, samples=1)
    assert rep["summary"]["verdict"] == "pass"
    assert rep["summary"]["max_abs_residual"] == 0.0
    assert rep["summary"]["max_tail_budget"] == 0.0


def test_verify_virasoro_c0_report():
    rep = verify_virasoro_c0(
        space(8, ctx=GAUSS), ALPHA, Fraction(1, 2), m_range=2, interior_buffer=4, samples=1
    )
    assert rep["summary"]["verdict"] == "pass"
    assert all(r["equal"] for r in rep["coefficient_identity"])
    zero_cells = [r for r in rep["records"] if r["m"] + r["n"] == 0]
    assert zero_cells
    assert all(r["central_offset_re"] == 0.0 and r["central_offset_im"] == 0.0 for r in zero_cells)
    assert all(abs(r["m"] + r["n"]) <= 2 for r in rep["records"])


def test_explore_d_half_reports():
    rep = explore_d_half(space(6, alpha0=Fraction(1)), Fraction(1), LAM, m_range=2, n_bands=10)
    assert rep["weight"] == "1/2"
    assert rep["closes_at_this_weight"]
    assert all(r["band_norm_sq"] == 1.0 for r in rep["band_partial_sums"])
    rep8 = explore_d_half(space(6), ALPHA, LAM, m_range=2, n_bands=10)
    assert rep8["weight"] == "1/8"
    assert not rep8["closes_at_this_weight"]
    assert all(r["matches_prediction"] for r in rep8["measured_gap"])
    assert any(r["gap_re"] != 0.0 for r in rep8["measured_gap"])


def test_default_interior_buffer():
    assert default_interior_buffer(1, 2) == 3
    assert default_interior_buffer(0, 0) == 1


# ---------------------------------------------------------------------------
# coupling-free pieces: memoized once per process, equal to a cold computation

FLOAT = make_context("float", 1e-9)
CONTEXTS = {"exact-rational": EXACT, "exact-gaussian": GAUSS, "float": FLOAT}
MEMO_BUFFER = 2
COUPLINGS = ("0", "1/4", "1", "-1/2")


def clear_memos():
    desitter._l_part_slot.cache_clear()
    desitter._entry_slot.cache_clear()
    IMAGES._store.clear()


@st.composite
def memo_cases(draw):
    """(space, family, m, n, calls, phi1, phi2): probes inside the level
    margin and one charge step inside the window, with coefficients of the
    space's own scalar kind; each call is a coupling and whether it passes
    the probes with their entries in reverse order."""
    mode = draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[mode]
    family = draw(st.sampled_from(["lorentz", "virasoro_c0", "d_half"]))
    modes = (-1, 0, 1) if family == "lorentz" else (-2, -1, 0, 1, 2)
    m, n = draw(st.sampled_from(modes)), draw(st.sampled_from(modes))
    # exact-rational holds the imaginary family only at coupling 0
    texts = ("0",) if (family, mode) == ("virasoro_c0", "exact-rational") else COUPLINGS
    calls = [(text, draw(st.booleans())) for text in draw(st.permutations(texts))]
    parts = st.sampled_from([lam for lv in range(3) for lam in partitions_of(lv)])
    values = st.fractions(min_value=-2, max_value=2, max_denominator=7).filter(bool)

    def probe():
        state = TensorState.zero()
        for _ in range(draw(st.integers(1, 3))):
            c = draw(values)
            if mode == "float":
                c = float(c)
            elif mode == "exact-gaussian" and draw(st.booleans()):
                c = GaussianRational(c, draw(values))
            j = draw(st.integers(-1, 1))
            state = state.add(TensorState.basis(j, draw(parts), draw(parts)).scale(c))
        return state

    alpha0 = A0 if ctx.exact else float(A0)
    return Space(ctx, alpha0, Truncation(6, -2, 2)), family, m, n, calls, probe(), probe()


def memo_run(sp, family, m, n, text, reverse, phi1, phi2):
    if reverse:
        phi1, phi2 = (TensorState(dict(reversed(phi.entries.items()))) for phi in (phi1, phi2))
    lam = sp.ctx.parse(text)
    gen_a = PerturbedGenerator(family, m, lam, sp.alpha0)
    gen_b = PerturbedGenerator(family, n, lam, sp.alpha0)
    parts = weak_commutator_parts(sp, gen_a, gen_b, phi1, phi2, MEMO_BUFFER)
    return parts, commutator_targets(sp, gen_a, gen_b, phi1, phi2)


# float probes whose tail budget moves in the last digit with their entry order
ORDERED_FLOAT_CASE = (
    Space(FLOAT, 0.5, Truncation(6, -2, 2)),
    "lorentz",
    1,
    -1,
    [("1/4", True), ("1/4", False)],
    TensorState({(0, (), (1, 1)): 10 / 7, (0, (1, 1), (1, 1)): 11 / 7, (-1, (), (1, 1)): -2.0}),
    TensorState({(0, (1, 1), ()): 8 / 7, (0, (2,), (1,)): 4 / 7, (-1, (2,), ()): -2.0}),
)


@settings(max_examples=60, deadline=None)
@given(memo_cases())
@example(ORDERED_FLOAT_CASE)
def test_memoized_pieces_equal_a_cold_computation(case):
    # every call of a coupling sweep, in a drawn order, reads the memos that
    # the earlier calls filled and equals the same call on cleared memos:
    # value, type and (in float mode) every bit, also when an equal probe
    # with its entries in another order came first
    sp, family, m, n, calls, phi1, phi2 = case
    clear_memos()
    warm = [memo_run(sp, family, m, n, *call, phi1, phi2) for call in calls]
    for call, result in zip(calls, warm):
        clear_memos()
        cold = memo_run(sp, family, m, n, *call, phi1, phi2)
        assert cold == result
        assert repr(cold) == repr(result)


def test_memos_are_bounded():
    clear_memos()
    sp = space(6)
    gen = PerturbedGenerator("lorentz", 1, Fraction(0), ALPHA)
    size = desitter._l_part_slot.cache_info().maxsize
    for k in range(1, size + 11):
        apply_l_part(sp, gen, EXCITED.scale(k))
    assert desitter._l_part_slot.cache_info().currsize == size
    gen_b = gen.at(-1)
    size = desitter._entry_slot.cache_info().maxsize
    for k in range(1, size + 11):
        weak_commutator_parts(sp, gen, gen_b, VAC.scale(k), VAC, 3)
    assert desitter._entry_slot.cache_info().currsize == size


def test_float_and_exact_spaces_never_share_an_entry():
    clear_memos()
    exact, floats = space(6), Space(FLOAT, float(A0), Truncation(6, -2, 2))
    gen_a, gen_b = lorentz_pair(1, -1, lam=Fraction(1))
    float_a, float_b = (PerturbedGenerator("lorentz", g.m, 1.0, 0.5) for g in (gen_a, gen_b))
    first = weak_commutator_parts(exact, gen_a, gen_b, EXCITED, EXCITED, 3)
    second = weak_commutator_parts(floats, float_a, float_b, EXCITED, EXCITED, 3)
    assert desitter._entry_slot.cache_info().currsize == 2
    assert type(first.ll) is Fraction and type(first.psipsi) is Fraction
    assert type(second.ll) is float and type(second.psipsi) is float
    v = TensorState.basis(1, (2,), (1,))
    assert {type(c) for c in apply_l_part(exact, gen_a, v).entries.values()} <= {int, Fraction}
    assert {type(c) for c in apply_l_part(floats, float_a, v).entries.values()} == {float}
    # so is an equal state with float values in the exact space
    v_float = TensorState.basis(1, (2,), (1,)).scale(1.0)
    assert {type(c) for c in apply_l_part(exact, gen_a, v_float).entries.values()} == {float}
    # an exact space with a float charge equals the exact space, and is a third entry
    mixed = Space(EXACT, float(A0), exact.trunc)
    assert mixed == exact
    third = weak_commutator_parts(mixed, gen_a, gen_b, EXCITED, EXCITED, 3)
    assert desitter._entry_slot.cache_info().currsize == 3
    assert type(third.ll) is float  # float L rows, where the exact charge gives Fractions


def test_l_part_memo_keeps_each_state_s_entry_order():
    # an equal state with its entries in another order is another key: the
    # output lists its terms in its input's order, as a cold application does
    v = TensorState.basis(0, (1,), (1,)).scale(0.5).add(TensorState.basis(1, (2,), ()).scale(0.25))
    w = TensorState(dict(reversed(v.entries.items())))
    sp = Space(FLOAT, 0.5, Truncation(6, -2, 2))
    gen = PerturbedGenerator("lorentz", 1, 0.0, 0.5)
    clear_memos()
    apply_l_part(sp, gen, v)
    warm = apply_l_part(sp, gen, w)
    clear_memos()
    assert list(warm.entries.items()) == list(apply_l_part(sp, gen, w).entries.items())


def test_l_part_memo_follows_the_sugawara_fault(monkeypatch):
    # the fault doubles one coefficient of L_2, so a memo blind to it would
    # hand the faulty rows to a clean run or the reverse
    gen = PerturbedGenerator("d_half", 2, LAM, ALPHA)
    v = TensorState.basis(0, (1, 1), (2,))
    clean = apply_l_part(space(8), gen, v)
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", True)
    faulty = apply_l_part(space(8), gen, v)
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", False)
    assert not states_equal(EXACT, clean, faulty)
    assert states_equal(EXACT, apply_l_part(space(8), gen, v), clean)


def test_every_check_runs_on_a_memo_hit():
    sp = space(8)
    gen_a, gen_b = lorentz_pair(1, -1)
    weak_commutator_parts(sp, gen_a, gen_b, STEP, VAC, 3)
    with pytest.raises(ValueError, match="interior buffer"):
        weak_commutator_parts(sp, gen_a, gen_b, STEP, VAC, 0)
    with pytest.raises(ValueError, match="interior margin"):
        weak_commutator_parts(sp, gen_a, gen_b, STEP, VAC, 7)
    # coupling 0 needs no charge step; the same pieces at coupling 1/4 do
    edge = TensorState.basis(2, (), ())
    free_a, free_b = lorentz_pair(1, -1, lam=Fraction(0))
    weak_commutator_parts(sp, free_a, free_b, edge, VAC, 3)
    with pytest.raises(ValueError, match="bilinear step"):
        weak_commutator_parts(sp, gen_a, gen_b, edge, VAC, 3)



def test_an_overflowing_chiral_application_raises_on_every_call(monkeypatch):
    # interior probes never overflow, so the kernel is made to flag it
    def flagged(space, side, n, v):
        out = apply_L_tensor(space, side, n, v)
        return TensorState(out.entries, overflow=True)

    clear_memos()
    monkeypatch.setattr(desitter, "apply_L_tensor", flagged)
    gen_a, gen_b = lorentz_pair(1, -1)
    for _ in range(2):
        with pytest.raises(ValueError, match="left the cutoff"):
            weak_commutator_parts(space(8), gen_a, gen_b, EXCITED, EXCITED, 3)
    clear_memos()


def test_a_coupling_sweep_logs_its_reuse(caplog):
    # the lorentz-sweep benchmark's config: 21 chiral applications for the
    # whole sweep, where a memo-free run makes 756; coupling 0 builds no image
    clear_memos()
    sp = space(8)
    with caplog.at_level(logging.INFO, logger="chargedfock.desitter"):
        for lam in (Fraction(0), Fraction(1, 4), Fraction(1)):
            verify_lorentz(sp, ALPHA, lam, interior_buffer=6, seed=0, samples=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "chargedfock.desitter"]
    pattern = (
        r"verify_lorentz: (\d+) records, (\d+) of (\d+) chiral applications computed,"
        r" (\d+) coupling-free pieces computed, (\d+) reused, [\d.]+ s"
    )
    counts = [tuple(map(int, re.fullmatch(pattern, line).groups())) for line in lines]
    assert [c[0] for c in counts] == [54, 54, 54]
    assert sum(c[1] for c in counts) == 21
    assert sum(c[2] for c in counts) == 756
    # coupling 1 computes nothing: coupling 1/4 filled every bilinear piece
    assert counts[2][1] == counts[2][3] == 0
    assert counts[1][3] > 0 and counts[2][4] == counts[1][3] + counts[1][4]


def test_the_other_reports_log_their_reuse(caplog):
    with caplog.at_level(logging.INFO, logger="chargedfock.desitter"):
        verify_virasoro_c0(space(8, ctx=GAUSS), ALPHA, LAM, samples=1)
        explore_d_half(space(6), ALPHA, LAM, n_bands=4)
    lines = [r.getMessage() for r in caplog.records if r.name == "chargedfock.desitter"]
    assert [line.split(":")[0] for line in lines] == ["verify_virasoro_c0", "explore_d_half"]


def test_lowered_probe_level_warns_naming_the_dropped_probes(caplog):
    with caplog.at_level(logging.WARNING, logger="chargedfock.desitter"):
        rep = verify_lorentz(space(3), ALPHA, LAM, seed=0, samples=2)
    assert len(rep["records"]) == 36
    assert {r["probe"] for r in rep["records"]}.isdisjoint({"current-pair", "split-pair"})
    dropped, _repeats = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert "dropped current-pair, split-pair" in dropped
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="chargedfock.desitter"):
        verify_lorentz(space(5), ALPHA, LAM, seed=0, samples=2)
    assert not [r for r in caplog.records if r.levelno == logging.WARNING]
