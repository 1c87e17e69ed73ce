import io
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chargedfock.twodim as twodim
from chargedfock.fock import (
    Space,
    TensorState,
    Truncation,
    charge_key,
    inner_product,
    norm_sq,
    partitions_of,
    states_equal,
)
from chargedfock.scalar import GaussianRational, make_context
from chargedfock.twodim import (
    IMAGES,
    BandReport,
    PsiCache,
    TimeZeroMode,
    apply_time_zero,
    band_tail_norm,
    image_band_report,
    image_inner_product,
    partial_sum_norm_series,
    psi_pair_form,
    tail_product,
    time_zero_image,
    weak_psi_commutator,
    write_convergence_csv,
)
from chargedfock.vertex import vacuum_mode_norm_sq
from fraction_reference import chiral_gram
from memos import fresh_memos
from state_reference import close, flip, sign_automorphism

EXACT = make_context("exact-rational")
A0 = Fraction(1, 2)


def space(L, window=(-2, 2)):
    return Space(EXACT, A0, Truncation(L, *window))


VAC = TensorState.basis(0, (), ())


def test_vacuum_band_norms_match_closed_form():
    # each band holds one vacuum pair of charge A0 and one of -A0
    sp = space(6)
    for m in (0, 1, -2):
        mode = TimeZeroMode(A0, m)
        out, report = apply_time_zero(sp, mode, VAC)
        expected = {
            band: float(2 * vacuum_mode_norm_sq(A0, band) * vacuum_mode_norm_sq(A0, band + m))
            for band in range(max(0, -m), 6 - max(0, m) + 1)
        }
        assert dict(report.bands) == pytest.approx(expected)
        assert float(norm_sq(EXACT, out)) == pytest.approx(sum(expected.values()))


def test_symmetrized_doubles_vacuum_norms():
    sp = space(5)
    both, rep = apply_time_zero(sp, TimeZeroMode(A0, 1), VAC)
    # charge-reflected images live in opposite sectors, with equal norms
    plus = TensorState({k: c for k, c in both.entries.items() if k[0] == 1})
    minus = TensorState({k: c for k, c in both.entries.items() if k[0] == -1})
    assert len(plus) + len(minus) == len(both)
    assert norm_sq(EXACT, both) == 2 * norm_sq(EXACT, plus) == 2 * norm_sq(EXACT, minus)
    assert norm_sq(EXACT, plus) == sum(
        vacuum_mode_norm_sq(A0, band) * vacuum_mode_norm_sq(A0, band + 1) for band in range(5)
    )
    assert not rep.charge_clipped


def test_charge_window_clipping():
    sp = space(4, window=(0, 2))
    out, rep = apply_time_zero(sp, TimeZeroMode(A0, 0), VAC)
    assert rep.charge_clipped
    assert {j for (j, _, _) in out.entries} == {1}


def test_partial_sum_series_values():
    rows = partial_sum_norm_series(A0 * A0, 0, 4)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert rows[0][1] == 1
    assert rows[1][1] == vacuum_mode_norm_sq(A0, 1) ** 2 == Fraction(1, 16)
    assert rows[-1][2] == sum(r[1] for r in rows)
    shifted = partial_sum_norm_series(A0 * A0, -2, 3)
    assert [r[0] for r in shifted] == [2, 3, 4]


def test_exact_rows_equal_the_closed_form_products():
    # the recurrence against the product formula, band by band, for n <= 64
    for alpha in (A0, Fraction(2, 3)):
        for m in range(-2, 3):
            start = max(0, -m)
            rows = partial_sum_norm_series(alpha * alpha, m, 65 - start)
            assert [band for band, _, _ in rows] == list(range(start, 65))
            total = 0
            for band, val, partial in rows:
                want = vacuum_mode_norm_sq(alpha, band) * vacuum_mode_norm_sq(alpha, band + m)
                total += want
                assert (val, partial) == (want, total), (alpha, m, band)
                assert type(val) is type(partial) is Fraction


def test_flip_and_sign_are_involutions():
    v = TensorState({(0, (2, 1), (1,)): Fraction(3), (1, (1,), ()): Fraction(-2)})
    assert flip(flip(v)).entries == v.entries
    assert sign_automorphism(sign_automorphism(v)).entries == v.entries
    assert flip(v).entries[(0, (1,), (2, 1))] == 3
    assert sign_automorphism(v).entries[(-1, (1,), ())] == 2


def test_flip_conjugates_mode_index():
    # F Psi_m F = Psi_{-m} exactly at a symmetric truncation
    sp = space(5)
    probes = [VAC, TensorState.basis(0, (1,), ()), TensorState.basis(1, (2,), (1, 1))]
    for m in (-2, -1, 0, 1, 2):
        for v in probes:
            lhs, _ = apply_time_zero(sp, TimeZeroMode(A0, m), flip(v))
            rhs, _ = apply_time_zero(sp, TimeZeroMode(A0, -m), v)
            assert states_equal(EXACT, flip(lhs), rhs), (m, v)


def test_sign_automorphism_fixes_symmetrized_mode():
    sp = space(5)
    probes = [VAC, TensorState.basis(0, (1,), (1,)), TensorState.basis(-1, (), (2,))]
    for m in (-1, 0, 2):
        for v in probes:
            lhs, _ = apply_time_zero(sp, TimeZeroMode(A0, m), sign_automorphism(v))
            rhs, _ = apply_time_zero(sp, TimeZeroMode(A0, m), v)
            assert states_equal(EXACT, lhs, sign_automorphism(rhs)), (m, v)


def test_adjoint_pairing_exact_at_truncation():
    sp = space(5)
    u = TensorState.basis(0, (1,), ())
    w = TensorState.basis(1, (1, 1), (2,))
    for m in (-2, -1, 0, 1, 2):
        mode = TimeZeroMode(A0, m)
        lhs = inner_product(EXACT, apply_time_zero(sp, mode, u)[0], w)
        rhs = inner_product(EXACT, u, apply_time_zero(sp, TimeZeroMode(A0, -m), w)[0])
        assert lhs == rhs, m


def test_vacuum_weak_commutators_vanish_exactly():
    sp = space(6)
    for m in range(-3, 4):
        for n in range(-3, 4):
            value, budget = weak_psi_commutator(sp, A0, m, n, VAC, VAC)
            assert value == 0, (m, n)
            assert budget >= 0


def test_flip_invariant_excited_pairs_vanish_exactly():
    sp = space(6)
    for phi in (TensorState.basis(0, (1,), (1,)), TensorState.basis(0, (2, 1), (2, 1))):
        for m in range(-2, 3):
            for n in range(-2, 3):
                value, _ = weak_psi_commutator(sp, A0, m, n, phi, phi)
                assert value == 0, (m, n)


def test_grading_selection_rule():
    # nonzero needs (leftlevel - rightlevel) growth across the pair equal to m+n
    sp = space(6)
    phi1 = VAC
    phi2 = TensorState.basis(0, (2,), (1,))  # k = 1
    val_match, _ = weak_psi_commutator(sp, A0, 1, 0, phi1, phi2)
    val_miss, _ = weak_psi_commutator(sp, A0, 1, 1, phi1, phi2)
    assert val_match != 0
    assert val_miss == 0


def test_single_sided_excitation_against_vacuum_still_exact():
    # an unexpected extra exactness: one excited chiral factor is not enough
    # to expose the cutoff when the other state is the vacuum pair
    sp = space(6)
    for phi2 in (TensorState.basis(0, (1,), ()), TensorState.basis(0, (2,), ())):
        for m, n in ((1, 0), (0, 1), (2, -1), (2, 0)):
            value, _ = weak_psi_commutator(sp, A0, m, n, VAC, phi2)
            assert value == 0, (phi2, m, n)


def test_asymmetric_pair_residual_shrinks_with_cutoff():
    phi = TensorState.basis(0, (1,), ())
    vals = []
    for L in (4, 8):
        value, budget = weak_psi_commutator(space(L), A0, 1, -1, phi, phi)
        assert abs(float(value)) <= budget
        vals.append(abs(float(value)))
    assert 0 < vals[1] < vals[0]


def test_band_tail_norm_power_law():
    bands = tuple((n, float(n + 1) ** -3.0) for n in range(12))
    rep = BandReport(bands, False)
    t = band_tail_norm(rep)
    # true tail sum_{13..inf} n^-3 ~ 3.1e-3 -> sqrt ~ 0.056; budget within x2
    assert 0.03 < t < 0.12
    assert band_tail_norm(BandReport((), False)) == 0.0
    assert band_tail_norm(BandReport(((0, 0.0),), False)) == 0.0
    short = BandReport(((0, 1.0), (1, 0.5)), False)
    assert band_tail_norm(short) == math.inf
    flat = tuple((n, 1.0) for n in range(10))
    assert band_tail_norm(BandReport(flat, False)) == math.inf


def test_equal_band_norms_at_shifted_bands_make_one_tail_fit():
    # the fit reads the norms alone, so the memo is keyed by them: a band
    # series shifted by three bands is a hit, one changed norm a new fit
    norms = [float(n + 1) ** -3.0 for n in range(12)]
    fresh_memos()
    first = band_tail_norm(BandReport(tuple(enumerate(norms)), False))
    shifted = band_tail_norm(BandReport(tuple(enumerate(norms, start=-3)), True))
    assert shifted == first == twodim.tail_fit.__wrapped__(tuple(norms))
    info = twodim.tail_fit.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    band_tail_norm(BandReport(tuple(enumerate(norms[:-1] + [norms[-1] / 2])), False))
    assert twodim.tail_fit.cache_info().misses == 2
    assert 0 < info.maxsize < math.inf


def test_tail_product_of_an_empty_side_is_zero():
    assert tail_product(0.0, math.inf) == 0.0
    assert tail_product(math.inf, 0.0) == 0.0
    assert tail_product(0.5, math.inf) == math.inf
    assert tail_product(0.5, 0.25) == 0.125


def test_psi_pair_form_budget_orthogonality():
    sp = space(6)
    value, budget = psi_pair_form(sp, TimeZeroMode(A0, 0), TimeZeroMode(A0, 0), VAC, VAC)
    assert value == norm_sq(EXACT, apply_time_zero(sp, TimeZeroMode(A0, 0), VAC)[0])
    assert budget < 1.0


def test_convergence_csv_format():
    buf = io.StringIO()
    write_convergence_csv(partial_sum_norm_series(A0 * A0, 0, 3), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "band,band_norm_sq,partial_sum"
    assert lines[1] == "0,1,1"
    assert lines[2].startswith("1,0.0625,1.0625")


# ---------------------------------------------------------------------------
# factorized kernel against the materialized oracle

SMALL_PARTS = [lam for level in range(4) for lam in partitions_of(level)]
# pairing partners may sit one level beyond the largest cutoff drawn
PARTNER_PARTS = [lam for level in range(8) for lam in partitions_of(level)]


def _raw_state(parts):
    # (sector, left, right, re numerator, im numerator, denominator); the
    # sectors reach the window edge so that charge clipping occurs
    entry = st.tuples(
        st.integers(-2, 2),
        st.sampled_from(parts),
        st.sampled_from(parts),
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3),
        st.integers(1, 4),
    )
    return st.lists(entry, min_size=1, max_size=4)


CASES = st.fixed_dictionaries(
    {
        "L": st.integers(2, 6),
        "mult": st.integers(1, 2),
        "m_bra": st.integers(-3, 3),
        "m_ket": st.integers(-3, 3),
        "phi1": _raw_state(SMALL_PARTS),
        "phi2": _raw_state(SMALL_PARTS),
        "v": _raw_state(PARTNER_PARTS),
    }
)

# the bra's sector-2 entry loses its +1 image to the window edge, and the
# partner's level-5 entry lies beyond the cutoff
EDGE_CASE = {
    "L": 4,
    "mult": 1,
    "m_bra": 1,
    "m_ket": -1,
    "phi1": [(2, (1,), (), 1, 1, 2), (1, (), (1,), 1, 1, 2)],
    "phi2": [(-2, (), (), -2, 1, 3), (0, (2,), (1,), -2, 1, 3)],
    "v": [(1, (2,), (1,), 1, -1, 1), (-1, (1,), (), 1, -1, 1), (1, (3, 2), (), 1, -1, 1)],
}


def _scalar(ctx, re, im, den):
    re, im = Fraction(re, den), Fraction(im, den)
    if ctx.mode == "exact-rational":
        return re
    if ctx.mode == "exact-gaussian":
        return GaussianRational(re, im)
    return complex(float(re), float(im))


def _state(ctx, raw):
    return TensorState({(j, l, r): _scalar(ctx, re, im, den) for j, l, r, re, im, den in raw})


@pytest.mark.parametrize(
    "ctx",
    [make_context("exact-rational"), make_context("exact-gaussian"), make_context("float", 1e-9)],
    ids=lambda ctx: ctx.mode,
)
@settings(max_examples=100, deadline=None)
@example(case=EDGE_CASE)
@given(case=CASES)
def test_factorized_kernel_matches_materialized_oracle(ctx, case):
    alpha0 = Fraction(1, 2) if ctx.exact else 0.5
    sp = Space(ctx, alpha0, Truncation(case["L"], -2, 2))
    alpha = alpha0 * case["mult"]
    mode_bra = TimeZeroMode(alpha, case["m_bra"])
    mode_ket = TimeZeroMode(alpha, case["m_ket"])
    phi1, phi2, v = (_state(ctx, case[k]) for k in ("phi1", "phi2", "v"))

    u_img, w_img = time_zero_image(sp, mode_bra, phi1), time_zero_image(sp, mode_ket, phi2)
    u, rep_u = apply_time_zero(sp, mode_bra, phi1)
    w, rep_w = apply_time_zero(sp, mode_ket, phi2)
    pairs = [
        (image_inner_product(u_img, w_img), inner_product(ctx, u, w)),
        (image_inner_product(v, w_img), inner_product(ctx, v, w)),
        (image_inner_product(u_img, v), inner_product(ctx, u, v)),
    ]
    for factorized, materialized in pairs:
        if ctx.exact:
            assert factorized == materialized
        else:
            assert close(ctx, factorized, materialized)

    for img, rep in ((u_img, rep_u), (w_img, rep_w)):
        got = image_band_report(img)
        if ctx.exact:
            assert got == rep
        else:
            assert got.charge_clipped == rep.charge_clipped
            ours, theirs = dict(got.bands), dict(rep.bands)
            for band in set(ours) | set(theirs):
                assert abs(ours.get(band, 0.0) - theirs.get(band, 0.0)) <= ctx.tolerance


# ---------------------------------------------------------------------------
# integer chiral Grams and the tail memo

# 1/2 as in the default config, 1/3 and -2/3 for denominators past 2, 0.3 for
# float mode, where the Gram must sum the float rows as the reference does
GRAM_CHARGES = (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), 0.3)
DEEP_PARTS = st.integers(0, 8).flatmap(lambda n: st.sampled_from(partitions_of(n)))


def _same(got, want):
    """Exact equality, and bit equality for floats."""
    assert got == want
    if isinstance(want, float) or isinstance(got, float):
        assert float(got).hex() == float(want).hex()


def _charge(key):
    """The charge of a charge key: a Fraction, or the float itself."""
    return key if isinstance(key, float) else Fraction(*key)


def _gram_value(pair):
    """A kernel Gram (numerator, denominator) as the reference's value: an
    exact charge's Python-int numerator over its denominator, a float one's
    sum over 1."""
    num, den = pair
    if type(num) is int:
        return Fraction(num, den)
    assert den == 1
    return num


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(GRAM_CHARGES),
    st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    DEEP_PARTS,
    DEEP_PARTS,
    st.integers(-3, 3),
    st.integers(-1, 1),
)
def test_integer_grams_equal_the_fraction_reference(charge, signs, lam1, lam2, delta1, skew):
    # delta2 puts both outputs on one level, or one level off with skew
    delta2 = sum(lam1) + delta1 - sum(lam2) + skew
    alpha1, alpha2 = signs[0] * charge, signs[1] * charge
    keys = charge_key(alpha1), charge_key(alpha2)
    got = twodim._chiral_gram(*keys, delta1, lam1, delta2, lam2)
    if isinstance(charge, Fraction):
        assert type(got[0]) is int  # a sum of integer numerators, never a Fraction
    _same(_gram_value(got), chiral_gram(alpha1, delta1, lam1, alpha2, delta2, lam2))
    assert twodim._chiral_gram.__wrapped__(*keys, delta1, lam1, delta2, lam2) == got


def _reference_chiral_gram(key1, key2, d1, l1, d2, l2):
    g = chiral_gram(_charge(key1), d1, l1, _charge(key2), d2, l2)
    return (g, 1) if isinstance(g, float) else (g.numerator, g.denominator)


PAIRING_CASES = st.fixed_dictionaries(
    {
        "L": st.integers(2, 6),
        "charge": st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)]),
        "m_bra": st.integers(-3, 3),
        "m_ket": st.integers(-3, 3),
        "phi1": _raw_state(SMALL_PARTS),
        "phi2": _raw_state(SMALL_PARTS),
    }
)


@pytest.mark.parametrize("mode", ["exact-rational", "exact-gaussian", "float"])
@settings(max_examples=60, deadline=None)
@given(case=PAIRING_CASES)
def test_pairings_equal_those_of_the_reference_grams(mode, case):
    ctx = make_context(mode, 0.0 if mode != "float" else 1e-9)
    charge = case["charge"] if ctx.exact else float(case["charge"])
    sp = Space(ctx, charge, Truncation(case["L"], -2, 2))
    u = time_zero_image(sp, TimeZeroMode(charge, case["m_bra"]), _state(ctx, case["phi1"]))
    w = time_zero_image(sp, TimeZeroMode(charge, case["m_ket"]), _state(ctx, case["phi2"]))
    got = (image_inner_product(u, w), image_band_report(u), image_band_report(w))
    with mock.patch.object(twodim, "_chiral_gram", _reference_chiral_gram):
        want = (image_inner_product(u, w), image_band_report(u), image_band_report(w))
    _same(got[0], want[0])
    for ours, theirs in zip(got[1:], want[1:]):
        assert ours == theirs
        for (_, a), (_, b) in zip(ours.bands, theirs.bands):
            _same(a, b)


def _reference_bands(u, w, same_band):
    """Bra band -> its share of <u, w>, one Fraction Gram of the reference per
    chiral factor, the term pairs in the kernel's order (so that float sums
    are bit for bit the kernel's)."""
    ctx, L, a, b = u.space.ctx, u.space.trunc.level_cutoff, u.mode.m, w.mode.m
    out = {}
    for jt, key, c, left, right, ll, lr in u.terms:
        for jt2, key2, c2, left2, right2, ll2, lr2 in w.terms:
            al, al2 = _charge(key), _charge(key2)
            shift = ll - ll2
            if jt2 != jt or lr + a - ll != lr2 + b - ll2 or (same_band and shift):
                continue
            for d in range(max(-ll, -a - lr), min(L - ll, L - a - lr) + 1):
                g = chiral_gram(al, d, left, al2, d + shift, left2)
                g = g * chiral_gram(al, d + a, right, al2, d + shift + b, right2) if g else 0
                if g:
                    out[d] = out.get(d, 0) + ctx.conj(c) * c2 * g
    return out


def _kernel_state(ctx, raw):
    """Like _state, but an exact-rational coefficient over 1 is a Python int,
    as in a basis probe, so that its bands sum Python ints."""
    integer = ctx.mode == "exact-rational"
    return TensorState(
        {(j, l, r): re if integer and den == 1 else _scalar(ctx, re, im, den) for j, l, r, re, im, den in raw}
    )


# a band whose terms carry two different Gram denominators, at charge 1/3
# and at -2/3
MIXED_THIRD = {
    "L": 2,
    "charge": Fraction(1, 3),
    "m_bra": 1,
    "m_ket": 1,
    "phi1": [(-1, (2,), (), -1, 0, 1), (1, (), (), 1, 0, 1)],
    "phi2": [(-1, (2,), (), 1, 2, 1), (1, (), (), 1, -1, 3)],
}
MIXED_TWO_THIRDS = {**MIXED_THIRD, "charge": Fraction(-2, 3)}
# a band norm whose numerator and denominator pass 2**53, where
# float(num) / float(den) and num / den round differently
WIDE = {
    "L": 6,
    "charge": Fraction(-2, 3),
    "m_bra": 2,
    "m_ket": 0,
    "phi1": [(0, (2, 1), (), -1, 0, 1)],
    "phi2": [(0, (1,), (1,), 2, 1, 1)],
}


def _kernel_images(mode, case):
    ctx = make_context(mode, 0.0 if mode != "float" else 1e-9)
    charge = case["charge"] if ctx.exact else float(case["charge"])
    sp = Space(ctx, charge, Truncation(case["L"], -2, 2))
    return tuple(
        time_zero_image(sp, TimeZeroMode(charge, case[m]), _kernel_state(ctx, case[phi]))
        for m, phi in (("m_bra", "phi1"), ("m_ket", "phi2"))
    )


@pytest.mark.parametrize("mode", ["exact-rational", "exact-gaussian", "float"])
@settings(max_examples=60, deadline=None)
@example(case=MIXED_THIRD)
@example(case=MIXED_TWO_THIRDS)
@example(case=WIDE)
@given(case=PAIRING_CASES)
def test_band_sums_equal_those_of_fraction_grams(mode, case):
    # every band of a pairing and of each band-norm series, its pairing and
    # its float norms against Fraction Grams: exact in the exact modes, bit
    # for bit in float mode
    u, w = _kernel_images(mode, case)
    ctx = u.space.ctx
    for x, y, same_band in ((u, w, False), (u, u, True), (w, w, True)):
        got, want = twodim._band_pairings(x, y, same_band), _reference_bands(x, y, same_band)
        assert list(got) == list(want)
        for d in want:
            _same(twodim._scalar(*got[d]), want[d])
    total = ctx.zero()
    for value in _reference_bands(u, w, False).values():
        total = total + value
    _same(image_inner_product(u, w), total)
    for image in (u, w):
        norms = _reference_bands(image, image, True)
        want = [(d, float(ctx.re_im(norms[d])[0])) for d in sorted(norms) if norms[d] != 0]
        got = image_band_report(image).bands
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.hex() == b.hex()


def test_the_kernel_examples_keep_their_purpose():
    # the @examples above must keep reaching what they were chosen for
    sizes = []
    over_lcm = twodim._over_lcm
    with mock.patch.object(twodim, "_over_lcm", lambda sums: sizes.append(len(sums)) or over_lcm(sums)):
        for case in (MIXED_THIRD, MIXED_TWO_THIRDS):
            sizes.clear()
            u, _w = _kernel_images("exact-rational", case)
            twodim._band_pairings(u, u, True)
            assert max(sizes) >= 2
    u, _w = _kernel_images("exact-rational", WIDE)
    wide = [
        (num, den)
        for num, den in twodim._band_pairings(u, u, True).values()
        if type(num) is int and num > 2**53 and float(num) / float(den) != num / den
    ]
    assert wide


def test_band_norms_build_at_most_one_fraction_per_band():
    # the kernel's shape, not its speed: band norms of Psi_{-1} on a basis
    # probe sum Python ints, and divide at most once per band
    image = time_zero_image(space(7), TimeZeroMode(A0, -1), TensorState.basis(0, (2,), (1,)))
    fresh_memos()
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counted):
        bands = twodim._band_pairings(image, image, True)
    assert len(bands) == 6
    assert len(made) <= len(bands)


@pytest.mark.parametrize("mode", ["exact-rational", "float"])
def test_psi_pair_form_is_the_same_with_the_memo_cold_and_warm(mode):
    ctx = make_context(mode, 0.0 if mode != "float" else 1e-9)
    half = A0 if ctx.exact else 0.5
    sp = Space(ctx, half, Truncation(7, -2, 2))
    phi1, phi2 = TensorState.basis(0, (2,), (1,)), TensorState.basis(0, (1,), ())
    modes = (TimeZeroMode(half, -1), TimeZeroMode(half, 2))
    fresh_memos()
    cold = psi_pair_form(sp, *modes, phi1, phi2)
    assert len(IMAGES._store) == 2
    with mock.patch.object(twodim, "time_zero_image", side_effect=AssertionError("rebuilt")):
        warm = psi_pair_form(sp, *modes, phi1, phi2)
    assert len(IMAGES._store) == 2
    _same(warm[0], cold[0])
    _same(warm[1], cold[1])


def test_float_and_fraction_charges_never_share_a_memo_entry():
    sp = space(6)
    state = TensorState.basis(0, (1,), ())
    assert time_zero_image(sp, TimeZeroMode(A0, 1), state) != time_zero_image(
        sp, TimeZeroMode(0.5, 1), state
    )  # equal modes, but the terms carry the charge keys
    cache = PsiCache()
    exact, _ = cache.apply(sp, A0, 1, state)
    floating, _ = cache.apply(sp, 0.5, 1, state)
    assert len(cache._store) == 2
    assert {term[1] for term in exact.terms} == {(1, 2), (-1, 2)}
    assert {term[1] for term in floating.terms} == {0.5, -0.5}
    assert {type(term[1]) for term in floating.terms} == {float}
    # Y_0 (1,) = (1 - alpha^2) (1,), so its Gram is (3/4)^2 zsym((1,)) in both:
    # a float over 1, and Python ints
    num, den = twodim._chiral_gram(0.5, 0.5, 0, (1,), 0, (1,))
    assert type(num) is float and num == 0.5625 and den == 1
    num, den = twodim._chiral_gram((1, 2), (1, 2), 0, (1,), 0, (1,))
    assert type(num) is int and type(den) is int and Fraction(num, den) == Fraction(9, 16)


def test_psi_cache_refuses_an_image_that_leaves_the_charge_window():
    # dropped terms of a clipped image are not orthogonal to the kept ones,
    # so no pairing may read one, and a refused image is never stored
    sp = space(6)
    fresh_memos()
    edge = TensorState.basis(2, (1,), ())
    with pytest.raises(ValueError, match="left the charge window"):
        IMAGES.apply(sp, A0, 1, edge)
    assert IMAGES._store == {}
    assert time_zero_image(sp, TimeZeroMode(A0, 1), edge).charge_clipped
    for _ in range(2):
        with pytest.raises(ValueError, match="left the charge window"):
            weak_psi_commutator(sp, A0, 1, 0, VAC, edge)
    IMAGES.apply(sp, A0, 1, TensorState.basis(1, (1,), ()))  # one step inside: kept
    images = [image for image, _tail in IMAGES._store.values()]
    assert len(images) == 2 and not any(image.charge_clipped for image in images)


def test_the_image_memo_drops_its_oldest_image_past_the_bound(monkeypatch):
    monkeypatch.setattr(twodim, "IMAGE_BOUND", 3)
    sp = space(6)
    cache = PsiCache()
    states = [TensorState.basis(0, (k,), ()) for k in range(1, 5)]
    first = cache.apply(sp, A0, 1, states[0])
    for state in states[1:]:
        cache.apply(sp, A0, 1, state)
    assert (len(cache._store), cache.built, cache.requests) == (3, 4, 4)
    for state in states[1:]:  # the three newest still hit
        cache.apply(sp, A0, 1, state)
    assert cache.built == 4
    rebuilt = cache.apply(sp, A0, 1, states[0])  # the oldest went, so it is built again
    assert cache.built == 5 and rebuilt is not first and rebuilt[0].terms == first[0].terms
    assert len(cache._store) == 3


def test_float_and_exact_spaces_with_equal_alpha0_never_share_an_image():
    # the spaces' keys differ in the context and the charge key, so each gets
    # its own image, with its own value types
    state = TensorState.basis(0, (1,), ())
    exact = space(6)
    floats = Space(make_context("float", 1e-9), 0.5, exact.trunc)
    mixed = Space(EXACT, 0.5, exact.trunc)  # equal to the exact space, but a float charge
    assert mixed == exact
    cache = PsiCache()
    images = [cache.apply(sp, sp.alpha0, 1, state)[0] for sp in (exact, floats, mixed)]
    assert len(cache._store) == 3
    assert all(image.space is sp for image, sp in zip(images, (exact, floats, mixed)))
    assert {type(term[1]) for term in images[0].terms} == {tuple}
    assert {type(term[1]) for term in images[1].terms} == {type(term[1]) for term in images[2].terms} == {float}
    # and a space with another charge quantum moves the same charge further
    quarter, _ = cache.apply(Space(EXACT, Fraction(1, 4), exact.trunc), A0, 1, state)
    assert len(cache._store) == 4 and {term[0] for term in quarter.terms} == {-2, 2}



COMMUTATOR_MODES = {
    "exact-rational": (EXACT, A0, 1),
    "exact-gaussian": (make_context("exact-gaussian"), A0, GaussianRational(0, 1)),
    "float": (make_context("float", 1e-9), 0.5, 1.0),
}
PROBE_PARTITIONS = [lam for level in range(3) for lam in partitions_of(level)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(COMMUTATOR_MODES)),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.tuples(*[st.integers(-1, 1), st.sampled_from(PROBE_PARTITIONS), st.sampled_from(PROBE_PARTITIONS)] * 2),
)
@example("float", 1, 0, (0, (), (), 0, (), ()))  # both pairings 0.0: the mirror must keep +0.0
def test_a_weak_commutator_s_mirror_is_zero_minus_it(mode, m, n, probes):
    # swapping m and n swaps the two pairings: a cold W(n, m) equals
    # zero - W(m, n) with the same budget, bit for bit in float mode with the
    # sign of zero, and so does W(n, m) read from the mirror's memo slot
    ctx, half, unit = COMMUTATOR_MODES[mode]
    sp = Space(ctx, half, Truncation(6, -2, 2))
    phi1 = TensorState.basis(*probes[:3])
    phi2 = TensorState.basis(*probes[3:]).scale(unit)
    fresh_memos()
    value, budget = weak_psi_commutator(sp, half, m, n, phi1, phi2)
    mirrored, mirrored_budget = weak_psi_commutator(sp, half, n, m, phi1, phi2)
    fresh_memos()
    cold, cold_budget = weak_psi_commutator(sp, half, n, m, phi1, phi2)
    for got in (ctx.zero() - value, mirrored):
        _same(got, cold)
        assert type(got) is type(cold)
    _same(mirrored_budget, cold_budget)
    _same(budget, cold_budget)
    if m == n:
        _, pair_budget = psi_pair_form(sp, TimeZeroMode(half, -m), TimeZeroMode(half, m), phi1, phi2)
        assert value == 0 and budget == 2 * pair_budget
