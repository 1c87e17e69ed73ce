"""The integer rows, the row kernel, the level matrices and the state
arithmetic against plain value arithmetic.

The J, L and Y rows are built in integers; each must equal, as a row, its
Fraction reference: ``j_step``, the Fraction Sugawara double step kept in
``fraction_reference`` and ``y_mode_table``.  ``apply_J``, ``apply_J_tensor``,
``apply_L``, ``apply_L_tensor`` and ``apply_Y_mode`` all run through
``fock.apply_rows``, which divides each integer row by its denominator as it
applies it to the state's values; each must equal the sum, over those values,
of the reference value rows, truncation flags included; and add/sub/scale,
``states_equal`` and ``inner_product`` must agree with the same operations on
the ``entries`` dicts.  Each sector of a level stack must be that sector's
rows stacked alone, each column the application to its basis vector, and
``fock.residual`` must fail the entries where the sum in Python ints
(``fraction_reference.reference_residual``) is nonzero, with the primes
past 2**64 deciding where 2**64 divides it, and the same (sector, column)
pairs batched over a stack as one sector at a time.  Exact
modes must agree exactly, float mode within the tolerance.  Every module
cache must stay bounded, a float charge and an equal exact one must keep
apart through their charge keys, and the stacks must be keyed by the window.
"""

import importlib
import pkgutil
import sys
from fractions import Fraction
from functools import partial
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedfock
import chargedfock.fock as fock
import chargedfock.harness as harness
import chargedfock.heisenberg as heisenberg
import chargedfock.twodim as twodim
import chargedfock.vertex as vertex
import chargedfock.virasoro as virasoro
from chargedfock.desitter import PsiCache, verify_lorentz
from chargedfock.fock import (
    LevelMatrix,
    SectorState,
    Space,
    TensorState,
    Truncation,
    charge_key,
    inner_product,
    partitions_of,
    residual,
    states_equal,
    zsym,
)
from chargedfock.heisenberg import apply_J, j_matrices, j_step
from chargedfock.scalar import GaussianRational, make_context
from chargedfock.twodim import TimeZeroMode, time_zero_image
from chargedfock.vertex import apply_Y_mode, y_matrices, y_mode_table
from chargedfock.virasoro import apply_L, apply_L_tensor, l_matrices
from fraction_reference import make_row, reference_failing, reference_residual, sugawara_row, value_row
from state_reference import apply_J_tensor, reference_stacks

MODES = ("exact-rational", "exact-gaussian", "float")
WINDOW = (-2, 2)
# a cutoff above every level the drawn states and operators reach: nothing drops
INTERIOR = 64


def make_space(mode, cutoff):
    if mode == "float":
        return Space(make_context("float", 1e-9), 0.5, Truncation(cutoff, *WINDOW))
    return Space(make_context(mode), Fraction(1, 2), Truncation(cutoff, *WINDOW))


FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def coefficients(mode):
    if mode == "exact-rational":
        return FRACTIONS
    if mode == "exact-gaussian":
        return st.one_of(FRACTIONS, st.builds(GaussianRational, FRACTIONS, FRACTIONS))
    floats = st.floats(min_value=-5, max_value=5, allow_nan=False)
    return st.one_of(floats, st.builds(complex, floats, floats), FRACTIONS)


partitions = st.integers(min_value=0, max_value=4).flatmap(lambda n: st.sampled_from(partitions_of(n)))
sectors = st.integers(min_value=WINDOW[0], max_value=WINDOW[1])


@st.composite
def setups(draw, tensor=False):
    mode = draw(st.sampled_from(MODES))
    cutoff = draw(st.one_of(st.just(INTERIOR), st.integers(min_value=2, max_value=6)))
    coeff = coefficients(mode)
    if tensor:
        key = st.tuples(sectors, partitions, partitions)
        cls = TensorState
    else:
        key = st.tuples(sectors, partitions)
        cls = SectorState
    states = st.dictionaries(key, coeff, max_size=5).map(cls)
    return make_space(mode, cutoff), draw(states), draw(states), draw(coeff)


def assert_values_equal(ctx, got, want):
    want = {k: c for k, c in want.items() if c != 0}
    if ctx.exact:
        assert dict(got) == want
        return
    for key in set(got) | set(want):
        assert abs(got.get(key, 0) - want.get(key, 0)) <= ctx.tolerance, key


def value_row_sum(space, v, rows, side=None, shift=0):
    """(values, overflow) of a chiral operator summed component by component."""
    out = {}
    overflow = v.overflow
    for key, c in v.entries.items():
        j = key[0]
        if not space.trunc.admits_sector(j + shift):
            overflow = True
            continue
        lam = key[2] if side == "right" else key[1]
        for mu, coeff in rows(j, lam):
            if not space.trunc.admits_level(sum(mu)):
                overflow = True
                continue
            if side is None:
                target = (j + shift, mu)
            elif side == "left":
                target = (j, mu, key[2])
            else:
                target = (j, key[1], mu)
            out[target] = out.get(target, 0) + c * coeff
    return out, overflow


def sugawara_values(space, n):
    def rows(j, lam):
        den, _level, mus, nums = sugawara_row(n, j, lam, space.alpha0, False)
        values = [Fraction(num, den) if isinstance(num, int) else num / den for num in nums]
        return list(zip(mus, values))

    return rows


def check(space, got, want):
    values, overflow = want
    assert_values_equal(space.ctx, got.entries, values)
    assert got.overflow == overflow


@settings(max_examples=150, deadline=None)
@given(setups(), st.integers(min_value=-3, max_value=3))
def test_sector_applications_match_value_rows(setup, m):
    space, v, _w, _c = setup
    j_rows = lambda j, lam: j_step(lam, m, space.alpha0 * j)  # noqa: E731
    check(space, apply_J(space, m, v), value_row_sum(space, v, j_rows))
    check(space, apply_L(space, m, v), value_row_sum(space, v, sugawara_values(space, m)))
    for alpha, shift in ((space.alpha0, 1), (-2 * space.alpha0, -2)):
        y_rows = lambda j, lam: y_mode_table(alpha, m, lam)  # noqa: E731
        want = value_row_sum(space, v, y_rows, shift=shift)
        check(space, apply_Y_mode(space, alpha, m, v), want)


@settings(max_examples=100, deadline=None)
@given(setups(tensor=True), st.integers(min_value=-3, max_value=3), st.sampled_from(["left", "right"]))
def test_tensor_applications_match_value_rows(setup, m, side):
    space, v, _w, _c = setup
    j_rows = lambda j, lam: j_step(lam, m, space.alpha0 * j)  # noqa: E731
    check(space, apply_J_tensor(space, side, m, v), value_row_sum(space, v, j_rows, side))
    want = value_row_sum(space, v, sugawara_values(space, m), side)
    check(space, apply_L_tensor(space, side, m, v), want)


@settings(max_examples=150, deadline=None)
@given(st.one_of(setups(), setups(tensor=True)))
def test_state_arithmetic_matches_values(setup):
    space, v, w, c = setup
    ctx = space.ctx
    a, b = dict(v.entries), dict(w.entries)
    keys = set(a) | set(b)
    assert_values_equal(ctx, v.add(w).entries, {k: a.get(k, 0) + b.get(k, 0) for k in keys})
    assert_values_equal(ctx, v.sub(w).entries, {k: a.get(k, 0) - b.get(k, 0) for k in keys})
    assert_values_equal(ctx, v.scale(c).entries, {k: c * x for k, x in a.items()})
    weight = lambda key: zsym(key[1]) * (zsym(key[2]) if len(key) == 3 else 1)  # noqa: E731
    want = sum((ctx.conj(a[k]) * b[k] * weight(k) for k in set(a) & set(b)), ctx.zero())
    assert ctx.is_zero(inner_product(ctx, v, w) - want)
    if ctx.exact:
        assert inner_product(ctx, v, w) == want
        assert states_equal(ctx, v, w) == (a == b)
    assert states_equal(ctx, v, v.scale(Fraction(3, 7)).scale(Fraction(7, 3)))
    assert states_equal(ctx, v.add(w).sub(v), w)
    assert states_equal(ctx, v.add(w).sub(type(v).zero()), v.add(w))
    if ctx.exact and b:
        assert not states_equal(ctx, v.add(w).sub(w.scale(2)), v)


def test_equal_states_built_by_different_routes_get_equal_psi_cache_entries():
    # v holds an int value where w, summed from scaled basis states, holds an
    # equal Fraction; the cache is keyed by value and type, as every memo
    # keyed by state_key is, so each gets its own image, and the two pair alike
    space = make_space("exact-rational", 6)
    v = TensorState({(0, (1,), ()): Fraction(1, 3), (0, (), (2,)): 1})
    third = TensorState.basis(0, (1,), ()).scale(Fraction(2, 3)).scale(Fraction(1, 2))
    w = third.add(TensorState.basis(0, (), (2,)).scale(Fraction(3, 7)).scale(Fraction(7, 3)))
    assert type(w.entries[0, (), (2,)]) is Fraction
    assert states_equal(space.ctx, v, w)
    assert w.entries == v.entries
    cache = PsiCache()
    (image_v, tail_v), (image_w, tail_w) = (cache.apply(space, space.alpha0, 1, s) for s in (v, w))
    assert len(cache._store) == 2 and image_v is not image_w
    assert image_v.terms == image_w.terms and tail_v == tail_w
    assert cache.apply(space, space.alpha0, 1, TensorState(dict(w.entries))) == (image_w, tail_w)
    assert len(cache._store) == 2


def test_a_reversed_state_gets_the_image_of_its_own_entry_order():
    # equal states in two orders: float sums follow the order of the terms,
    # so each order has its own cached image, that of a cold application
    space = make_space("float", 6)
    v = TensorState({(0, (1, 1), ()): 8 / 7, (0, (2,), (1,)): 4 / 7, (-1, (2,), ()): -2.0})
    w = TensorState(dict(reversed(v.entries.items())))
    cache = PsiCache()
    for m in (-1, 1):
        cache.apply(space, space.alpha0, m, v)
        image, _tail = cache.apply(space, space.alpha0, m, w)
        assert image.terms == time_zero_image(space, TimeZeroMode(space.alpha0, m), w).terms


# 1/2 and 1 as in the default config, 1/3 and -2/3 for denominators past 2,
# 0.3 for float mode, where a float charge must sum its terms as the Fraction
# reference does
CHARGES = (Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(-2, 3), 0.3)
deep_partitions = st.integers(min_value=0, max_value=8).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@settings(max_examples=300, deadline=None)
@given(deep_partitions, st.sampled_from(CHARGES), st.integers(-3, 3), sectors, st.booleans())
def test_integer_rows_equal_their_fraction_references(lam, charge, m, j, fault):
    # the column builders behind apply_rows and the level matrices
    beta = charge * j if m == 0 else None
    key = charge_key(charge)
    j_row = heisenberg._j_table(m, key if m == 0 else None)(j, lam)
    assert j_row == make_row(sum(lam) - m, j_step(lam, m, beta), charge if m == 0 else None)
    l_row = virasoro._l_table(m, key, fault)(j, lam)
    assert l_row == sugawara_row(m, j, lam, charge, fault)
    y_row = vertex._y_table(key, m)(j, lam)
    assert y_row == make_row(sum(lam) + m, y_mode_table(charge, m, lam), charge)
    # the Y row from its table's values, the way a state's values give a row
    assert value_row(sum(lam) + m, {mu: c for mu, c in y_mode_table(charge, m, lam) if c}) == y_row


def column_values(matrix, col):
    """Column ``col`` of a one-sector stack or of one plane, as values."""
    return [Fraction(int(n), matrix.den) if matrix.ints.dtype != float else n for n in matrix.ints[..., col].flat]


def on_window(ints, sectors):
    """A stack's entries on each of ``sectors`` sectors: one plane, no sector
    axis, repeated on every sector."""
    return np.broadcast_to(ints, (sectors,) + ints.shape[-2:])


def test_level_matrix_columns_match_applications():
    # each column of a sector's slice of a stack is the application to its
    # basis vector, and a residual names only a corrupted (sector, column)
    for mode in MODES:
        space = make_space(mode, 8)
        ctx = space.ctx
        # (application, stacks, level shift, sector shift, the stacks' sector axis)
        ops = [
            (lambda v: apply_J(space, 2, v), j_matrices(space, 2), -2, 0, ()),
            (lambda v: apply_J(space, 0, v), j_matrices(space, 0), 0, 0, (5,)),
            (lambda v: apply_L(space, -1, v), l_matrices(space, -1), 1, 0, (5,)),
            (lambda v: apply_Y_mode(space, space.alpha0, -1, v), y_matrices(space, space.alpha0, -1), -1, 1, ()),
        ]
        for apply, matrices, shift, jshift, lead in ops:
            for level in range(5):
                stack = matrices(level)
                outs = partitions_of(level + shift)
                assert stack.ints.shape == lead + (len(outs), len(partitions_of(level)))
                for j in (-1, 0, 1):
                    matrix = stack.sectors(j - WINDOW[0], j - WINDOW[0] + 1)
                    for col, lam in enumerate(partitions_of(level)):
                        column = {(j + jshift, mu): x for mu, x in zip(outs, column_values(matrix, col)) if x}
                        assert states_equal(ctx, SectorState(column), apply(SectorState.basis(j, lam)))
        matrix = l_matrices(space, 0)(4)
        broken = matrix.ints.copy()
        broken[3, 2, 3] += 1
        bad, _ = residual(ctx, [(1, ((matrix,),)), (-1, ((LevelMatrix(matrix.den, broken, matrix.top + 1),),))])
        assert np.argwhere(bad.any(axis=1)).tolist() == [[3, 3]]


def test_sector_free_stacks_are_one_plane():
    # J_m (m != 0) and Y_delta read the same rows in every sector, so each of
    # their stacks is one plane, no sector axis; J_0 and L_n take the
    # sector's charge, so each sector keeps its own plane
    for mode in ("exact-rational", "float"):
        space = make_space(mode, INTERIOR)
        for level in range(5):
            for m in (-3, -1, 1, 2):
                assert j_matrices(space, m)(level).ints.ndim == 2, (m, level)
            for delta in (-2, 0, 1, 3):
                assert y_matrices(space, space.alpha0, delta)(level).ints.ndim == 2, (delta, level)
            assert j_matrices(space, 0)(level).ints.shape[0] == 5, level
            for n in (-2, -1, 0, 1, 2):
                if level >= n:  # a nonempty output level
                    assert l_matrices(space, n)(level).ints.shape[0] == 5, (n, level)


WINDOWS = ((0, 0), (-2, 2), (-3, 3))


def values(den, ints):
    """A stack's entries as values: Fractions, or floats in float mode."""
    if ints.dtype == float:
        return (ints / den).tolist()
    return np.vectorize(lambda n: Fraction(int(n), den), otypes=[object])(ints).tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(WINDOWS),
    st.sampled_from((Fraction(1, 2), Fraction(2, 7), 0.3)),
    st.sampled_from(("J", "L", "Y")),
    st.integers(-3, 3),
    st.integers(0, 5),
)
def test_every_sector_slice_equals_its_own_row_stack(window, charge, mode, m, level):
    # one stack over the window's least common denominator, against each
    # sector's rows stacked alone over their own: at 2/7, J_0 and L_n reduce
    # to different denominators in different sectors
    ctx = make_context("float", 1e-9) if isinstance(charge, float) else make_context("exact-rational")
    space = Space(ctx, charge, Truncation(INTERIOR, *window))
    if mode == "J":
        stack, rows, shift = j_matrices(space, m), heisenberg._j_table(*heisenberg._j_key(space, m)), -m
    elif mode == "L":
        stack, rows, shift = l_matrices(space, m), virasoro._l_table(*virasoro._l_key(space, m)), -m
    else:
        stack, rows, shift = y_matrices(space, -2 * charge, m), vertex._y_table(charge_key(-2 * charge), m), m
    stack = stack(level)
    sectors = range(window[0], window[1] + 1)
    # J_0 and an L_n with a nonempty output level take the sector's charge; every other stack is one plane
    own_planes = (mode, m) == ("J", 0) or mode == "L" and level + shift >= 0
    assert stack.ints.shape[:-2] == ((len(sectors),) if own_planes else ())
    assert stack.ints.dtype == float or stack.top == max((abs(int(n)) for n in stack.ints.flat), default=0)
    for s, j in enumerate(sectors):
        own = fock.row_matrix([rows(j, lam) for lam in partitions_of(level)], level + shift)
        view = stack.sectors(s, s + 1)
        assert np.shares_memory(view.ints, stack.ints) or not stack.ints.size
        if stack.ints.dtype == float:  # the planes sum float terms in another order than the rows
            assert np.allclose(view.ints, own.ints[None], rtol=1e-12, atol=1e-12 * np.abs(own.ints).max(initial=1))
        else:
            assert values(view.den, on_window(view.ints, 1)) == values(own.den, own.ints[None])


def assert_stacks_equal(got, want, floating, label):
    """``got`` against the reference stack ``want`` on every sector of the
    window: one plane, no sector axis, only where the reference's rows agree
    in every sector (it views them with stride 0), and then repeated on
    every sector."""
    assert got.ints.shape[-2:] == want.ints.shape[-2:], label
    assert got.ints.shape[:-2] == want.ints.shape[:-2] or want.ints.strides[0] == 0, label
    ints = on_window(got.ints, len(want.ints))
    if floating:
        scale = np.abs(want.ints).max(initial=1)
        assert np.allclose(ints, want.ints, rtol=1e-12, atol=1e-12 * scale), label
    else:
        assert (got.den, got.top, got.ints.dtype) == (want.den, want.top, want.ints.dtype), label
        assert np.array_equal(ints, want.ints), label


# charges of both signs, denominators 1, 2, 3 and 7, an integer charge past 1
PLANE_CHARGES = (Fraction(1, 2), Fraction(-2, 7), Fraction(1), Fraction(-1, 3), Fraction(3))
PLANE_CUTOFF = 6


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("mode", ["exact-rational", "float"])
@pytest.mark.parametrize("window", [(-2, 2), (-3, 1), (0, 0)], ids=str)
@pytest.mark.parametrize("charge", PLANE_CHARGES, ids=str)
def test_plane_stacks_equal_the_row_stacks(monkeypatch, charge, window, mode, fault):
    # every J_m, L_n and Y_delta stack, |m|, |n|, |delta| <= 6, at every level
    # up to two past the cutoff, against its rows stacked sector by sector:
    # den, ints and top exactly, float values within 1e-12 relative, one
    # plane repeated on every sector; the Sugawara fault enters L alone
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", fault)
    floating = mode == "float"
    space = Space(make_context(mode, 1e-9 if floating else 0.0), float(charge) if floating else charge,
                  Truncation(PLANE_CUTOFF, *window))
    ops = [("L", (n,), l_matrices) for n in range(-6, 7)]
    if not fault:
        ops += [("J", (m,), j_matrices) for m in range(-6, 7)]
        ops += [("Y", (space.alpha0, delta), y_matrices) for delta in range(-6, 7)]
    for name, op, stacks in ops:
        new, old = stacks(space, *op), reference_stacks(space, name, *op)
        for level in range(PLANE_CUTOFF + 3):
            got, want = new(level), old(level)
            assert_stacks_equal(got, want, floating, (name, op, level))


def test_plane_stacks_past_int64_equal_the_row_stacks():
    # Y at -2/7 from level 9 passes 2**63 in its products and its stack; L_0
    # and J_0 at a charge of 2**40 / 3 pass it when evaluated in the sectors
    cases = [(Fraction(-2, 7), "Y", (Fraction(-2, 7), delta), range(9, 11)) for delta in (-1, 0, 1)]
    cases += [(Fraction(2**40, 3), name, (0,), range(5)) for name in ("J", "L")]
    stacks = {"J": j_matrices, "L": l_matrices, "Y": y_matrices}
    wide = 0
    for charge, name, op, levels in cases:
        space = Space(make_context("exact-rational"), charge, Truncation(10, -2, 2))
        for level in levels:
            got, want = stacks[name](space, *op)(level), reference_stacks(space, name, *op)(level)
            assert_stacks_equal(got, want, False, (name, op, level))
            wide += got.ints.dtype == object
    assert wide >= 6


small_ints = st.integers(min_value=-50, max_value=50)
wide_ints = st.integers(min_value=-(2**61), max_value=2**61)


@st.composite
def int_matrices(draw, rows, cols, entries=small_ints):
    ints = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    den = draw(st.integers(min_value=1, max_value=12))
    return LevelMatrix(den, np.array(ints, dtype=np.int64).reshape(rows, cols), max((abs(x) for r in ints for x in r), default=0))


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = [(draw(coeff), ((draw(int_matrices(r, k)), draw(int_matrices(k, c))),))]
    terms.append((draw(coeff), ((draw(int_matrices(r, c)),),)))
    return terms


def fraction_sum(terms):
    """The residual's values, in Fractions."""
    total = None
    for c, (chain,) in terms:
        x = np.vectorize(lambda n: Fraction(int(n)), otypes=[object])(chain[-1].ints) / chain[-1].den
        for m in chain[-2::-1]:
            x = (np.vectorize(lambda n: Fraction(int(n)), otypes=[object])(m.ints) / m.den) @ x
        total = c * x if total is None else total + c * x
    return total


EXACT = make_context("exact-rational")


def decided(terms):
    """The exact residual's failing entries, as lists, and its primes."""
    bad, primes = residual(EXACT, terms)
    return bad.tolist(), primes


@settings(max_examples=150, deadline=None)
@given(products())
def test_residual_fails_the_nonzero_entries_of_the_sum(terms):
    bad, primes = residual(EXACT, terms)
    assert primes == 0
    assert (bad == reference_failing(EXACT, terms)).all()
    assert (bad == (fraction_sum(terms) != 0)).all()


def exact_matrix(den, values):
    """Python-int values as a LevelMatrix, int64 where every entry fits."""
    top = int(np.abs(values).max())
    return LevelMatrix(den, values.astype(np.int64 if top < 2**63 else object), top)


# fault values that vanish modulo 2**64, modulo 2**64 and the first prime, and
# modulo 2**64 and the first two primes
FAULTS = st.sampled_from((2**64, -(2**64), 2**64 * fock.PRIMES[0], 2**64 * fock.PRIMES[0] * fock.PRIMES[1]))


@st.composite
def planted_faults(draw):
    """Terms c (A B) - c D on stacks of 1-3 sectors with entries of up to 61
    bits, D the exact product A B plus planted faults, A and B bounded by
    2**61 so that the certified bound passes 2**64; optionally both taken
    two-sided, with one shared right chain."""
    s, r, k, c = (draw(st.integers(min_value=1, max_value=3)) for _ in range(4))
    a = draw(int_matrices(s * r, k, wide_ints))
    a = LevelMatrix(a.den, a.ints.reshape(s, r, k), 2**61)
    b = draw(st.one_of(int_matrices(k, c, wide_ints), int_matrices(k, c)))
    b = LevelMatrix(b.den, b.ints, 2**61)
    cells = s * r * c
    faults = draw(st.lists(st.one_of(st.just(0), st.just(0), FAULTS, wide_ints), min_size=cells, max_size=cells))
    d = a.ints.astype(object) @ b.ints.astype(object) + np.array(faults, dtype=object).reshape(s, r, c)
    d = exact_matrix(a.den * b.den, d)
    coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    if draw(st.booleans()):
        right = draw(int_matrices(draw(st.integers(1, 3)), draw(st.integers(1, 3)))).ints
        right = (LevelMatrix(1, right, 50),)
        return [(coeff, ((a, b), right)), (-coeff, ((d,), right))]
    return [(coeff, ((a, b),)), (-coeff, ((d,),))]


@settings(max_examples=150, deadline=None)
@given(planted_faults())
def test_residues_fail_the_entries_of_the_python_int_sum(terms):
    bad, primes = residual(EXACT, terms)
    assert primes > 0
    assert (bad == reference_failing(EXACT, terms)).all()


def test_the_primes_run_until_their_product_passes_the_bound():
    # r = 2**64 p1 vanishes modulo 2**64 and p1; its bound, |r| itself, takes
    # p2 as well, which fails it: a residual that stopped one prime early
    # would pass it
    one = LevelMatrix(1, np.ones((1, 1), dtype=np.int64), 1)
    p1, p2 = fock.PRIMES[:2]
    assert decided([(2**64 * p1, ((one,),))]) == ([[True]], 2)
    assert decided([(2**64 * p1 * p2, ((one,),))]) == ([[True]], 3)
    # past the product of every modulus no residual is decided
    with pytest.raises(ValueError, match="lower the level cutoff"):
        residual(EXACT, [(2**64 * prod(fock.PRIMES), ((one,),))])


def test_each_matrix_product_is_reduced():
    # A B C - D = 0 with entries of 61 bits: modulo a prime, B C reduced has
    # entries below 2**53, and A times that unreduced would pass 2**64 and wrap
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(2**60, 2**61, size=(2, 2)) for _ in range(3))
    exact = a.astype(object) @ b.astype(object) @ c.astype(object)
    factors = [LevelMatrix(1, x, 2**61) for x in (a, b, c)]
    bad, primes = residual(EXACT, [(1, (tuple(factors),)), (-1, ((exact_matrix(1, exact),),))])
    assert primes > 0 and not bad.any()
    exact[1, 0] += 2**64
    bad, _ = residual(EXACT, [(1, (tuple(factors),)), (-1, ((exact_matrix(1, exact),),))])
    assert bad.tolist() == [[False, False], [True, False]]


def two_sided_terms(mode, seed):
    """Terms of a two-sided batch: four left chains (2x5)(5x3), the first on
    a stack of 3 sectors, over three right chains (4x6)(6x7), two of the
    left ones sharing the first right chain, and a chiral term -D with D the
    pairs' Kronecker sum plus planted faults F, which the residual must fail
    and nothing else.  Exact entries of up to 61 bits, so the certified bound
    passes 2**64, and faults of 2**64 that only a prime sees; float entries
    small integers, so that the float sums are exact."""
    rng = np.random.default_rng(seed)
    exact = mode == "exact-rational"
    ctx = EXACT if exact else make_context("float", 1e-9)
    high = 2**61 if exact else 8

    def factor(*shape):
        ints = rng.integers(-high, high, size=shape)
        return LevelMatrix(1, ints if exact else ints.astype(float), high if exact else 0)

    rights = [(factor(4, 6), factor(6, 7)) for _ in range(3)]
    lefts = [(factor(3, 2, 5), factor(5, 3))] + [(factor(2, 5), factor(5, 3)) for _ in range(3)]
    coefficients = rng.choice([-3, -2, -1, 1, 2, 3], size=len(lefts)).tolist()
    pairs = [(c, (left, right)) for c, left, right in zip(coefficients, lefts, [rights[0], *rights])]
    faults = rng.choice([0, 0, 0, 1, -5] + ([2**64, -(2**64)] if exact else []), size=(3, 8, 21)).astype(object)
    d = reference_residual(ctx, pairs) + (faults if exact else faults.astype(float))
    top = int(np.abs(d).max())
    d = LevelMatrix(1, d.astype(np.int64 if top < 2**63 else object) if exact else d, top if exact else 0)
    return ctx, [*pairs, (-1, ((d,),))], faults != 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["exact-rational", "float"])
def test_two_sided_batches_fail_the_reference_entries(mode, seed):
    # the Kronecker products of a batch's pairs are summed as one matrix
    # product per sector plane, then reordered to kron's layout: the sum must
    # fail exactly the planted faults, the entries of the Python-int sum
    ctx, terms, planted = two_sided_terms(mode, seed)
    bad, primes = residual(ctx, terms)
    assert bad.shape == planted.shape
    assert (bad == reference_failing(ctx, terms)).all()
    assert (bad == planted).all() and planted.any()
    assert primes > 0 if ctx.exact else primes == 0


def test_a_sum_of_residues_that_could_wrap_is_refused():
    # past the bound 2**64 the inner dimension may hold at most 2**11 products
    row = LevelMatrix(1, np.full((1, fock.MAX_INNER), 2**40, dtype=np.int64), 2**40)
    assert decided([(1, ((row, row.T),))]) == ([[True]], 2)
    row = LevelMatrix(1, np.full((1, fock.MAX_INNER + 1), 2**40, dtype=np.int64), 2**40)
    with pytest.raises(ValueError, match="lower the level cutoff"):
        residual(EXACT, [(1, ((row, row.T),))])


@st.composite
def sector_products(draw):
    """Terms on stacks of 1-4 sectors, each with one scalar coefficient: a
    product of two stacks, and a stack or a matrix without a sector axis
    times a diagonal stack of one value per sector, as Y_{delta-m} J_0."""
    s, r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    stack = lambda rows, cols: int_matrices(rows * s, cols).map(  # noqa: E731
        lambda m: LevelMatrix(m.den, m.ints.reshape(s, rows, cols), m.top)
    )
    charges = draw(st.lists(small_ints, min_size=s, max_size=s))
    diagonal = np.array(charges, dtype=np.int64).reshape(s, 1, 1) * np.eye(c, dtype=np.int64)
    charge = LevelMatrix(draw(st.integers(min_value=1, max_value=12)), diagonal, max(map(abs, charges)))
    last = draw(st.one_of(stack(r, c), int_matrices(r, c)))
    return s, [(draw(coeff), ((draw(stack(r, k)), draw(stack(k, c))),)), (draw(coeff), ((last, charge),))]


def failing_sector_columns(failing, terms, sectors):
    """(sector, column) pairs where ``failing(terms)`` fails, by one batched
    residual and by a residual per sector on each stack's own slice."""
    columns = terms[0][1][0][-1].ints.shape[-1]
    batched = np.broadcast_to(failing(terms).any(axis=-2), (sectors, columns))
    one_by_one = []
    for s in range(sectors):
        at = lambda m: m if m.ints.ndim == 2 else LevelMatrix(m.den, m.ints[s], m.top)  # noqa: E731
        single = [(c, tuple(tuple(at(m) for m in chain) for chain in chains)) for c, chains in terms]
        one_by_one += [(s, int(col)) for col in np.flatnonzero(failing(single).any(axis=0))]
    return [tuple(x) for x in np.argwhere(batched).tolist()], one_by_one


@settings(max_examples=150, deadline=None)
@given(sector_products())
def test_batched_residual_fails_the_per_sector_columns(case):
    sectors, terms = case
    batched, one_by_one = failing_sector_columns(lambda t: residual(EXACT, t)[0], terms, sectors)
    assert batched == one_by_one
    assert failing_sector_columns(partial(reference_failing, EXACT), terms, sectors) == (batched, one_by_one)


def test_primes_decide_where_2_64_divides_the_residual():
    big = LevelMatrix(1, np.array([[2**32, 0], [0, 2**32]], dtype=np.int64), 2**32)
    assert not (big.ints @ big.ints).any()  # 2**64 wraps to 0 in int64
    assert decided([(1, ((big, big),))]) == ([[True, False], [False, True]], 1)
    # each product fits, their sum over the inner dimension does not
    row = LevelMatrix(1, np.full((1, 4), 2**31, dtype=np.int64), 2**31)
    assert decided([(1, ((row, row.T),))]) == ([[True]], 1)
    # a certified bound below 2**64, past 2**63 as well, takes the one pass
    # modulo 2**64; at 2**64 it takes a prime, which fails the value 2**64
    half = LevelMatrix(1, np.array([[2**31]], dtype=np.int64), 2**31)
    quarter = LevelMatrix(1, np.array([[2**30]], dtype=np.int64), 2**30)
    assert decided([(1, ((quarter, quarter),)), (-1, ((LevelMatrix(1, quarter.ints**2, 2**60),),))]) == ([[False]], 0)
    assert decided([(1, ((half, half),)), (-1, ((LevelMatrix(1, half.ints**2, 2**62),),))]) == ([[False]], 0)
    assert decided([(3, ((half, half),))]) == ([[True]], 0)
    assert decided([(4, ((half, half),))]) == ([[True]], 1)
    # a factor past int64, and factor matrices in Python ints
    small = LevelMatrix(1, np.array([[1, 1], [1, -1]], dtype=np.int64), 1)
    assert decided([(2**70, ((small, small),))]) == ([[True, False], [False, True]], 1)
    # a zero factor makes the product, and its bound, 0 modulo every modulus,
    # whatever the Python-int factor beside it; a zero coefficient likewise
    huge = LevelMatrix(1, np.array([[2**70]], dtype=object), 2**70)
    zero = LevelMatrix(1, np.zeros((1, 1), dtype=np.int64), 0)
    assert decided([(1, ((huge, zero),))]) == ([[False]], 0)
    assert decided([(0, ((huge, huge),)), (1, ((zero,),))]) == ([[False]], 0)
    assert decided([(1, ((huge, huge),)), (-1, ((exact_matrix(1, huge.ints * 2**70),),))]) == ([[False]], 3)


def test_covariance_residuals_past_2_64_fail_the_reference_entries(monkeypatch):
    # at alpha0 = 2/7 the Y denominators push some covariance residuals past
    # 2**64: every residual of the suite must fail the entries of its
    # Python-int sum, without a fault and with one
    space = Space(EXACT, Fraction(2, 7), Truncation(8, -2, 2))
    primes = []

    def checked(ctx, terms):
        bad, used = residual(ctx, terms)
        assert (bad == reference_failing(ctx, terms)).all()
        primes.append(used)
        return bad, used

    monkeypatch.setattr(harness, "residual", checked)
    assert harness.primary_covariance_suite(space, Fraction(2, 7))["status"] == "pass"
    assert any(primes) and not all(primes)
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", True)
    assert harness.primary_covariance_suite(space, Fraction(2, 7))["status"] == "fail"


# keyed by a level or a partition alone, so the cutoff bounds them
UNBOUNDED = {"partitions_of", "_bounded_partitions", "zsym"}


def test_every_module_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(chargedfock.__path__):
        module = importlib.import_module(f"chargedfock.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[name] = value.cache_info().maxsize
    assert {"_j_row", "_sugawara_on_basis", "_y_row", "_chiral_gram", "_entry_slot"} <= set(caches)
    assert {"level_stacks", "_creation_block", "_annihilation_block"} <= set(caches)
    assert {name for name, maxsize in caches.items() if maxsize is None} == UNBOUNDED


# an exact charge and the equal float: 1/2, and 1, where Fraction(1) and 1.0
# hash alike as well
EQUAL_CHARGES = ((Fraction(1, 2), 0.5), (Fraction(1), 1.0))


@pytest.mark.parametrize("exact, floating", EQUAL_CHARGES, ids=str)
def test_float_and_exact_charges_stay_apart_through_their_keys(exact, floating):
    # every memo a charge enters keys it by charge_key: the exact charge gets
    # integer rows, stacks, Grams and image terms, the float one float ones
    keys = charge_key(exact), charge_key(floating)
    rows = (
        (heisenberg._j_row, lambda key: (0, 1, (1,), key)),
        (virasoro._sugawara_on_basis, lambda key: (0, 1, (), key, False)),
        (vertex._y_row, lambda key: (key, 1, ())),
    )
    for row, args in rows:
        ints, floats = (row(*args(key)) for key in keys)
        assert {type(n) for n in ints[3]} == {int} and {type(n) for n in floats[3]} == {float}
        with pytest.raises(TypeError):  # the builder given a charge, not its key, takes neither route
            row.__wrapped__(*args(exact))
    # (plane builder, its arguments at a key)
    builders = (
        (heisenberg._j_planes, lambda key: (0, key)),
        (virasoro._l_planes, lambda key: (0, key, False)),
        (vertex._y_planes, lambda key: (key, 1)),
    )
    for planes, args in builders:
        ints, floats = (fock.level_stacks(planes, WINDOW, *args(key)) for key in keys)
        assert ints is not floats
        assert ints(2).ints.dtype == np.int64 and floats(2).ints.dtype == float
        # equal arguments find the memoized stacks, whose own per-level memo is bounded
        assert ints is fock.level_stacks(planes, WINDOW, *args(keys[0]))
        assert ints.cache_info().maxsize is not None
        narrow = fock.level_stacks(planes, (-1, 1), *args(keys[0]))
        assert ints is not narrow
        if planes is vertex._y_planes:  # one plane, no sector axis, on either window
            assert ints(2).ints.ndim == narrow(2).ints.ndim == 2
        else:
            assert ints(2).ints.shape[0] == 5 and narrow(2).ints.shape[0] == 3
    ints, floats = (twodim._chiral_gram(key, key, 1, (), 1, ()) for key in keys)
    assert type(ints[0]) is int and type(floats[0]) is float
    space = Space(make_context("exact-rational"), exact, Truncation(4, *WINDOW))
    cache, probe = PsiCache(), TensorState.basis(0, (1,), ())
    (ints, _), (floats, _) = (cache.apply(space, charge, 1, probe) for charge in (exact, floating))
    assert len(cache._store) == 2
    assert {term[1] for term in ints.terms} == {keys[0], charge_key(-exact)}
    assert {type(term[1]) for term in floats.terms} == {float}
    # and so the applications: float values in float mode, Fractions in the
    # exact one, where an integral charge may leave integers
    float_space = Space(make_context("float", 1e-9), floating, space.trunc)
    vac = SectorState.basis(1, ())
    for apply in (
        lambda sp: apply_J(sp, 0, vac),
        lambda sp: apply_L(sp, 0, vac),
        lambda sp: apply_Y_mode(sp, sp.alpha0, 1, vac),
    ):
        floats, exacts = apply(float_space), apply(space)
        assert floats.entries == exacts.entries != {}
        assert {type(c) for c in floats.entries.values()} == {float}
        if exact.denominator == 1:
            assert not any(isinstance(c, float) for c in exacts.entries.values())
        else:
            assert {type(c) for c in exacts.entries.values()} == {Fraction}


def test_no_memo_lookup_hashes_a_fraction(monkeypatch):
    # a Fraction's hash takes a modular inverse, and a charge key's does not:
    # in a commutativity report and a Lorentz sweep, no row, stack, Gram,
    # image or pairing-piece lookup hashes a Fraction, and no key holds a
    # Space, whose hash would hash its alpha0
    original = Fraction.__hash__
    callers = []

    def recorded(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self)

    space = Space(make_context("exact-rational"), Fraction(1, 2), Truncation(6, *WINDOW))
    monkeypatch.setattr(Fraction, "__hash__", recorded)
    harness.commutativity_report(space, space.alpha0, seed=0, low_cutoff=5)
    verify_lorentz(space, space.alpha0, Fraction(1, 4), interior_buffer=3, seed=0, samples=1)
    monkeypatch.undo()
    assert callers == []
