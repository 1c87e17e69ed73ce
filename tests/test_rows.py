"""The row kernel and the numerator/denominator state arithmetic against plain
value arithmetic.

``apply_J``, ``apply_J_tensor``, ``apply_L``, ``apply_L_tensor`` and
``apply_Y_mode`` all run through ``fock.apply_rows`` on integer numerators
over a shared denominator.  Here each one must equal the sum, over the
state's values, of the value rows of ``j_step``, ``_sugawara_on_basis`` and
``y_mode_table``, truncation flags included; and add/sub/scale,
``states_equal`` and ``inner_product`` must agree with the same operations
on the ``entries`` values.  Exact modes must agree exactly, float mode
within the tolerance.  A trailing column tag on a key must pass through every
operator, so that a block state maps column by column, and the per-mode row
tables must stay bounded and keyed by the charge's type as well as its value.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import chargedfock.heisenberg as heisenberg
import chargedfock.vertex as vertex
import chargedfock.virasoro as virasoro
from chargedfock.desitter import PsiCache
from chargedfock.fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    inner_product,
    partitions_of,
    states_equal,
    unequal_columns,
    zsym,
)
from chargedfock.heisenberg import apply_J, apply_J_tensor, j_step
from chargedfock.scalar import GaussianRational, make_context
from chargedfock.vertex import apply_Y_mode, y_mode_table
from chargedfock.virasoro import apply_L, apply_L_tensor

MODES = ("exact-rational", "exact-gaussian", "float")
WINDOW = (-2, 2)


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
    cutoff = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=6)))
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
        den, _level, mus, nums = virasoro._sugawara_on_basis(n, j, lam, space.alpha0, False)
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
    j_rows = lambda j, lam: j_step(lam, m, space.charge(j))  # noqa: E731
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
    j_rows = lambda j, lam: j_step(lam, m, space.charge(j))  # noqa: E731
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
    assert states_equal(ctx, v.add(w), w, minus=v)
    assert states_equal(ctx, v.add(w), v.add(w), minus=type(v).zero())
    if ctx.exact and b:
        assert not states_equal(ctx, v.add(w), v, minus=w.scale(2))


def test_equal_states_with_different_denominators_share_a_psi_cache_entry():
    space = make_space("exact-rational", 6)
    v = TensorState({(0, (1,), ()): Fraction(1, 3), (0, (), (2,)): Fraction(2, 5)})
    w = v.scale(Fraction(7, 11)).scale(Fraction(11, 7))
    assert w.den != v.den
    assert states_equal(space.ctx, v, w)
    assert w.entries == v.entries
    cache = PsiCache()
    first = cache.apply(space, space.alpha0, 1, v)
    assert cache.apply(space, space.alpha0, 1, w) is first
    assert len(cache._store) == 1


def test_trailing_key_components_pass_through_on_either_side():
    space = make_space("exact-rational", 6)
    tagged = TensorState({(0, (1,), (2,), 5): 3})
    assert apply_J_tensor(space, "right", -1, tagged).entries == {(0, (1,), (2, 1), 5): 3}
    assert apply_J_tensor(space, "left", -1, tagged).entries == {(0, (1, 1), (2,), 5): 3}
    assert apply_L_tensor(space, "right", 0, tagged).entries == {(0, (1,), (2,), 5): 6}
    chiral = SectorState({(0, (1,), 5): 3})
    assert apply_J(space, -1, chiral).entries == {(0, (1, 1), 5): 3}
    shifted = apply_Y_mode(space, space.alpha0, 0, SectorState({(0, (), 5): 1}))
    assert shifted.entries == {(1, (), 5): 1}


def test_block_state_maps_column_by_column():
    # each column of a block application is the application to its basis vector
    for mode in MODES:
        space = make_space(mode, 5)
        ctx = space.ctx
        keys = [(j, lam) for j in (-1, 0, 1) for level in range(4) for lam in partitions_of(level)]
        block = SectorState.block(keys)
        for apply in (
            lambda v: apply_L(space, -1, apply_J(space, 2, v)),
            lambda v: apply_Y_mode(space, space.alpha0, -1, apply_L(space, 1, v)),
        ):
            out = apply(block)
            for col, key in enumerate(keys):
                column = SectorState({k[:-1]: c for k, c in out.entries.items() if k[-1] == col})
                assert states_equal(ctx, column, apply(SectorState.basis(*key)))
            # one corrupted column is the only one named
            broken = out.add(SectorState({(0, (1,), 7): Fraction(1, 3)}))
            assert unequal_columns(ctx, broken, out) == {7}
            assert unequal_columns(ctx, out, out) == set()
            assert not states_equal(ctx, broken, out)


def test_row_tables_are_bounded_and_keep_float_and_exact_charges_apart():
    # each mode's (sector, partition) table is found by its charge once per
    # application; 1/2 and 0.5 hash alike, so only typed keys keep them apart
    tables = (
        (heisenberg._j_table, lambda charge: (0, charge)),
        (virasoro._l_table, lambda charge: (0, charge, False)),
        (vertex._y_table, lambda charge: (charge, 1)),
    )
    for table, args in tables:
        table.cache_clear()
        assert table.cache_info().maxsize is not None
        exact, floats = table(*args(Fraction(1, 2))), table(*args(0.5))
        assert exact is not floats
        assert exact.cache_info().maxsize is not None
    float_space = make_space("float", 4)
    exact_space = make_space("exact-rational", 4)
    vac = SectorState.basis(1, ())
    for apply in (
        lambda sp: apply_J(sp, 0, vac),
        lambda sp: apply_L(sp, 0, vac),
        lambda sp: apply_Y_mode(sp, sp.alpha0, 1, vac),
    ):
        floats, exact = apply(float_space), apply(exact_space)
        assert floats.entries == exact.entries != {}
        assert all(type(c) is float for c in floats.entries.values())
        assert all(type(c) is Fraction for c in exact.entries.values())
