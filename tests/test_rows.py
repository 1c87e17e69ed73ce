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
``fock.residual`` must name the same failing columns on its int64 and its
Python-int path, taking the second wherever int64 could wrap, and the same
(sector, column) pairs batched over a stack as one sector at a time.  Exact
modes must agree exactly, float mode within the tolerance.  The row tables
and level-stack caches must stay bounded and keyed by the charge's type as
well as its value, and the stacks by the window.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedfock.fock as fock
import chargedfock.harness as harness
import chargedfock.heisenberg as heisenberg
import chargedfock.vertex as vertex
import chargedfock.virasoro as virasoro
from chargedfock.desitter import PsiCache
from chargedfock.fock import (
    LevelMatrix,
    SectorState,
    Space,
    TensorState,
    Truncation,
    inner_product,
    nonzero,
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
from fraction_reference import make_row, sugawara_row, value_row
from state_reference import apply_J_tensor

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


def test_equal_states_built_by_different_routes_share_one_psi_cache_entry():
    # v holds an int value where w, summed from scaled basis states, holds an
    # equal Fraction; the cache is keyed by value, not by how a value was built
    space = make_space("exact-rational", 6)
    v = TensorState({(0, (1,), ()): Fraction(1, 3), (0, (), (2,)): 1})
    third = TensorState.basis(0, (1,), ()).scale(Fraction(2, 3)).scale(Fraction(1, 2))
    w = third.add(TensorState.basis(0, (), (2,)).scale(Fraction(3, 7)).scale(Fraction(7, 3)))
    assert type(w.entries[0, (), (2,)]) is Fraction
    assert states_equal(space.ctx, v, w)
    assert w.entries == v.entries
    cache = PsiCache()
    first = cache.apply(space, space.alpha0, 1, v)
    assert cache.apply(space, space.alpha0, 1, w) is first
    assert len(cache._store) == 1


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
    j_row = heisenberg._j_table(m, charge if m == 0 else None)(j, lam)
    assert j_row == make_row(sum(lam) - m, j_step(lam, m, beta), charge if m == 0 else None)
    l_row = virasoro._l_table(m, charge, fault)(j, lam)
    assert l_row == sugawara_row(m, j, lam, charge, fault)
    y_row = vertex._y_table(charge, m)(j, lam)
    assert y_row == make_row(sum(lam) + m, y_mode_table(charge, m, lam), charge)
    # the Y row from its table's values, the way a state's values give a row
    assert value_row(sum(lam) + m, {mu: c for mu, c in y_mode_table(charge, m, lam) if c}) == y_row


def column_values(matrix, col):
    """Column ``col`` of a one-sector stack, as values."""
    return [Fraction(int(n), matrix.den) if matrix.ints.dtype != float else n for n in matrix.ints[0, :, col]]


def test_level_matrix_columns_match_applications():
    # each column of a sector's slice of a stack is the application to its
    # basis vector, and a residual names only a corrupted (sector, column)
    for mode in MODES:
        space = make_space(mode, 8)
        ctx = space.ctx
        ops = [
            (lambda v: apply_J(space, 2, v), j_matrices(space, 2), -2, 0),
            (lambda v: apply_J(space, 0, v), j_matrices(space, 0), 0, 0),
            (lambda v: apply_L(space, -1, v), l_matrices(space, -1), 1, 0),
            (lambda v: apply_Y_mode(space, space.alpha0, -1, v), y_matrices(space, space.alpha0, -1), -1, 1),
        ]
        for apply, matrices, shift, jshift in ops:
            for level in range(5):
                stack = matrices(level)
                outs = partitions_of(level + shift)
                assert stack.ints.shape == (5, len(outs), len(partitions_of(level)))
                for j in (-1, 0, 1):
                    matrix = stack.sectors(j - WINDOW[0], j - WINDOW[0] + 1)
                    for col, lam in enumerate(partitions_of(level)):
                        column = {(j + jshift, mu): x for mu, x in zip(outs, column_values(matrix, col)) if x}
                        assert states_equal(ctx, SectorState(column), apply(SectorState.basis(j, lam)))
        matrix = l_matrices(space, 0)(4)
        broken = matrix.ints.copy()
        broken[3, 2, 3] += 1
        total = residual(ctx, [(1, ((matrix,),)), (-1, ((LevelMatrix(matrix.den, broken, matrix.top + 1),),))])
        assert np.argwhere(nonzero(ctx, total).any(axis=1)).tolist() == [[3, 3]]


def test_sector_free_stacks_are_one_plane():
    # J_m (m != 0) and Y_delta read the same rows in every sector, so their
    # stacks are one plane viewed with stride 0 on the sector axis; J_0 and
    # L_n take the sector's charge, so each sector keeps its own plane
    for mode in ("exact-rational", "float"):
        space = make_space(mode, INTERIOR)
        for stack in (j_matrices(space, 1)(3), y_matrices(space, space.alpha0, 1)(3)):
            assert stack.ints.shape[0] == 5 and stack.ints.strides[0] == 0
        assert l_matrices(space, 0)(3).ints.strides[0] != 0


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
        stack, rows, shift = j_matrices(space, m), heisenberg._j_rows(space, m), -m
    elif mode == "L":
        stack, rows, shift = l_matrices(space, m), virasoro._l_rows(space, m), -m
    else:
        stack, rows, shift = y_matrices(space, -2 * charge, m), vertex._y_table(-2 * charge, m), m
    stack = stack(level)
    sectors = range(window[0], window[1] + 1)
    assert stack.ints.shape[0] == len(sectors)
    assert stack.ints.dtype == float or stack.top == max((abs(int(n)) for n in stack.ints.flat), default=0)
    for s, j in enumerate(sectors):
        own = fock.stack_rows([[rows(j, lam) for lam in partitions_of(level)]], level + shift)
        view = stack.sectors(s, s + 1)
        assert np.shares_memory(view.ints, stack.ints) or not stack.ints.size
        assert values(view.den, view.ints) == values(own.den, own.ints)


small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def int_matrices(draw, rows, cols):
    ints = draw(st.lists(st.lists(small_ints, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
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


@settings(max_examples=150, deadline=None)
@given(products())
def test_int64_and_python_int_paths_fail_the_same_columns(terms):
    ctx = make_context("exact-rational")
    fast = residual(ctx, terms)
    assert fast.dtype == np.int64
    wide = fock.INT64_BOUND
    fock.INT64_BOUND = 0
    try:
        slow = residual(ctx, terms)
    finally:
        fock.INT64_BOUND = wide
    assert slow.dtype == object
    assert fast.tolist() == slow.tolist()
    exact = fraction_sum(terms)
    assert (nonzero(ctx, fast) == (exact != 0)).all()


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


def failing_sector_columns(ctx, terms, sectors):
    """(sector, column) pairs that fail, by one batched residual and by a
    residual per sector on each stack's own slice."""
    columns = terms[0][1][0][-1].ints.shape[-1]
    batched = np.broadcast_to(nonzero(ctx, residual(ctx, terms)).any(axis=-2), (sectors, columns))
    one_by_one = []
    for s in range(sectors):
        at = lambda m: m if m.ints.ndim == 2 else LevelMatrix(m.den, m.ints[s], m.top)  # noqa: E731
        single = [(c, tuple(tuple(at(m) for m in chain) for chain in chains)) for c, chains in terms]
        total = residual(ctx, single)
        one_by_one += [(s, int(col)) for col in np.flatnonzero(nonzero(ctx, total).any(axis=0))]
    return [tuple(x) for x in np.argwhere(batched).tolist()], one_by_one


@settings(max_examples=150, deadline=None)
@given(sector_products())
def test_batched_residual_fails_the_per_sector_columns(case):
    sectors, terms = case
    ctx = make_context("exact-rational")
    assert residual(ctx, terms).dtype == np.int64
    batched, one_by_one = failing_sector_columns(ctx, terms, sectors)
    assert batched == one_by_one
    wide = fock.INT64_BOUND
    fock.INT64_BOUND = 0
    try:
        assert residual(ctx, terms).dtype == object
        assert failing_sector_columns(ctx, terms, sectors) == (batched, one_by_one)
    finally:
        fock.INT64_BOUND = wide


def test_python_int_path_where_int64_would_wrap():
    ctx = make_context("exact-rational")
    big = LevelMatrix(1, np.array([[2**32, 0], [0, 2**32]], dtype=np.int64), 2**32)
    assert not (big.ints @ big.ints).any()  # 2**64 wraps to 0 in int64
    total = residual(ctx, [(1, ((big, big),))])
    assert total.dtype == object
    assert total.tolist() == [[2**64, 0], [0, 2**64]]
    # each product fits, their sum over the inner dimension does not
    row = LevelMatrix(1, np.full((1, 4), 2**31, dtype=np.int64), 2**31)
    assert residual(ctx, [(1, ((row, row.T),))]).tolist() == [[2**64]]
    # a certified bound just past 2**63 takes Python ints although the true
    # value fits; just below it stays in int64
    half = LevelMatrix(1, np.array([[2**31]], dtype=np.int64), 2**31)
    assert residual(ctx, [(2, ((half, half),))]).dtype == object
    assert residual(ctx, [(1, ((half, half),))]).dtype == np.int64
    # a factor past int64 widens the sum; a chain whose own bound fits is
    # multiplied out in int64 first, one whose factor does not fit is not
    small = LevelMatrix(1, np.array([[3, -1], [2, 5]], dtype=np.int64), 5)
    wide = residual(ctx, [(2**70, ((small, small),))])
    assert wide.dtype == object
    assert wide.tolist() == [[7 * 2**70, -8 * 2**70], [16 * 2**70, 23 * 2**70]]
    huge = LevelMatrix(1, np.array([[2**70]], dtype=object), 2**70)
    zero = LevelMatrix(1, np.zeros((1, 1), dtype=np.int64), 0)
    assert residual(ctx, [(1, ((huge, zero),))]).tolist() == [[0]]


def test_suites_fall_back_to_python_ints_and_agree(monkeypatch):
    # at alpha0 = 2/7 the Y denominators push some covariance checks past the
    # int64 bound; a suite must give the same dict on either path
    space = Space(make_context("exact-rational"), Fraction(2, 7), Truncation(8, -2, 2))
    paths = []

    def counted(ctx, terms):
        total = residual(ctx, terms)
        paths.append(total.dtype == object)
        return total

    monkeypatch.setattr(harness, "residual", counted)
    run = lambda: harness.primary_covariance_suite(space, Fraction(2, 7))  # noqa: E731
    want = run()
    assert want["status"] == "pass"
    assert any(paths) and not all(paths)
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", True)
    faulty = run()
    monkeypatch.setattr(fock, "INT64_BOUND", 0)
    assert run() == faulty
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", False)
    assert run() == want


def test_row_tables_are_bounded_and_keep_float_and_exact_charges_apart():
    # each mode's (sector, partition) table is found by its charge once per
    # application; 1/2 and 0.5 hash alike, so only typed keys keep them apart
    # (factory, its arguments at a charge, the level shift of its rows)
    tables = (
        (heisenberg._j_table, lambda charge: (0, charge), 0),
        (virasoro._l_table, lambda charge: (0, charge, False), 0),
        (vertex._y_table, lambda charge: (charge, 1), 1),
    )
    for table, args, shift in tables:
        # the state kernels' memo of each table
        assert fock.row_table.cache_info().maxsize is not None
        exact, floats = fock.row_table(table, *args(Fraction(1, 2))), fock.row_table(table, *args(0.5))
        assert exact is not floats
        assert exact.cache_info().maxsize is not None
        # the level stacks of each table, keyed the same way and by the window
        assert fock.level_matrices.cache_info().maxsize is not None
        exact = fock.level_matrices(table, shift, WINDOW, *args(Fraction(1, 2)))
        assert exact is not fock.level_matrices(table, shift, WINDOW, *args(0.5))
        narrow = fock.level_matrices(table, shift, (-1, 1), *args(Fraction(1, 2)))
        assert exact is not narrow
        assert exact is fock.level_matrices(table, shift, WINDOW, *args(Fraction(1, 2)))
        assert exact.cache_info().maxsize is not None
        assert exact(2).ints.shape[0] == 5 and narrow(2).ints.shape[0] == 3
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
