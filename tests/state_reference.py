"""State helpers that only the tests call.

``gram`` is the Gram pairing of two basis partitions, and ``dump_state``
writes a state as sorted JSON lines.  ``apply_J_tensor`` applies a current to
one chiral factor of a two-sided state through the same row kernel as the
package's other applications.  ``flip`` and ``sign_automorphism`` are the two
exact symmetries of the time-zero modes that the vanishing arguments use.
``close`` compares two scalars within a context's tolerance.
``sugawara_k_loop`` builds an L_n row by running the whole double sum over
k in every sector, as ``virasoro._sugawara_on_basis`` did before it read a
sector-free term list.  ``mode_index`` is the real mode index s of a
level-shift mode out of one sector, the per-sector form of the covariance
coefficients.  ``level_matrices`` stacks an operator's rows over the window's
sectors with ``stack_rows``, one row per (sector, partition), as the package
built every level matrix before it evaluated sector-free planes;
``reference_stacks`` gives that route for the J, L or Y stacks of a space.
"""

import json
from functools import lru_cache
from math import lcm
from typing import IO, Tuple

import numpy as np

from chargedfock.fock import (
    LevelMatrix,
    Partition,
    SectorState,
    TensorState,
    apply_rows,
    float_row,
    charge_key,
    integer_row,
    partitions_of,
    _matrix,
    _positions,
    zsym,
)
from chargedfock.heisenberg import _j_key, _j_table, j_step
from chargedfock.vertex import _y_table, conformal_weight
from chargedfock.virasoro import _l_key, _l_table


def gram(lam: Partition, mu: Partition) -> int:
    """Inner product of two basis partitions (same sector): zsym on the diagonal."""
    return zsym(lam) if lam == mu else 0


def _sort_key(key):
    if len(key) == 2:
        j, lam = key
        return (j, sum(lam), lam)
    j, left, right = key
    return (j, sum(left), left, sum(right), right)


def dump_state(ctx, state, fp: IO[str]) -> None:
    """Write a state as JSON lines (sorted, exact coefficients as 'p/q' strings)."""
    for key in sorted(state.entries, key=_sort_key):
        c = state.entries[key]
        re, im = ctx.json_re_im(c)
        if len(key) == 2:
            rec = {"j": key[0], "partition": list(key[1]), "re": re, "im": im}
        else:
            rec = {"j": key[0], "left": list(key[1]), "right": list(key[2]), "re": re, "im": im}
        fp.write(json.dumps(rec, sort_keys=True) + "\n")


def apply_J_tensor(space, side: str, m: int, v: TensorState) -> TensorState:
    """J_m acting on one chiral factor of a diagonal two-sided state."""
    return apply_rows(space, v, _j_table(*_j_key(space, m)), side)


def flip(v: TensorState) -> TensorState:
    """Chiral swap (j, left, right) -> (j, right, left)."""
    return TensorState({(j, right, left): c for (j, left, right), c in v.entries.items()}, v.overflow)


def sign_automorphism(v):
    """Negate every current mode: sectors reflect and each part contributes -1."""
    if isinstance(v, SectorState):
        return SectorState({(-j, lam): c * (-1) ** len(lam) for (j, lam), c in v.entries.items()}, v.overflow)
    return TensorState(
        {(-j, left, right): c * (-1) ** (len(left) + len(right)) for (j, left, right), c in v.entries.items()},
        v.overflow,
    )


def close(ctx, a, b) -> bool:
    """a == b, within the tolerance in float mode."""
    return ctx.is_zero(a - b)


def sugawara_k_loop(n: int, j: int, lam: Partition, alpha0, fault: bool):
    """Row of L_n on basis (j, lam), every k with |k| <= level + |n| in turn."""
    floating = isinstance(alpha0, float)
    if floating:
        beta, half, q = alpha0 * j, 0.5, 1
    else:
        beta, half, q = j * alpha0.numerator, 1, alpha0.denominator
    ell = sum(lam)
    bound = ell + abs(n)
    acc = {}
    for k in range(-bound, bound + 1):
        a = n - k
        lo, hi = (a, k) if a <= k else (k, a)
        scale = half * q ** ((lo != 0) + (hi != 0)) * (2 if fault and n == 2 and k == 1 else 1)
        for mu1, c1 in j_step(lam, hi, beta):
            for mu2, c2 in j_step(mu1, lo, beta):
                acc[mu2] = acc.get(mu2, 0) + scale * c1 * c2
    if floating:
        return float_row(ell - n, acc)
    return integer_row(ell - n, acc, 2 * q * q)


def mode_index(space, alpha, j: int, delta: int):
    """Real mode index s = -alpha*beta - d - delta of the level-shift-``delta``
    mode out of sector j, beta = j * alpha0 and d = alpha**2 / 2."""
    return -alpha * space.alpha0 * j - conformal_weight(alpha) + (-delta)


def stack_rows(sectors, out_level: int) -> LevelMatrix:
    """Rows at output level ``out_level``, one equally long list per sector,
    as the columns of one stack over the least common denominator of all:
    float64 if a row holds floats (float mode)."""
    positions = _positions(out_level)
    den = lcm(1, *[row[0] for rows in sectors for row in rows])
    filled = [(row_den, nums) for rows in sectors for row_den, _, _, nums in rows if nums]
    if any(type(nums[0]) is float for _, nums in filled):
        top = None
    else:
        top = max((max(map(abs, nums)) * (den // row_den) for row_den, nums in filled), default=0)
    cols = len(sectors[0])
    size = len(positions) * cols
    cells = [0] * (len(sectors) * size)
    for s, rows in enumerate(sectors):
        for col, (row_den, _, mus, nums) in enumerate(rows):
            for mu, n in zip(mus, nums):
                cells[s * size + col + positions[mu] * cols] = n * (den // row_den)
    return _matrix(den, cells, (len(sectors), len(positions), cols), top)


@lru_cache(maxsize=256)
def level_matrices(table, shift: int, window: Tuple[int, int], *args):
    """level -> the rows ``table(*args)(j, lam)`` of ``lam`` in
    ``partitions_of(level)``, mapping to ``level + shift``, stacked for every
    sector j of the charge window ``(j_min, j_max)``.  A level whose row
    lists are equal in every sector stacks one sector's rows and views them
    over all (stride 0)."""
    row_of = table(*args)
    sectors = range(window[0], window[1] + 1)

    @lru_cache(maxsize=64)
    def stack(level: int) -> LevelMatrix:
        lams = partitions_of(level)
        rows = [[row_of(j, lam) for lam in lams] for j in sectors]
        if any(r != rows[0] for r in rows[1:]):
            return stack_rows(rows, level + shift)
        one = stack_rows(rows[:1], level + shift)
        return LevelMatrix(one.den, np.broadcast_to(one.ints, (len(rows),) + one.ints.shape[1:]), one.top)

    return stack


def reference_stacks(space, mode: str, *op):
    """:func:`level_matrices` for J_m (``op`` = m), L_n (n) or Y_delta (alpha,
    delta) on the space's window, from the row tables ``apply_rows`` reads."""
    window = (space.trunc.j_min, space.trunc.j_max)
    if mode == "J":
        return level_matrices(_j_table, -op[0], window, *_j_key(space, op[0]))
    if mode == "L":
        return level_matrices(_l_table, -op[0], window, *_l_key(space, op[0]))
    alpha, delta = op
    return level_matrices(_y_table, delta, window, charge_key(alpha), delta)
