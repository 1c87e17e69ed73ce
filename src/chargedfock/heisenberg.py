"""Current mode actions J_m on sector states.

Conventions (fixed by positivity of the Gram form and J_m* = J_{-m}):

* ``[J_m, J_n] = m * delta_{m,-n}``
* ``J_0`` acts on sector ``j`` as the scalar charge ``j * alpha0``
* ``J_{-k}`` (k > 0) prepends a part ``k`` with coefficient 1
* ``J_k`` (k > 0) removes one part ``k`` with coefficient ``k * multiplicity``

Actions are exact, one cached integer row per basis partition through
:func:`~chargedfock.fock.apply_rows`; a result beyond the cutoff flags
``overflow``.  :func:`j_matrices` gives one matrix per level, over every
sector of the window (see :func:`~chargedfock.fock.level_stacks`): J_m (m !=
0) is the one plane of its rows, and J_0 = j alpha0 times the identity, with
alpha0 = p / q, is j times the plane p I over q.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .fock import (
    ChargeKey,
    LevelMatrix,
    Partition,
    Row,
    SectorState,
    Space,
    apply_rows,
    charge_key,
    float_row,
    integer_row,
    level_stacks,
    partitions_of,
    row_matrix,
)


def _insert_part(lam: Partition, k: int) -> Partition:
    out = list(lam)
    for i, p in enumerate(out):
        if p <= k:
            out.insert(i, k)
            break
    else:
        out.append(k)
    return tuple(out)


def _remove_part(lam: Partition, k: int):
    """(multiplicity of k, lam with one k removed) or (0, None)."""
    mult = lam.count(k)
    if mult == 0:
        return 0, None
    out = list(lam)
    out.remove(k)
    return mult, tuple(out)


def j_step(lam: Partition, m: int, beta):
    """J_m on a single basis partition: list of (partition, coefficient)."""
    if m == 0:
        return [(lam, beta)] if beta != 0 else []
    if m < 0:
        return [(_insert_part(lam, -m), 1)]
    mult, mu = _remove_part(lam, m)
    if mult == 0:
        return []
    return [(mu, m * mult)]


# 1,104 rows fill at verify-algebra's default cutoff 10
@lru_cache(maxsize=4096)
def _j_row(m: int, j: int, lam: Partition, key: ChargeKey) -> Row:
    """Row of J_m on basis (j, lam): integer coefficients, except J_0, the
    charge j * alpha0 over its denominator, alpha0 given by its
    :func:`~chargedfock.fock.charge_key`."""
    level = sum(lam) - m
    if m:
        return integer_row(level, dict(j_step(lam, m, None)), 1)
    if isinstance(key, float):
        return float_row(level, {lam: key * j})
    p, q = key
    return integer_row(level, {lam: j * p}, q)


# (sector, partition) -> row of one mode and charge key, for apply_rows
def _j_table(m: int, key: ChargeKey):
    if m:
        return lambda j, lam: _j_row(m, 0, lam, None)
    return lambda j, lam: _j_row(0, j, lam, key)


def _j_key(space: Space, m: int) -> tuple:
    return m, None if m else charge_key(space.alpha0)  # the charge only enters J_0


def apply_J(space: Space, m: int, v: SectorState) -> SectorState:
    return apply_rows(space, v, _j_table(*_j_key(space, m)))


def _j_planes(m: int, key: ChargeKey, level: int) -> tuple:
    """J_m from ``level`` as (den, planes) in the sector j: its rows as one
    plane, or for J_0 = j p / q the planes 0 and p I over q."""
    if m:
        return 1, (row_matrix([_j_row(m, 0, lam, None) for lam in partitions_of(level)], level - m).ints,)
    p, q = (key, 1) if isinstance(key, float) else key
    eye = np.eye(len(partitions_of(level)), dtype=type(p) if abs(p) < 2**63 else object)
    return q, (0 * eye, p * eye)


def j_matrices(space: Space, m: int) -> Callable[[int], LevelMatrix]:
    """level -> J_m from the basis at ``level``, one column per partition,
    stacked over the window's sectors."""
    return level_stacks(_j_planes, (space.trunc.j_min, space.trunc.j_max), *_j_key(space, m))
