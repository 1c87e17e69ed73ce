"""Virasoro modes built as normal-ordered quadratics in the currents.

``L_n = (1/2) * sum_k :J_{n-k} J_k:`` with the annihilating factor applied
first; only finitely many ``k`` act on a level-``ell`` vector (``|k| <= ell +
|n|``), so each action is an exact finite sum.  The central charge of the
resulting bracket is 1:

    [L_m, L_n] = (m - n) L_{m+n} + (1/12) m (m^2 - 1) delta_{m,-n}

A row is built in integers: with J_0 the charge ``beta = j p / q``, every
term of the double sum is an integer over ``2 q^2``.  The terms depend on the
sector only through J_0 = beta, so they are listed once per mode and
partition, and each sector's row evaluates that list.  :func:`l_matrices`
reads each list once for all sectors: its terms with no, one and two J_0
factors give the planes P0, P1 and P2 over ``2 q^2``, and sector j's matrix
is P0 + j P1 + j**2 P2 (see :func:`~chargedfock.fock.level_stacks`).
"""

from __future__ import annotations

from fractions import Fraction
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
    TensorState,
    _positions,
    apply_rows,
    charge_key,
    float_row,
    integer_row,
    level_stacks,
    partitions_of,
)
from .heisenberg import j_step

# Self-test knob: when True, one quadratic coefficient (the k=1 term of L_2)
# is doubled so that identity suites demonstrably catch a wrong coefficient.
FAULT_SUGAWARA = False


# 1,328 lists fill at verify-algebra's default cutoff 10, one per (mode, partition)
@lru_cache(maxsize=4096)
def _sugawara_terms(n: int, lam: Partition, fault: bool) -> tuple:
    """The terms of L_n's double sum on lam, in ascending k, without the
    sector: (mu, e, f, c1, c2) adds f c1 c2 / 2 to mu, with c1 the
    coefficient of the current applied first and c2 of the second, None for
    J_0 = beta, and e the number of nonzero modes, whose charge scale q**e
    exact modes multiply in.  Only a k with max(k, n - k) <= 0 or a part of
    lam can act: the annihilating current applies first."""
    ks = set(range(n, 1)) | {k for p in set(lam) for k in (p, n - p) if max(k, n - k) == p}
    terms = []
    for k in sorted(ks):
        a = n - k
        lo, hi = (a, k) if a <= k else (k, a)
        e, f = (lo != 0) + (hi != 0), 2 if fault and n == 2 and k == 1 else 1
        for mu1, c1 in j_step(lam, hi, None):
            terms += [(mu2, e, f, c1, c2) for mu2, c2 in j_step(mu1, lo, None)]
    return tuple(terms)


# the rows of apply_L: 35 fill at verify-virasoro-c0's default cutoff; verify-algebra's stacks read the term lists instead
@lru_cache(maxsize=16384)
def _sugawara_on_basis(n: int, j: int, lam: Partition, key: ChargeKey, fault: bool) -> Row:
    """Row of L_n on basis (j, lam), alpha0 given by its
    :func:`~chargedfock.fock.charge_key`: the sector's value of its term list.
    Exact modes scale each current by q, so J_0 = beta becomes j p, and sum
    integers over 2 q^2; float mode sums halves of float products in the
    same order.  A zero beta drops its terms, as :func:`j_step` does."""
    floating = isinstance(key, float)
    p, q = (key, 1) if floating else key
    beta, half = j * p, 0.5 if floating else 1
    powers = (1, q, q * q)
    acc = {}
    for mu, e, f, c1, c2 in _sugawara_terms(n, lam, fault):
        if c1 is None or c2 is None:
            if not beta:
                continue
            c1, c2 = beta if c1 is None else c1, beta if c2 is None else c2
        acc[mu] = acc.get(mu, 0) + half * powers[e] * f * c1 * c2
    level = sum(lam) - n
    if floating:
        return float_row(level, acc)
    return integer_row(level, acc, 2 * q * q)


# (sector, partition) -> row of one mode, charge key and fault flag: see heisenberg._j_table
def _l_table(n: int, key: ChargeKey, fault: bool):
    return lambda j, lam: _sugawara_on_basis(n, j, lam, key, fault)


def _l_key(space: Space, n: int) -> tuple:
    return n, charge_key(space.alpha0), FAULT_SUGAWARA


def _l_planes(n: int, key: ChargeKey, fault: bool, level: int) -> tuple:
    """L_n from ``level`` as (den, planes) in the sector j: a term of
    :func:`_sugawara_terms` with k factors J_0 = j p / q adds its value at
    j = 1 to plane k, an integer over 2 q^2 (half a float product in float
    mode)."""
    floating = isinstance(key, float)
    p, q = (key, 1) if floating else key
    lams, outs = partitions_of(level), _positions(level - n)
    cells = [[0] * (len(outs) * len(lams)) for _ in range(3)]
    scale = [0.5 * p**k if floating else q**e * p**k for k in range(3) for e in range(3)]
    for col, lam in enumerate(lams):
        for mu, e, f, c1, c2 in _sugawara_terms(n, lam, fault):
            k = (c1 is None) + (c2 is None)
            cells[k][outs[mu] * len(lams) + col] += scale[3 * k + e] * f * (c1 or 1) * (c2 or 1)
    planes = [np.array(x, dtype=float if floating else object).reshape(len(outs), len(lams)) for x in cells]
    return (1 if floating else 2 * q * q), planes


def l_matrices(space: Space, n: int) -> Callable[[int], LevelMatrix]:
    """level -> L_n from the basis at ``level``, one column per partition,
    stacked over the window's sectors."""
    return level_stacks(_l_planes, (space.trunc.j_min, space.trunc.j_max), *_l_key(space, n))


def apply_L(space: Space, n: int, v: SectorState) -> SectorState:
    return apply_rows(space, v, _l_table(*_l_key(space, n)))


def apply_L_tensor(space: Space, side: str, n: int, v: TensorState) -> TensorState:
    return apply_rows(space, v, _l_table(*_l_key(space, n)), side)


def central_term(m: int, n: int) -> Fraction:
    """Scalar part of [L_m, L_n] at central charge 1."""
    if m + n != 0:
        return Fraction(0)
    return Fraction(m * (m * m - 1), 12)
