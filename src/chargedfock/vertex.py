"""Charged intertwiner modes between Fock sectors.

A charge-``alpha`` intertwiner maps sector ``j`` to sector ``j + alpha/alpha0``
(``alpha`` must be an integer multiple of ``alpha0``).  Its modes are indexed
here by the *integer level shift* ``delta``; the real mode index familiar from
the weight grading is

    s = -alpha*beta - d - delta,      d = alpha**2 / 2,  beta = j * alpha0,

so ``delta`` is sector-independent while ``s`` is not.  A mode acts on a basis
vector as a finite double sum: annihilate a sub-multiset of weight ``b`` (with
coefficient ``prod_i C(m_i, k_i) * (-alpha)**K`` over distinct part sizes),
then create any partition ``nu`` of weight ``a = delta + b`` (with coefficient
``alpha**len(nu) / zsym(nu)``).  Everything is exact; no intermediate
truncation occurs.  :func:`y_mode_table` sums this in Fractions, as the oracle
of the integer rows: :func:`apply_Y_mode`, the mode block and the time-zero
pairings of :mod:`~chargedfock.twodim` all read the same terms summed as
integers over ``q**E * lcm zsym(nu)``, with ``alpha = p / q``.

:func:`y_matrices` sums the same double sum a level at a time as the
normal-ordered product Y = E_- E_+ (Frenkel, Lepowsky and Meurman, 1988): Y_delta
from level ``ell`` is the sum over b >= max(0, -delta) of C_{delta+b}[ell-b]
A_b[ell], the removal blocks A_b and creation blocks C_a built once per charge
and shared by every ``delta``.

Two independent evaluation routes are kept deliberately separate:

* :func:`apply_Y_mode` -- the explicit exponential-expansion sum above;
* :func:`apply_Y_mode_recursive` -- matrix elements rebuilt from nothing but
  the commutation relation ``[J_m, Y_delta] = alpha * Y_{delta-m}``, the
  adjoint pairing, and the vacuum anchor ``<vac', Y_delta vac> = delta_{delta,0}``,
  in integers: with ``alpha = p / q``, ``F = q**(len(mu) + len(lam)) <b_mu,
  Y_delta b_lam>`` obeys ``F(mu, delta, lam) = p F(mu', delta - mu_1, lam) +
  mu_1 cnt q**2 F(mu', delta, lam - mu_1)``, cnt the parts of lam equal to
  mu_1, ``F((), delta, lam) = -p F((), delta + lam_1, lam')`` and
  ``F((), 0, ()) = 1``; float mode runs it at ``(alpha, 1)``.

Cross-checking them is a structural test of the whole mode calculus.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import IO, Callable

import numpy as np

from .fock import (
    ChargeKey,
    LevelMatrix,
    Partition,
    Row,
    SectorState,
    Space,
    _matrix,
    _positions,
    apply_rows,
    charge_key,
    float_row,
    int_array,
    integer_row,
    level_stacks,
    partitions_of,
    zsym,
)

__all__ = [
    "charge_multiplier",
    "conformal_weight",
    "y_mode_table",
    "apply_Y_mode",
    "y_matrices",
    "apply_Y_mode_recursive",
    "recursive_row",
    "vacuum_mode_norm_sq",
    "truncated_mode_norm",
    "export_mode_block",
]


def charge_multiplier(space: Space, alpha) -> int:
    """alpha / alpha0 as an exact integer; rejects off-lattice charges."""
    if space.alpha0 == 0:
        raise ValueError("alpha0 = 0 admits no charged intertwiners")
    key, key0 = charge_key(alpha), charge_key(space.alpha0)
    if type(key) is tuple and type(key0) is tuple:  # (p/q) / (r/s) = ps / qr, in integers
        num, den = key[0] * key0[1], key[1] * key0[0]
        if num % den:
            raise ValueError(f"alpha = {alpha} is not an integer multiple of alpha0 = {space.alpha0}")
        return num // den
    ratio = alpha / space.alpha0
    rounded = round(ratio)
    if abs(ratio - rounded) > 1e-9:
        raise ValueError(f"alpha = {alpha} is not an integer multiple of alpha0 = {space.alpha0}")
    return rounded


def conformal_weight(alpha):
    """d = alpha^2 / 2."""
    return alpha * alpha / 2


# one entry per partition: 139 up to level 10
@lru_cache(maxsize=1024)
def _removals(lam: Partition):
    """All sub-multisets removable from lam.

    Returns tuples (b, K, binom, rem): weight removed, number of parts
    removed, the product of binomials prod_i C(m_i, k_i), and the remaining
    partition.
    """
    groups = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        groups.append((lam[i], j - i))
        i = j
    results = [(0, 0, 1, ())]
    for size, mult in groups:
        new = []
        for b, K, binom, rem in results:
            for k in range(mult + 1):
                new.append(
                    (
                        b + size * k,
                        K + k,
                        binom * comb(mult, k),
                        rem + (size,) * (mult - k),
                    )
                )
        results = new
    # rem built in descending group order stays a valid partition
    return tuple((b, K, binom, tuple(sorted(rem, reverse=True))) for b, K, binom, rem in results)


def _merge(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


# the Fraction oracle of _y_row: only twodim.apply_time_zero and tests build tables
@lru_cache(maxsize=4096, typed=True)
def y_mode_table(alpha, delta: int, lam: Partition):
    """Level-shift-delta mode on one basis partition: tuple of (mu, coeff).

    All outputs sit at level sum(lam) + delta; the empty tuple means the mode
    annihilates this vector.
    """
    acc = {}
    for b, K, binom, rem in _removals(lam):
        a = delta + b
        if a < 0:
            continue
        ann = binom * (-alpha) ** K
        for nu in partitions_of(a):
            coeff = ann * alpha ** len(nu) * Fraction(1, zsym(nu))
            if coeff == 0:
                continue
            mu = _merge(rem, nu)
            acc[mu] = acc.get(mu, 0) + coeff
    return tuple((mu, c) for mu, c in acc.items() if c != 0)


# 1,086 rows fill at verify-decay's default cutoff; verify-algebra's stacks read the blocks below instead
@lru_cache(maxsize=4096)
def _y_row(key: ChargeKey, delta: int, lam: Partition) -> Row:
    """The terms of :func:`y_mode_table` as one row, the charge given by its
    :func:`~chargedfock.fock.charge_key`.  Exact modes take each term binom
    (-1)**K p**e / (q**e zsym(nu)), e = K + len(nu), as an integer over q**E
    lcm zsym(nu), E the largest e; float mode sums the float terms in the
    same order."""
    terms = []  # (mu, K, binom, len(nu), zsym(nu)) of each term, in the table's order
    for b, K, binom, rem in _removals(lam):
        if delta + b >= 0:
            terms += [(_merge(rem, nu), K, binom, len(nu), zsym(nu)) for nu in partitions_of(delta + b)]
    level = sum(lam) + delta
    acc = {}
    if isinstance(key, float):
        for mu, K, binom, n, z in terms:
            coeff = binom * (-key) ** K * key**n * (1 / z)
            if coeff:
                acc[mu] = acc.get(mu, 0) + coeff
        return float_row(level, acc)
    p, q = key
    terms = [t for t in terms if p or not t[1] + t[3]]  # alpha = 0 keeps the vacuum term
    top = max((K + n for _, K, _, n, _ in terms), default=0)
    zlcm = lcm(*[z for *_, z in terms])
    for mu, K, binom, n, z in terms:
        acc[mu] = acc.get(mu, 0) + (-1) ** K * binom * p ** (K + n) * q ** (top - K - n) * (zlcm // z)
    return integer_row(level, acc, q**top * zlcm)


# (sector, partition) -> row of one charge key and shift: see heisenberg._j_table
def _y_table(key: ChargeKey, delta: int):
    return lambda j, lam: _y_row(key, delta, lam)


def apply_Y_mode(space: Space, alpha, delta: int, v: SectorState) -> SectorState:
    """Apply the mode; shifts every sector by alpha/alpha0."""
    mult = charge_multiplier(space, alpha)
    return apply_rows(space, v, _y_table(charge_key(alpha), delta), shift=mult)


# 81 creation and 101 annihilation blocks fill at verify-algebra's default cutoff 10, both charges together
@lru_cache(maxsize=1024)
def _creation_block(key: ChargeKey, a: int, level: int) -> LevelMatrix:
    """C_a from ``level`` to ``level + a``: b_rho -> the sum over nu of a of
    alpha**len(nu) / zsym(nu) b_{rho u nu}, in exact modes the integers
    p**len(nu) q**(a - len(nu)) lcm / zsym(nu) over q**a lcm, the lcm of
    every zsym(nu)."""
    rows, nus, exact = _positions(level + a), partitions_of(a), not isinstance(key, float)
    p, q, zlcm = (*key, lcm(*map(zsym, nus))) if exact else (key, 1, 1)
    coeffs = [p ** len(nu) * (q ** (a - len(nu)) * (zlcm // zsym(nu)) if exact else 1 / zsym(nu)) for nu in nus]
    rhos = partitions_of(level)
    cells = [0] * (len(rows) * len(rhos))
    for col, rho in enumerate(rhos):
        for nu, c in zip(nus, coeffs):
            cells[rows[_merge(rho, nu)] * len(rhos) + col] = c
    return _matrix(q**a * zlcm, cells, (len(rows), len(rhos)), max(map(abs, coeffs)) if exact else None)


@lru_cache(maxsize=1024)
def _annihilation_block(key: ChargeKey, b: int, level: int) -> LevelMatrix:
    """A_b from ``level`` to ``level - b``: b_lam -> binom (-alpha)**K b_rem
    for each removal (b, K, binom, rem) of :func:`_removals`, in exact modes
    the integers binom (-p)**K q**(b - K) over q**b."""
    lams, rows, exact = partitions_of(level), _positions(level - b), not isinstance(key, float)
    p, q = key if exact else (key, 1)
    cells = [0] * (len(rows) * len(lams))
    for col, lam in enumerate(lams):
        for weight, K, binom, rem in _removals(lam):
            if weight == b:
                cells[rows[rem] * len(lams) + col] = binom * (-p) ** K * q ** (b - K)
    return _matrix(q**b, cells, (len(rows), len(lams)), max(map(abs, cells), default=0) if exact else None)


def _y_planes(key: ChargeKey, delta: int, level: int) -> tuple:
    """Y_delta from ``level`` as (den, planes), one plane: the products
    C_{delta+b}[level-b] A_b[level], b >= max(0, -delta), summed over their
    common denominator.  An exact product is taken in int64 while its
    certified bound, the inner dimension times the factors' tops, is below
    2**63, and so is the sum."""
    zero = np.zeros((len(partitions_of(level + delta)), len(partitions_of(level))), int)
    pairs = [(_creation_block(key, delta + b, level - b), _annihilation_block(key, b, level))
             for b in range(max(0, -delta), level + 1)]
    if isinstance(key, float):
        return 1, [sum((c.ints @ a.ints for c, a in pairs), 1.0 * zero)]
    products = [(c.den * a.den, c, a, c.ints.shape[1] * c.top * a.top) for c, a in pairs if c.top * a.top]
    den = lcm(1, *[d for d, *_ in products])
    bound = sum(t * (den // d) for d, _, _, t in products)
    terms = (int_array(int_array(c.ints, t) @ int_array(a.ints, t), bound) * (den // d) for d, c, a, t in products)
    return den, [sum(terms, int_array(zero, bound))]


def y_matrices(space: Space, alpha, delta: int) -> Callable[[int], LevelMatrix]:
    """level -> the mode from the basis at ``level``, one column per
    partition, stacked over the window's source sectors: one plane, the same
    in every sector."""
    return level_stacks(_y_planes, (space.trunc.j_min, space.trunc.j_max), charge_key(alpha), delta)


# 4,489 elements fill at verify-algebra's default cutoff 10
@lru_cache(maxsize=8192, typed=True)
def _recursive_element(p, q, mu: Partition, delta: int, lam: Partition):
    """F = q**(len(mu) + len(lam)) <b_mu, Y_delta b_lam> in the target
    sector, alpha = p / q, from commutators alone: an integer in the exact
    modes, a float in float mode (p = alpha, q = 1)."""
    if sum(mu) != sum(lam) + delta:
        return 0
    if mu:
        first, rest = mu[0], mu[1:]
        total = p * _recursive_element(p, q, rest, delta - first, lam)
        # J_first moved through the mode acts on lam: remove one part first
        cnt = lam.count(first)
        if cnt:
            out = list(lam)
            out.remove(first)
            total = total + first * cnt * q * q * _recursive_element(p, q, rest, delta, tuple(out))
        return total
    if lam:
        return -p * _recursive_element(p, q, (), delta + lam[0], lam[1:])
    return 1 if delta == 0 else 0


def recursive_row(key: ChargeKey, delta: int, lam: Partition) -> Row:
    """The row of Y_delta on ``lam``, the charge given by its
    :func:`~chargedfock.fock.charge_key`, from :func:`_recursive_element`: the
    coefficient on mu is F / (q**(len(mu) + len(lam)) zsym(mu)), summed as
    integers over q**(T + len(lam)) lcm zsym(mu), T the longest mu."""
    level = sum(lam) + delta
    mus = partitions_of(level)
    if isinstance(key, float):
        return float_row(level, {mu: _recursive_element(key, 1, mu, delta, lam) * (1 / zsym(mu)) for mu in mus})
    p, q = key
    top = max(map(len, mus), default=0)
    zlcm = lcm(*map(zsym, mus))
    acc = {mu: _recursive_element(p, q, mu, delta, lam) * q ** (top - len(mu)) * (zlcm // zsym(mu)) for mu in mus}
    return integer_row(level, acc, q ** (top + len(lam)) * zlcm)


def apply_Y_mode_recursive(space: Space, alpha, delta: int, v: SectorState) -> SectorState:
    """Independent oracle route for apply_Y_mode, same contract: the rows of
    :func:`recursive_row`, the integers F of the commutator recursion over
    q**(len(mu) + len(lam)) zsym(mu)."""
    key = charge_key(alpha)
    return apply_rows(space, v, lambda j, lam: recursive_row(key, delta, lam), shift=charge_multiplier(space, alpha))


def vacuum_mode_norm_sq(alpha, n: int):
    """Squared norm of the level-raising-``n`` mode on a vacuum:
    prod_{k=0}^{n-1} (alpha^2 + k) / n!  (binomial C(2d+n-1, n))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = 1
    for k in range(n):
        num = num * (alpha * alpha + k)
    return num * Fraction(1, factorial(n))


def _mode_block_entries(space: Space, alpha, delta: int):
    """Nonzero normalized-basis matrix entries of the truncated mode block.

    Yields (source_level, lam, mu, coeff) with coeff the unnormalized
    coefficient of the mode's row; the normalized entry is
    coeff * sqrt(zsym(mu)/zsym(lam)).
    """
    L = space.trunc.level_cutoff
    lo = max(0, -delta)
    hi = min(L, L - delta)
    for level in range(lo, hi + 1):
        for lam in partitions_of(level):
            den, _, mus, nums = _y_row(charge_key(alpha), delta, lam)
            for mu, n in zip(mus, nums):
                yield level, lam, mu, n if den == 1 else Fraction(n, den)


def truncated_mode_norm(space: Space, alpha, delta: int) -> float:
    """Operator norm of the truncated mode block in the normalized basis: its
    largest singular value."""
    L = space.trunc.level_cutoff
    lo = max(0, -delta)
    hi = min(L, L - delta)
    if hi < lo:
        return 0.0
    sources = []
    targets = {}
    for level in range(lo, hi + 1):
        for lam in partitions_of(level):
            sources.append(lam)
        for mu in partitions_of(level + delta):
            targets[mu] = len(targets)
    src_index = {lam: i for i, lam in enumerate(sources)}
    A = np.zeros((len(targets), len(sources)))
    for level, lam, mu, coeff in _mode_block_entries(space, alpha, delta):
        A[targets[mu], src_index[lam]] = float(coeff) * (zsym(mu) / zsym(lam)) ** 0.5
    return float(np.linalg.norm(A, 2))


def export_mode_block(space: Space, alpha, delta: int, fp: IO[str]) -> None:
    """CSV dump of the truncated mode block (unnormalized basis coefficients)."""
    writer = csv.writer(fp)
    writer.writerow(["source_level", "source_partition", "target_partition", "re", "im"])
    rows = sorted(
        _mode_block_entries(space, alpha, delta),
        key=lambda r: (r[0], r[1], r[2]),
    )
    ctx = space.ctx
    for level, lam, mu, coeff in rows:
        re, im = ctx.json_re_im(coeff)
        writer.writerow([level, list(lam), list(mu), re, im])
