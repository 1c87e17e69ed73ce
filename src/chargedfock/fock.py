"""Charged boson Fock spaces, truncated by level and by a sector window.

Basis conventions
-----------------
A sector is labeled by an integer ``j``; its charge is ``j * alpha0``.  Inside
a sector the basis is indexed by integer partitions ``lam = (lam_1 >= lam_2 >=
... >= 1)``: the vector obtained by applying one lowering current per part to
the sector vacuum.  The empty partition ``()`` is the vacuum itself.

That basis is orthogonal but not normalized: its Gram matrix is diagonal with
entry ``zsym(lam) = prod_i i**m_i * m_i!`` over the distinct part sizes ``i``
with multiplicities ``m_i``.  Inner products are conjugate-linear in the
*first* argument.

Two-sided states live on the diagonal charge sectors: keys ``(j, left, right)``
with a single shared ``j``.  Their Gram weight factorizes.

Truncation keeps levels ``<= level_cutoff`` and sectors inside the window.
Operations never round intermediate results; when a final component falls
outside the truncation it is dropped and the state's ``overflow`` flag is set.

A state maps each key to its nonzero value: a Fraction or an int in the
exact modes (a GaussianRational once an imaginary unit appears), a float or
complex in float mode.  Current, Virasoro and vertex modes all go through
:func:`apply_rows`, one cached integer :data:`Row` per basis partition and
:func:`charge_key`, built without Fractions.

Each operator also has one :class:`LevelMatrix` per level, built by
:func:`level_stacks` from sector-free planes: integer numerators over one
denominator, with a leading axis over every sector j of the charge window, so
a contiguous run of sectors is a view.  An operator that depends on j, as J_0
and L_n do through J_0 = j alpha0, is P0 + j P1 + j**2 P2 on sector j; one
that does not, as J_m (m != 0) and every Y_delta, is P0 alone: one plane, no
sector axis, which holds in every sector and is multiplied once.
:func:`residual` finds where a sum of products of such stacks is nonzero,
one identity on all sectors in one batched product, exactly: modulo 2**64,
and modulo primes as well while a bound certified from the entries'
magnitudes, the inner dimensions and the cross-multiplication factors is at
least 2**64; float mode sums float64 values.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from typing import Optional, Tuple, Union

import numpy as np

from .scalar import ArithmeticContext, Scalar

Partition = Tuple[int, ...]


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order ((n,) first)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in _bounded_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _bounded_partitions(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _bounded_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def zsym(lam: Partition) -> int:
    """Diagonal Gram weight: prod over distinct sizes i of i**m_i * m_i!."""
    out = 1
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        mult = j - i
        out *= lam[i] ** mult * factorial(mult)
        i = j
    return out


@dataclass(frozen=True)
class Truncation:
    """Finite computational window: levels <= level_cutoff, j in [j_min, j_max]."""

    level_cutoff: int
    j_min: int
    j_max: int

    def __post_init__(self):
        if not isinstance(self.level_cutoff, int) or self.level_cutoff < 0:
            raise ValueError(f"level_cutoff must be a nonnegative integer, got {self.level_cutoff!r}")
        if self.j_min > self.j_max:
            raise ValueError("empty sector window")

    def admits_level(self, level: int) -> bool:
        return level <= self.level_cutoff

    def admits_sector(self, j: int) -> bool:
        return self.j_min <= j <= self.j_max

    def interior_sectors(self, step: int) -> range:
        """The sectors |step| or more inside the window: a charge step of
        either sign moves them to sectors the window still holds."""
        return range(self.j_min + abs(step), self.j_max - abs(step) + 1)


@dataclass(frozen=True)
class Space:
    """Run-wide setting: scalar mode, charge quantum alpha0, truncation."""

    ctx: ArithmeticContext
    alpha0: Scalar
    trunc: Truncation


# A chiral operator on one basis partition: outputs mus[i] at one level, coefficients nums[i] / den
Row = Tuple[int, int, Tuple[Partition, ...], Tuple[Scalar, ...]]


ChargeKey = Union[Tuple[int, int], float]


def charge_key(charge) -> ChargeKey:
    """The memo key of a real charge: (p, q) with charge = p / q in lowest
    terms, or the float itself (float mode).  Hashing it takes no modular
    inverse, as hashing a Fraction does, and a float charge never meets an
    equal exact one."""
    if isinstance(charge, float):
        return charge
    return charge.numerator, charge.denominator


def space_key(space: Space) -> tuple:
    """The memo key of a space, its charge quantum by :func:`charge_key`."""
    return space.ctx, charge_key(space.alpha0), space.trunc


def state_key(v) -> tuple:
    """The memo key of a state: its entries in order (an output sums its
    terms in that order, so float outputs stay bit-identical), their types
    and its overflow flag."""
    entries = v.entries
    return tuple(entries.items()), tuple(map(type, entries.values())), v.overflow


def integer_row(level: int, acc: dict, den: int) -> Row:
    """Row from output partition -> integer numerator over ``den``: zeros
    dropped, then reduced to the least common denominator of the values."""
    mus = tuple(mu for mu, n in acc.items() if n)
    nums = [acc[mu] for mu in mus]
    g = gcd(den, *nums)
    return den // g, level, mus, tuple(n // g for n in nums)


def float_row(level: int, acc: dict) -> Row:
    """Row from output partition -> float value (float mode), zeros dropped."""
    pairs = [(mu, c * 1.0) for mu, c in acc.items() if c != 0]
    return 1, level, tuple(mu for mu, _ in pairs), tuple(c for _, c in pairs)


class _State:
    """``entries`` maps each key to its nonzero value."""

    __slots__ = ("entries", "overflow")

    def __init__(self, entries=None, overflow: bool = False):
        self.entries = {k: c for k, c in (entries or {}).items() if c != 0}
        self.overflow = overflow

    @classmethod
    def zero(cls):
        return cls()

    def scale(self, c: Scalar):
        return type(self)({k: v * c for k, v in self.entries.items()}, self.overflow)

    def _combine(self, other, sign: int):
        out = dict(self.entries)
        get = out.get
        for k, v in other.entries.items():
            out[k] = get(k, 0) + sign * v
        return type(self)(out, self.overflow or other.overflow)

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"{type(self).__name__}({len(self.entries)} entries, overflow={self.overflow})"


class SectorState(_State):
    """Finite linear combination of sector basis vectors, keys (j, partition)."""

    __slots__ = ()

    @classmethod
    def basis(cls, j: int, lam: Partition) -> "SectorState":
        return cls({(j, tuple(lam)): 1})


class TensorState(_State):
    """Two-sided state on diagonal sectors, keys (j, left, right)."""

    __slots__ = ()

    @classmethod
    def basis(cls, j: int, left: Partition, right: Partition) -> "TensorState":
        return cls({(j, tuple(left), tuple(right)): 1})

    def max_chiral_level(self) -> int:
        return max((max(sum(left), sum(right)) for (_, left, right) in self.entries), default=0)


def apply_rows(space: Space, v, row_of, side: Optional[str] = None, shift: int = 0):
    """A chiral operator, given by its rows ``row_of(j, lam)``, on a sector
    state or on the ``side`` ('left'/'right') factor of a two-sided state,
    shifting sectors by ``shift``.  Entries whose target sector leaves the
    window, or whose nonempty row lands past the cutoff, are dropped and flag
    ``overflow``."""
    if side not in (None, "left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    side = 2 if side == "right" else 1
    cutoff = space.trunc.level_cutoff
    overflow = v.overflow
    out = {}
    get = out.get
    for key, c in v.entries.items():
        j = key[0] + shift
        if shift and not space.trunc.admits_sector(j):
            overflow = True
            continue
        row_den, level, mus, nums = row_of(key[0], key[side])
        if not mus:
            continue
        if level > cutoff:
            overflow = True
            continue
        if row_den != 1:
            c = c * Fraction(1, row_den)
        head, tail = ((j,), key[2:]) if side == 1 else ((j, key[1]), ())
        for mu, n in zip(mus, nums):
            k = head + (mu,) + tail
            out[k] = get(k, 0) + c * n
    return type(v)(out, overflow)


# ---------------------------------------------------------------------------
# level matrices: an operator on one level, stacked over the sectors


@dataclass(frozen=True, eq=False, slots=True)
class LevelMatrix:
    """An operator on the basis of one level, ``ints / den``: column c holds
    the row of ``partitions_of(level)[c]``, entry r its coefficient on the
    r-th output partition.  A stack has a leading sector axis, ``ints[s]``
    on the s-th sector of the charge window; an operator that is the same in
    every sector is one plane, no sector axis, which holds in every sector.
    ``ints`` is int64 when every entry fits, Python ints (object dtype)
    otherwise, both read as residues by :func:`residual`, and float64 values
    in float mode; ``top`` bounds every exact |entry|."""

    den: int
    ints: np.ndarray
    top: int

    @property
    def T(self) -> "LevelMatrix":
        return LevelMatrix(self.den, np.swapaxes(self.ints, -1, -2), self.top)

    def sectors(self, start: int, stop: int) -> "LevelMatrix":
        """The stack's window positions start..stop-1, a view."""
        if self.ints.ndim == 2 or (start, stop) == (0, len(self.ints)):
            return self
        return LevelMatrix(self.den, self.ints[start:stop], self.top)


def _matrix(den: int, cells, shape: tuple, top: Optional[int]) -> LevelMatrix:
    """The entries ``cells``, in C order, as a LevelMatrix of ``shape``:
    float64 when ``top`` is None (float mode), else int64 when ``top``, the
    largest |entry|, is below 2**63, and Python ints otherwise."""
    if top is None:
        return LevelMatrix(den, np.array(cells, dtype=float).reshape(shape), 0)
    return LevelMatrix(den, np.array(cells, dtype=np.int64 if top < 2**63 else object).reshape(shape), top)


@lru_cache(maxsize=64)
def _positions(level: int) -> dict:
    return {mu: r for r, mu in enumerate(partitions_of(level))}


def row_matrix(rows, out_level: int) -> LevelMatrix:
    """Rows at output level ``out_level`` as the columns of one matrix over
    the least common denominator of all: float64 if a row holds floats
    (float mode).  The entries fill one flat list in C order, entry (r, c)
    at r * len(rows) + c."""
    positions, den, width = _positions(out_level), lcm(1, *[row[0] for row in rows]), len(rows)
    cells = [0] * (len(positions) * width)
    for col, (row_den, _, mus, nums) in enumerate(rows):
        scale = den // row_den
        for mu, n in zip(mus, nums):
            cells[positions[mu] * width + col] = n * scale
    floating = any(type(nums[0]) is float for *_, nums in rows if nums)
    return _matrix(den, cells, (len(positions), width), None if floating else max(map(abs, cells), default=0))


def int_array(x, bound: int) -> np.ndarray:
    """``x`` as int64 when ``bound``, a certified bound on every |entry| of
    it and of what it is combined into, is below 2**63, else as Python ints."""
    return np.asarray(x).astype(np.int64 if bound < 2**63 else object, copy=False)


def sector_stack(den: int, planes, window: Tuple[int, int]) -> LevelMatrix:
    """The stack of (sum over k of j**k planes[k]) / den on every sector j of
    the charge window ``(j_min, j_max)``, or planes[0] / den alone, one plane,
    no sector axis, when no other plane is nonzero; that plane takes no
    window arithmetic.  Exact planes are summed in int64 while a bound
    certified from their tops and the window is below 2**63, in Python ints
    past it, and reduced to lowest terms, with no gcd pass over the entries
    when the denominator is already 1; the stack is int64 when its top is
    below 2**63.  Float planes (float mode) give float64."""
    first, rest = planes[0], [(k, x) for k, x in enumerate(planes[1:], start=1) if x.any()]
    js = np.arange(window[0], window[1] + 1)[:, None, None] if rest else None
    if first.dtype == float:
        return LevelMatrix(den, sum((js**k * x for k, x in rest), first), 0)
    top = int(np.abs(first).max(initial=0))
    if rest:
        top += sum(max(map(abs, window)) ** k * int(np.abs(x).max(initial=0)) for k, x in rest)
        ints = sum((int_array(js, top) ** k * int_array(x, top) for k, x in rest), int_array(first, top))
        top = int(np.abs(ints).max(initial=0))
    else:
        ints = int_array(first, top)
    if den > 1:
        g = gcd(den, int(np.gcd.reduce(ints, axis=None)))  # den itself when every entry is 0
        den, top = den // g, top // g
        ints = int_array(ints // g if g > 1 else ints, top)
    return LevelMatrix(den, ints, top)


# the level stacks built and their seconds, for verify-algebra's family INFO lines
STACKS = Counter()


# one table per (operator, window), each with one stack per level
@lru_cache(maxsize=256)
def level_stacks(planes, window: Tuple[int, int], *args):
    """level -> the operator's stack from ``level``: :func:`sector_stack` of
    its (den, planes) ``planes(*args, level)`` on the charge window
    ``(j_min, j_max)``.  Keyed by value: the plane builder, the window and
    its arguments, a charge among them by its :func:`charge_key`, so equal
    arguments return the same callable."""

    @lru_cache(maxsize=64)
    def stack(level: int) -> LevelMatrix:
        t0 = time.perf_counter()
        out = sector_stack(*planes(*args, level), window)
        STACKS["built"] += 1
        STACKS["seconds"] += time.perf_counter() - t0
        return out

    return stack


@lru_cache(maxsize=64)
def gram_matrix(level: int) -> LevelMatrix:
    """The diagonal Gram weights zsym of ``partitions_of(level)``."""
    lams = partitions_of(level)
    cells = [zsym(lam) if lam == mu else 0 for mu in lams for lam in lams]
    return _matrix(1, cells, (len(lams),) * 2, max(map(zsym, lams)))


@lru_cache(maxsize=64)
def identity(rows: int, cols: Optional[int] = None) -> LevelMatrix:
    """The first ``cols`` (default all) columns of the identity."""
    return LevelMatrix(1, np.eye(rows, rows if cols is None else cols, dtype=np.int64), 1)


def graded_matrix(block, shift: int, top: int) -> LevelMatrix:
    """One operator on all levels 0..top at once, rows and columns ordered by
    level and then by partition: ``block(level)`` is its stack from ``level``
    to ``level + shift``, asked for only where that output level lies in
    0..top, so no block is built to be dropped."""
    offsets = [0, *accumulate(len(partitions_of(level)) for level in range(top + 1))]
    blocks = {level: block(level) for level in range(max(0, -shift), min(top, top - shift) + 1)}
    den = lcm(*[b.den for b in blocks.values()])
    shape = np.broadcast_shapes(*[b.ints.shape[:-2] for b in blocks.values()]) + (offsets[-1],) * 2
    cells = np.zeros(shape, dtype=object)
    floating = False
    for level, b in blocks.items():
        rows, cols = slice(offsets[level + shift], offsets[level + shift + 1]), slice(offsets[level], offsets[level + 1])
        cells[..., rows, cols] = b.ints.astype(object) * (den // b.den)
        floating = floating or b.ints.dtype == float
    return _matrix(den, cells, cells.shape, None if floating else np.abs(cells).max())


def _chain_product(chain, mod):
    """The chain's product, right to left: of float64 values when ``mod`` is
    None, else of residues modulo ``mod`` in uint64, each product reduced."""
    out = None
    for m in reversed(chain):
        if mod is None:  # float mode
            x = m.ints / m.den
        elif mod == 2**64 and m.top < 2**63:  # an int64 stack read as uint64 is its residue
            x = m.ints.view(np.uint64)
        else:
            x = (m.ints % mod).astype(np.uint64)
        out = x if out is None else _reduce(x @ out, mod)
    return out


def _reduce(x, mod):
    """``x`` modulo ``mod`` when it is a prime; float64 values stay, and uint64 wraps modulo 2**64."""
    return x if mod is None or mod == 2**64 else x % mod


# moduli after 2**64: primes below 2**26, so MAX_INNER products of two residues sum to below 2**63
PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753, 67108747)
MAX_INNER = 2**11


def residual(ctx: ArithmeticContext, terms) -> Tuple[np.ndarray, int]:
    """Where the sum over terms ``(c, chains)`` of c times the Kronecker
    product of its chains' matrix products, each applied right to left, is
    nonzero, and how many primes that took: one chain for a chiral operator,
    a left and a right one for a two-sided operator, whose left products are
    summed per right chain (the same matrix objects), and whose Kronecker
    products with their right chains are summed as one matrix product (see
    :func:`_failing`).  Sector axes broadcast, so one call checks an identity
    on every sector of a stack; each term's c is one scalar.

    Exact modes cross-multiply the terms to one common denominator.  The
    certified bound B, the sum over terms of |factor| times the product of
    its chains' bounds (the last factor's top times each other factor's
    inner dimension and top), bounds every entry r of the sum.  The sum is
    computed in uint64, which wraps modulo 2**64, and modulo each of
    :data:`PRIMES` as well while the moduli's product is at most B, every
    factor, product and left sum reduced; past every prime, or past
    :data:`MAX_INNER` products in a sum, it raises ValueError.  An entry
    fails when it is nonzero modulo any modulus; where every residue is
    zero, r = 0 by the Chinese remainder theorem, as the moduli's product
    exceeds B.  Float mode sums float64 and fails an entry past the
    tolerance."""
    if ctx.exact:
        scales = [prod([m.den for chain in chains for m in chain]) * c.denominator for c, chains in terms]
        den = lcm(*scales)
        factors, certified = [], 0
        for (c, chains), scale in zip(terms, scales):  # lists, not generators: this runs per residual
            factors.append(c.numerator * (den // scale))
            bound = prod([m.ints.shape[-1] * m.top for chain in chains for m in chain[:-1]], start=abs(factors[-1]))
            certified += prod([chain[-1].top for chain in chains], start=bound)
        moduli = [2**64]  # then primes, until the moduli's product passes the bound
        while prod(moduli) <= certified:
            inner = max([len(terms), *(m.ints.shape[-1] for _, cs in terms for ch in cs for m in ch[:-1])])
            if len(moduli) > len(PRIMES) or inner > MAX_INNER:
                raise ValueError(f"no moduli decide a residual of {certified.bit_length()} bits summing {inner}"
                                 f" products (at most {MAX_INNER}); lower the level cutoff")
            moduli.append(PRIMES[len(moduli) - 1])
    else:
        moduli = [None]
    failing = None
    for mod in moduli:
        fs = [float(c) for c, _ in terms] if mod is None else [f % mod for f in factors]
        total = None
        shared = {}  # right chain by identity -> (right chain, [(factor, left chain)])
        for f, (_, chains) in zip(fs, terms):
            if len(chains) == 1:
                x = f * _chain_product(chains[0], mod)
                total = x if total is None else total + x
            else:
                shared.setdefault(tuple(map(id, chains[1])), (chains[1], []))[1].append((f, chains[0]))
        krons = []
        for right, lefts in reversed(shared.values()):  # a zero left sum adds nothing, unless it is all
            a = _reduce(sum(f * _chain_product(left, mod) for f, left in lefts), mod)
            if a.any() or (total is None and not krons):
                krons.append((a, _chain_product(right, mod)))
        bad = _failing(ctx, mod, total, krons)
        failing = bad if failing is None else failing | bad
    return failing, len(moduli) - 1


def _failing(ctx: ArithmeticContext, mod, total, krons) -> np.ndarray:
    """Where ``total`` plus the Kronecker products of the pairs ``krons`` is
    nonzero modulo ``mod``, or past the tolerance in float mode.  On each
    plane of the leading (sector) axes the pairs' sum is one product over the
    pair axis: the T left factors flattened to (r1 c1, T) times the right
    ones flattened to (T, r2 c2), reordered to kron's layout, which holds
    a[i, j] b[k, l] at (i r2 + k, j c2 + l).  A plane at a time, so a batch
    holds no more of them at once than one sector's residual."""
    if not krons:
        return np.abs(total) > ctx.tolerance if mod is None else _reduce(total, mod).astype(bool)
    lead = np.broadcast_shapes(*[m.shape[:-2] for m in (total, *(m for pair in krons for m in pair)) if m is not None])
    at = lambda m, s: np.broadcast_to(m, lead + m.shape[-2:])[s]  # noqa: E731
    (r1, c1), (r2, c2) = krons[0][0].shape[-2:], krons[0][1].shape[-2:]
    planes = []
    for s in np.ndindex(lead):
        left = np.stack([at(a, s).reshape(-1) for a, _ in krons], axis=-1)
        right = np.stack([at(b, s).reshape(-1) for _, b in krons])
        plane = (left @ right).reshape(r1, c1, r2, c2).transpose(0, 2, 1, 3).reshape(r1 * r2, c1 * c2)
        if total is not None:
            plane += at(total, s)
        planes.append(_failing(ctx, mod, plane, []))
    return np.stack(planes).reshape(lead + planes[0].shape)


def _weight(key) -> int:
    if len(key) == 2:
        return zsym(key[1])
    return zsym(key[1]) * zsym(key[2])


def inner_product(ctx: ArithmeticContext, v, w) -> Scalar:
    """<v, w>, conjugate-linear in v; diagonal Gram weights supplied per key."""
    if type(v) is not type(w):
        raise TypeError("inner product needs two states of the same kind")
    a, b = v.entries, w.entries
    total = ctx.zero()
    for key in a if len(a) > len(b) else b:
        if key in a and key in b:
            total = total + ctx.conj(a[key]) * b[key] * _weight(key)
    return total


def norm_sq(ctx: ArithmeticContext, v):
    """<v, v> as a real scalar (Fraction in exact modes, float otherwise)."""
    total = Fraction(0) if ctx.exact else 0.0
    for key, c in v.entries.items():
        total = total + ctx.abs_sq(c) * _weight(key)
    return total


def states_equal(ctx: ArithmeticContext, v, w) -> bool:
    """v == w: one pass over the values, no difference state.  Float mode
    compares within tolerance."""
    total = dict(v.entries)
    get = total.get
    for k, c in w.entries.items():
        total[k] = get(k, 0) - c
    if ctx.exact:
        return not any(total.values())
    return all(abs(x) <= ctx.tolerance for x in total.values())
