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
A ``level_cutoff`` of ``None`` (used by identity-checking harnesses on interior
vectors) disables the level drop entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import IO, Iterable, Optional, Tuple

from .scalar import ArithmeticContext, GaussianRational, Scalar

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


def partition_count(n: int) -> int:
    return len(partitions_of(n))


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


def gram(lam: Partition, mu: Partition) -> int:
    """Inner product of two basis partitions (same sector): zsym on the diagonal."""
    return zsym(lam) if lam == mu else 0


@dataclass(frozen=True)
class Truncation:
    """Finite computational window: levels <= level_cutoff, j in [j_min, j_max]."""

    level_cutoff: Optional[int]
    j_min: int
    j_max: int

    def __post_init__(self):
        if self.level_cutoff is not None and self.level_cutoff < 0:
            raise ValueError("level_cutoff must be nonnegative")
        if self.j_min > self.j_max:
            raise ValueError("empty sector window")

    def admits_level(self, level: int) -> bool:
        return self.level_cutoff is None or level <= self.level_cutoff

    def admits_sector(self, j: int) -> bool:
        return self.j_min <= j <= self.j_max

    def unbounded(self) -> "Truncation":
        return replace(self, level_cutoff=None)


@dataclass(frozen=True)
class Space:
    """Run-wide setting: scalar mode, charge quantum alpha0, truncation."""

    ctx: ArithmeticContext
    alpha0: Scalar
    trunc: Truncation

    def charge(self, j: int) -> Scalar:
        return self.alpha0 * j

    def interior(self) -> "Space":
        """Same space with the level drop disabled (for drop-free identity checks)."""
        return replace(self, trunc=self.trunc.unbounded())


class SectorState:
    """Finite linear combination of sector basis vectors, keys (j, partition)."""

    __slots__ = ("entries", "overflow")

    def __init__(self, entries=None, overflow: bool = False):
        self.entries = {k: c for k, c in (entries or {}).items() if c != 0}
        self.overflow = overflow

    @classmethod
    def zero(cls) -> "SectorState":
        return cls()

    @classmethod
    def basis(cls, j: int, lam: Partition, coeff: Scalar = 1) -> "SectorState":
        return cls({(j, tuple(lam)): coeff})

    def scale(self, c: Scalar) -> "SectorState":
        return SectorState({k: c * v for k, v in self.entries.items()}, self.overflow)

    def add(self, other: "SectorState") -> "SectorState":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return SectorState(out, self.overflow or other.overflow)

    def sub(self, other: "SectorState") -> "SectorState":
        return self.add(other.scale(-1))

    def max_level(self) -> int:
        return max((sum(lam) for (_, lam) in self.entries), default=0)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"SectorState({len(self.entries)} entries, overflow={self.overflow})"


class TensorState:
    """Two-sided state on diagonal sectors, keys (j, left, right)."""

    __slots__ = ("entries", "overflow")

    def __init__(self, entries=None, overflow: bool = False):
        self.entries = {k: c for k, c in (entries or {}).items() if c != 0}
        self.overflow = overflow

    @classmethod
    def zero(cls) -> "TensorState":
        return cls()

    @classmethod
    def basis(cls, j: int, left: Partition, right: Partition, coeff: Scalar = 1) -> "TensorState":
        return cls({(j, tuple(left), tuple(right)): coeff})

    def scale(self, c: Scalar) -> "TensorState":
        return TensorState({k: c * v for k, v in self.entries.items()}, self.overflow)

    def add(self, other: "TensorState") -> "TensorState":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return TensorState(out, self.overflow or other.overflow)

    def sub(self, other: "TensorState") -> "TensorState":
        return self.add(other.scale(-1))

    def max_chiral_level(self) -> int:
        return max(
            (max(sum(left), sum(right)) for (_, left, right) in self.entries),
            default=0,
        )

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"TensorState({len(self.entries)} entries, overflow={self.overflow})"


def _weight(key) -> int:
    if len(key) == 2:
        return zsym(key[1])
    return zsym(key[1]) * zsym(key[2])


def inner_product(ctx: ArithmeticContext, v, w) -> Scalar:
    """<v, w>, conjugate-linear in v; diagonal Gram weights supplied per key."""
    if type(v) is not type(w):
        raise TypeError("inner product needs two states of the same kind")
    if len(v.entries) > len(w.entries):
        total = ctx.zero()
        for key, cv in v.entries.items():
            cw = w.entries.get(key)
            if cw is not None:
                total = total + ctx.conj(cv) * cw * _weight(key)
        return total
    total = ctx.zero()
    for key, cw in w.entries.items():
        cv = v.entries.get(key)
        if cv is not None:
            total = total + ctx.conj(cv) * cw * _weight(key)
    return total


def norm_sq(ctx: ArithmeticContext, v):
    """<v, v> as a real scalar (Fraction in exact modes, float otherwise)."""
    total = Fraction(0) if ctx.exact else 0.0
    for key, c in v.entries.items():
        total = total + ctx.abs_sq(c) * _weight(key)
    return total


def is_zero_state(ctx: ArithmeticContext, v) -> bool:
    return all(ctx.is_zero(c) for c in v.entries.values())


def states_equal(ctx: ArithmeticContext, v, w) -> bool:
    return is_zero_state(ctx, v.sub(w))


def enumerate_basis(trunc: Truncation, max_level: Optional[int] = None):
    """(j, lam) pairs in the window: sectors ascending, levels ascending,
    partitions reverse-lex inside a level."""
    if max_level is None:
        max_level = trunc.level_cutoff
    if max_level is None:
        raise ValueError("enumerate_basis needs a finite level bound")
    out = []
    for j in range(trunc.j_min, trunc.j_max + 1):
        for level in range(max_level + 1):
            for lam in partitions_of(level):
                out.append((j, lam))
    return out


def _sort_key(key):
    if len(key) == 2:
        j, lam = key
        return (j, sum(lam), lam)
    j, left, right = key
    return (j, sum(left), left, sum(right), right)


def dump_state(ctx: ArithmeticContext, state, fp: IO[str]) -> None:
    """Write a state as JSON lines (sorted, exact coefficients as 'p/q' strings)."""
    for key in sorted(state.entries, key=_sort_key):
        c = state.entries[key]
        re, im = ctx.json_re_im(c)
        if len(key) == 2:
            rec = {"j": key[0], "partition": list(key[1]), "re": re, "im": im}
        else:
            rec = {"j": key[0], "left": list(key[1]), "right": list(key[2]), "re": re, "im": im}
        fp.write(json.dumps(rec, sort_keys=True) + "\n")


def _scalar_from_parts(ctx: ArithmeticContext, re, im) -> Scalar:
    if ctx.exact:
        re_f, im_f = Fraction(re), Fraction(im)
        if im_f == 0:
            return re_f
        return GaussianRational(re_f, im_f)
    return complex(float(re), float(im))


def load_state(ctx: ArithmeticContext, lines: Iterable[str]):
    """Inverse of dump_state; infers sector vs two-sided from the record keys."""
    sector_entries = {}
    tensor_entries = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        c = _scalar_from_parts(ctx, rec["re"], rec["im"])
        if "partition" in rec:
            sector_entries[(rec["j"], tuple(rec["partition"]))] = c
        else:
            tensor_entries[(rec["j"], tuple(rec["left"]), tuple(rec["right"]))] = c
    if sector_entries and tensor_entries:
        raise ValueError("mixed sector and two-sided records in one dump")
    if tensor_entries:
        return TensorState(tensor_entries)
    return SectorState(sector_entries)
