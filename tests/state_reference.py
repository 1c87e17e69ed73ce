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
coefficients.
"""

import json
from typing import IO

from chargedfock.fock import (
    Partition,
    SectorState,
    TensorState,
    apply_rows,
    float_row,
    integer_row,
    zsym,
)
from chargedfock.heisenberg import _j_key, _j_table, j_step
from chargedfock.vertex import conformal_weight


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
