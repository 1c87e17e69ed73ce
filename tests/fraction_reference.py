"""Fraction references for the integer row builders and the chiral Grams.

``make_row`` turns (partition, value) pairs into a :data:`~chargedfock.fock.Row`
the way the operator modules did before they built rows in integers, and
``sugawara_row`` is the Fraction double step that ``_sugawara_on_basis`` ran
then.  Tests compare every integer row, and so every column of a level matrix,
against these.  ``chiral_gram`` pairs two Fraction ``y_mode_table`` rows, as
``twodim`` did before it paired the integer Y rows.  ``value_row`` turns a
state's values back into a row, as the mode oracle did before it stacked
integer rows, and ``recursive_element`` is the Fraction commutator recursion
that ``vertex._recursive_element`` ran before it went to integers.
``reference_residual`` is the residual sum that ``fock.residual`` computed in
Python ints (object dtype) before it went to residues, with its float64 sum
of float mode; ``reference_failing`` is where that sum fails.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from chargedfock.fock import float_row, zsym
from chargedfock.heisenberg import j_step
from chargedfock.vertex import y_mode_table

_HALF = Fraction(1, 2)


def _denominator(c):
    if isinstance(c, int):
        return 1
    return c.denominator


def make_row(level, pairs, charge):
    """Row from (mu, value) pairs at one output level over the least common
    denominator of the values; a float charge (float mode) gives a float row
    with den 1."""
    pairs = [(mu, c) for mu, c in pairs if c != 0]
    mus = tuple(mu for mu, _ in pairs)
    if isinstance(charge, (float, complex)):
        return 1, level, mus, tuple(c * 1.0 for _, c in pairs)
    den = lcm(1, *[_denominator(c) for _, c in pairs])
    return den, level, mus, tuple(int(c * den) for _, c in pairs)


def sugawara_row(n, j, lam, alpha0, fault):
    """L_n on basis (j, lam), summed in Fractions: 1/2 sum_k :J_{n-k} J_k:,
    with the k = 1 term of L_2 doubled under ``fault``."""
    beta = alpha0 * j
    ell = sum(lam)
    bound = ell + abs(n)
    acc = {}
    for k in range(-bound, bound + 1):
        a = n - k
        lo, hi = (a, k) if a <= k else (k, a)
        for mu1, c1 in j_step(lam, hi, beta):
            for mu2, c2 in j_step(mu1, lo, beta):
                c = _HALF * c1 * c2
                if fault and n == 2 and k == 1:
                    c = 2 * c
                acc[mu2] = acc.get(mu2, 0) + c
    return make_row(ell - n, acc.items(), alpha0)


def chiral_gram(alpha1, delta1, lam1, alpha2, delta2, lam2):
    """<Y^{alpha1}_{delta1} lam1, Y^{alpha2}_{delta2} lam2> in one chiral
    factor, summed over the bra table's entries in its order."""
    row2 = dict(y_mode_table(alpha2, delta2, lam2))
    total = 0
    if row2:
        for mu, c1 in y_mode_table(alpha1, delta1, lam1):
            c2 = row2.get(mu)
            if c2 is not None:
                total = total + c1 * c2 * zsym(mu)
    return total


def value_row(level, values):
    """Row from output partition -> nonzero value at one output level:
    integers over the values' least common denominator, which leaves the row
    reduced, or floats (float mode) as soon as one value is a float or
    complex."""
    if any(isinstance(c, (float, complex)) for c in values.values()):
        return float_row(level, values)
    den = lcm(1, *[c.denominator for c in values.values()])
    return den, level, tuple(values), tuple(c.numerator * (den // c.denominator) for c in values.values())


@lru_cache(maxsize=None)
def recursive_element(alpha, mu, delta, lam):
    """<b_mu, Y_delta b_lam> in Fractions, from [J_p, Y_delta] = alpha
    Y_{delta-p}, the adjoint pairing and <vac', Y_delta vac> = delta_{delta,0}."""
    if sum(mu) != sum(lam) + delta:
        return Fraction(0)
    if mu:
        p, rest = mu[0], mu[1:]
        total = alpha * recursive_element(alpha, rest, delta - p, lam)
        cnt = lam.count(p)
        if cnt:
            out = list(lam)
            out.remove(p)
            total = total + p * cnt * recursive_element(alpha, rest, delta, tuple(out))
        return total
    if lam:
        return -alpha * recursive_element(alpha, (), delta + lam[0], lam[1:])
    return Fraction(1) if delta == 0 else Fraction(0)


def reference_residual(ctx, terms):
    """The sum over terms ``(c, chains)`` of c times the Kronecker product of
    its chains' matrix products, each applied right to left: in the exact
    modes integer numerators over one common denominator, every product in
    Python ints; in float mode float64 values.  The left products of the
    two-sided terms that share a right chain are summed before one Kronecker
    product with it, in the order of ``fock.residual``."""
    if ctx.exact:
        scales = [prod(m.den for chain in chains for m in chain) * c.denominator for c, chains in terms]
        den = lcm(1, *scales)
        factors = [c.numerator * den // scale for (c, _), scale in zip(terms, scales)]
        convert = lambda m: m.ints.astype(object)  # noqa: E731
    else:
        factors = [float(c) for c, _ in terms]
        convert = lambda m: m.ints / m.den  # noqa: E731

    def product(chain):
        out = convert(chain[-1])
        for m in chain[-2::-1]:
            out = convert(m) @ out
        return out

    total = None
    shared = {}
    for f, (_, chains) in zip(factors, terms):
        if len(chains) == 1:
            x = f * product(chains[0])
            total = x if total is None else total + x
        else:
            shared.setdefault(tuple(map(id, chains[1])), (chains[1], []))[1].append((f, chains[0]))
    for right, lefts in reversed(shared.values()):
        a = sum(f * product(left) for f, left in lefts)
        if total is None or a.any():
            b = product(right)
            x = a[..., :, None, :, None] * b[..., None, :, None, :]
            x = x.reshape(x.shape[:-4] + (x.shape[-4] * x.shape[-3], x.shape[-2] * x.shape[-1]))
            total = x if total is None else total + x
    return total


def reference_failing(ctx, terms):
    """Where :func:`reference_residual` is nonzero, or in float mode beyond
    the tolerance."""
    total = reference_residual(ctx, terms)
    return total != 0 if ctx.exact else np.abs(total) > ctx.tolerance
