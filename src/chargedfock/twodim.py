"""Time-zero field modes on diagonal two-sided states.

The time-zero mode of charge ``alpha`` at integer index ``m`` is the band sum

    Psi_{alpha,m} = sum_{delta} Y_{alpha,delta} (x) Y_{alpha,delta+m}

over the left level shift ``delta`` (both chiral factors shift the shared
sector once).  Every mode is symmetrized: it adds the charge-reflected term
with ``alpha -> -alpha``, so its adjoint is the index-reflected mode m -> -m.

At a finite level cutoff only the bands whose two chiral outputs both stay
inside it (and whose target sector stays inside the window) are kept.  Dropped
bands are orthogonal to everything kept, so the only truncation error in a
pairing <Psi phi1, Psi phi2> is tail-against-tail, and :func:`psi_pair_form`
budgets it by extrapolating the band-norm series with :func:`band_tail_norm`.

Factorized pairing
------------------
Psi phi is never materialized.  :func:`time_zero_image` keeps it as its terms:
for each entry ``c |j, l, r>`` of phi and each sign ``eps`` whose target
sector ``j + eps*alpha/alpha0`` is admitted, the coefficient, the key
(:func:`~chargedfock.fock.charge_key`) of the charge ``eps*alpha`` and the
two chiral partitions.  The Gram weight of a diagonal basis vector is the
product of two chiral weights, so

    <Psi_a phi1, Psi_b phi2> = sum conj(c_k) c_k'
        <Y_delta l_k, Y_delta' l_k'> <Y_{delta+a} r_k, Y_{delta'+b} r_k'>

over term pairs with one target sector and over the bands ``delta`` with
``delta' = delta + |l_k| - |l_k'|``.  Each chiral Gram pairs two integer rows
of :func:`~chargedfock.vertex._y_row` with ``zsym`` weights into a Python-int
numerator over the two rows' denominators, memoized by value.  A band sums
its terms' numerator products by denominator and divides once, over their
lcm; its squared norm (same ``delta`` on both sides, for the tail budget)
becomes a float by one correctly rounded int division.  Float charges pair
the float rows over 1, in order.  :func:`image_inner_product` also pairs an
image against a materialized state: an (entry, term) pair fixes its band and
one entry of each of the band's two rows, and each entry divides once.  The
exact modes stay exact, so the values equal those of the materialized tensor.

Every image and its tail norm comes from :data:`IMAGES`, the process's one
bounded :class:`PsiCache`, keyed by value: each distinct image is built once
while it stays among the last ``IMAGE_BOUND`` built.

:func:`apply_time_zero` still builds the truncated band sum as a
:class:`~chargedfock.fock.TensorState`, band by band.  Nothing in the
verification paths calls it: it is the small-cutoff oracle the tests check
the factorized kernel against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Tuple

from .diagnostics import loglog_slope, tail_budget
from .fock import ChargeKey, Partition, Space, TensorState, charge_key, norm_sq, space_key, state_key, zsym
from .scalar import Scalar, decimal_str
from .vertex import _y_row, charge_multiplier, y_mode_table

__all__ = [
    "TimeZeroMode",
    "BandReport",
    "TimeZeroImage",
    "time_zero_image",
    "image_band_report",
    "image_inner_product",
    "apply_time_zero",
    "band_tail_norm",
    "tail_product",
    "PsiCache",
    "psi_pair_form",
    "weak_psi_commutator",
    "vacuum_norm_series",
    "partial_sum_norm_series",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class TimeZeroMode:
    alpha: Scalar
    m: int


@dataclass(frozen=True)
class BandReport:
    """Included diagonal bands (left level shift, squared norm of that band)."""

    bands: Tuple[Tuple[int, float], ...]
    charge_clipped: bool


# (target sector, charge key of eps*alpha, coefficient, left, right, |left|, |right|)
Term = Tuple[int, ChargeKey, Scalar, Partition, Partition, int, int]


@dataclass(frozen=True)
class TimeZeroImage:
    """Psi phi at the space's cutoff, held as the terms of phi it is built from."""

    space: Space
    mode: TimeZeroMode
    terms: Tuple[Term, ...]
    charge_clipped: bool


def time_zero_image(space: Space, mode: TimeZeroMode, v: TensorState) -> TimeZeroImage:
    """The mode on v, unmaterialized; pair it with :func:`image_inner_product`."""
    mult = charge_multiplier(space, mode.alpha)
    terms = []
    charge_clipped = False
    keys = ((1, charge_key(mode.alpha)), (-1, charge_key(-mode.alpha)))
    for (j, left, right), c in v.entries.items():
        for eps, key in keys:
            jt = j + eps * mult
            if not space.trunc.admits_sector(jt):
                charge_clipped = True
                continue
            terms.append((jt, key, c, left, right, sum(left), sum(right)))
    return TimeZeroImage(space, mode, tuple(terms), charge_clipped)


# 252 Grams fill at verify-commutativity's cutoff 20
@lru_cache(maxsize=65536)
def _chiral_gram(key1: ChargeKey, key2: ChargeKey, delta1: int, lam1: Partition, delta2: int, lam2: Partition):
    """<Y^{alpha1}_{delta1} lam1, Y^{alpha2}_{delta2} lam2> in one chiral
    factor, the charges given by their keys, as (numerator, denominator).

    Pairs the integer rows of :func:`~chargedfock.vertex._y_row`: exact
    charges give the Python-int sum of n1 n2 zsym(mu) over the product of the
    two row denominators, unreduced; float charges give the sum of the float
    rows in the bra row's order, over 1.  Charges are real, so rows are real
    and the bra row needs no conjugation.
    """
    den1, _, mus1, nums1 = _y_row(key1, delta1, lam1)
    den2, _, mus2, nums2 = _y_row(key2, delta2, lam2)
    ket = dict(zip(mus2, nums2))
    total = 0
    for mu, n1 in zip(mus1, nums1):
        n2 = ket.get(mu)
        if n2 is not None:
            total = total + n1 * n2 * zsym(mu)
    GRAMS["computed"] += 1
    return total, den1 * den2


# chiral Grams computed in this process; each is computed once per memo entry
GRAMS = Counter()


def _by_sector(terms) -> Dict[int, List[Term]]:
    out: Dict[int, List[Term]] = {}
    for term in terms:
        out.setdefault(term[0], []).append(term)
    return out


def _over_lcm(sums: Dict[int, Scalar]) -> Tuple[Scalar, int]:
    """Numerator sums keyed by denominator -> (their sum over the lcm, the lcm)."""
    den = math.lcm(*sums)
    return (sums[den] if len(sums) == 1 else sum(num * (den // d) for d, num in sums.items())), den


def _scalar(num, den: int) -> Scalar:
    """num / den: one Fraction for an int numerator; a float one comes over 1."""
    return Fraction(num, den) if type(num) is int else num if den == 1 else num * Fraction(1, den)


def _band_pairings(u: TimeZeroImage, w: TimeZeroImage, same_band: bool) -> Dict[int, Tuple[Scalar, int]]:
    """Bra band delta -> its share of <u, w> as (numerator, denominator): each
    band sums coeff n_left n_right by the denominator of its two Grams, and
    adds the sums over their lcm once.  With ``same_band`` only equal left
    shifts pair (delta' = delta), which is the squared norm of each band when
    u is w."""
    ctx = u.space.ctx
    L = u.space.trunc.level_cutoff
    a, b = u.mode.m, w.mode.m
    kets = _by_sector(w.terms)
    out: Dict[int, Dict[int, Scalar]] = {}
    for jt, key, c, left, right, ll, lr in u.terms:
        for _jt, key2, c2, left2, right2, ll2, lr2 in kets.get(jt, ()):
            # both chiral output levels must agree: the left one fixes delta',
            # after which the right one leaves a delta-independent condition
            shift = ll - ll2
            if lr + a - ll != lr2 + b - ll2 or (same_band and shift):
                continue
            coeff = ctx.conj(c) * c2
            for d in range(max(-ll, -a - lr), min(L - ll, L - a - lr) + 1):
                nl, dl = _chiral_gram(key, key2, d, left, d + shift, left2)
                if not nl:
                    continue
                nr, dr = _chiral_gram(key, key2, d + a, right, d + shift + b, right2)
                g = nl * nr
                if g:
                    band = out.setdefault(d, {})
                    band[dl * dr] = band.get(dl * dr, 0) + coeff * g
    return {d: _over_lcm(sums) for d, sums in out.items()}


def _pair_state(v: TensorState, w: TimeZeroImage) -> Scalar:
    """<v, w> for a materialized v: an entry and a term fix the band, and the
    band's two integer rows give the entry's coefficient."""
    ctx = w.space.ctx
    L = w.space.trunc.level_cutoff
    m = w.mode.m
    kets = _by_sector(w.terms)
    rows = {}  # (sector, term's place in it, band) -> left and right row by partition, their denominator
    total = ctx.zero()
    for (j, lv, rv), cv in v.entries.items():
        terms = kets.get(j)
        llv, lrv = sum(lv), sum(rv)
        if not terms or llv > L or lrv > L:
            continue
        sums = {}  # the entry's coefficient: numerator sums by denominator
        for i, (_jt, key, c, left, right, ll, lr) in enumerate(terms):
            d = llv - ll
            if lrv != lr + d + m:
                continue
            pair = rows.get((j, i, d))
            if pair is None:
                den_l, _, mus_l, nums_l = _y_row(key, d, left)
                den_r, _, mus_r, nums_r = _y_row(key, d + m, right)
                pair = rows[j, i, d] = (dict(zip(mus_l, nums_l)), dict(zip(mus_r, nums_r)), den_l * den_r)
            x = pair[0].get(lv)
            if x is None:
                continue
            y = pair[1].get(rv)
            if y is not None:
                sums[pair[2]] = sums.get(pair[2], 0) + c * x * y
        acc = _scalar(*_over_lcm(sums)) if sums else 0
        if acc:
            total = total + ctx.conj(cv) * acc * (zsym(lv) * zsym(rv))
    return total


def image_inner_product(u, w) -> Scalar:
    """<u, w>, conjugate-linear in u, for two images of one space or an image
    and a materialized :class:`TensorState` in either order."""
    if isinstance(u, TimeZeroImage) and isinstance(w, TimeZeroImage):
        if u.space != w.space:
            raise ValueError("images from different spaces do not pair")
        total = u.space.ctx.zero()
        for num, den in _band_pairings(u, w, False).values():
            total = total + _scalar(num, den)
        return total
    if isinstance(w, TimeZeroImage):
        return _pair_state(u, w)
    if isinstance(u, TimeZeroImage):
        return u.space.ctx.conj(_pair_state(w, u))
    raise TypeError("image_inner_product needs at least one time-zero image")


def image_band_report(image: TimeZeroImage) -> BandReport:
    """Band norms of the image, the same ones :func:`apply_time_zero` reports."""
    ctx = image.space.ctx
    bands = []
    for d, (num, den) in sorted(_band_pairings(image, image, True).items()):
        if num != 0:  # int true division rounds correctly, as float(Fraction(num, den)) does
            bands.append((d, num / den if type(num) is int else float(ctx.re_im(_scalar(num, den))[0])))
    return BandReport(tuple(bands), image.charge_clipped)


def apply_time_zero(space: Space, mode: TimeZeroMode, v: TensorState):
    """Partial band sum of the mode on v -> (TensorState, BandReport).

    Materializes every band; the test oracle for the factorized kernel.
    """
    L = space.trunc.level_cutoff
    mult = charge_multiplier(space, mode.alpha)
    band_acc: dict = {}
    charge_clipped = False
    for (j, left, right), c in v.entries.items():
        lL, lR = sum(left), sum(right)
        for eps, alpha_eps in ((1, mode.alpha), (-1, -mode.alpha)):
            jt = j + eps * mult
            if not space.trunc.admits_sector(jt):
                charge_clipped = True
                continue
            dlo = max(-lL, -mode.m - lR)
            dhi = min(L - lL, L - mode.m - lR)
            for dl in range(dlo, dhi + 1):
                tab_left = y_mode_table(alpha_eps, dl, left)
                if not tab_left:
                    continue
                tab_right = y_mode_table(alpha_eps, dl + mode.m, right)
                if not tab_right:
                    continue
                band = band_acc.setdefault(dl, {})
                for mu_l, c_l in tab_left:
                    cc = c * c_l
                    for mu_r, c_r in tab_right:
                        key = (jt, mu_l, mu_r)
                        band[key] = band.get(key, 0) + cc * c_r
    total: dict = {}
    bands = []
    for dl in sorted(band_acc):
        part = TensorState(band_acc[dl])
        if part.entries:
            bands.append((dl, float(norm_sq(space.ctx, part))))
            for key, c in part.entries.items():
                total[key] = total.get(key, 0) + c
    out = TensorState(total, overflow=v.overflow or bool(v.entries) or charge_clipped)
    return out, BandReport(tuple(bands), charge_clipped)


def band_tail_norm(report: BandReport) -> float:
    """Estimated norm of the dropped band tail (sqrt of extrapolated sum).

    Returns 0 for an empty application, +inf when the band series is too
    short or not summably decaying -- never a silent underestimate.
    """
    vals = [v for _, v in report.bands]
    if not vals or max(vals) == 0.0:
        return 0.0
    pts = [(i, v) for i, v in enumerate(vals, start=1) if v > 0]
    n_fit = max(3, len(pts) // 2)
    fit_pts = pts[-n_fit:]
    if len(fit_pts) < 3:
        return math.inf
    try:
        slope = loglog_slope(fit_pts)
    except ValueError:
        return math.inf
    if slope >= -1:
        return math.inf
    budget_sq = tail_budget(vals[: pts[-1][0]], slope)
    return math.sqrt(budget_sq)


def tail_product(tail_bra: float, tail_ket: float) -> float:
    """Budget of a tail-against-tail pairing.  An empty side has no tail at
    all, so the product is 0 even against an unbounded (+inf) side."""
    if tail_bra == 0.0 or tail_ket == 0.0:
        return 0.0
    return tail_bra * tail_ket


# images per report: verify-commutativity 63 (cutoffs 10, 24), verify-lorentz 14, virasoro-c0 28, d-half 15
IMAGE_BOUND = 1024


class PsiCache:
    """Time-zero images and their tail norms, each built once while it stays
    among the last ``IMAGE_BOUND`` built; counts the images requested and built.

    Keyed by value (:func:`~chargedfock.fock.space_key`, charge key, index,
    :func:`~chargedfock.fock.state_key`): an equal state built twice hits, and
    a state in another order or with other value types gets its own image.
    Refuses an image that left the charge window, whose dropped terms are not
    orthogonal to the kept ones.
    """

    def __init__(self):
        self._store: Dict[tuple, Tuple[TimeZeroImage, float]] = {}
        self.requests = 0
        self.built = 0

    def apply(self, space: Space, alpha: Scalar, m: int, state: TensorState) -> Tuple[TimeZeroImage, float]:
        self.requests += 1
        key = (space_key(space), charge_key(alpha), m, state_key(state))
        hit = self._store.get(key)
        if hit is None:
            image = time_zero_image(space, TimeZeroMode(alpha, m), state)
            if image.charge_clipped:
                raise ValueError(
                    "bilinear application left the charge window; test vectors"
                    " must sit one charge step inside it"
                )
            hit = (image, band_tail_norm(image_band_report(image)))
            if len(self._store) >= IMAGE_BOUND:
                del self._store[next(iter(self._store))]
            self._store[key] = hit
            self.built += 1
        return hit


# the process's one image memo; callers look up IMAGES.apply per call, so a wrapper on the class sees each
IMAGES = PsiCache()


def psi_pair_form(space: Space, mode_bra: TimeZeroMode, mode_ket: TimeZeroMode, phi1, phi2):
    """<Psi_bra phi1, Psi_ket phi2> at the cutoff, with a truncation budget.

    Kept components stay inside the cutoff while dropped bands leave it on at
    least one chiral factor, so cross terms between kept and dropped parts
    vanish identically; the budget is the product of the two extrapolated
    tail norms.  Both images come from :data:`IMAGES`.
    """
    u, tail_u = IMAGES.apply(space, mode_bra.alpha, mode_bra.m, phi1)
    w, tail_w = IMAGES.apply(space, mode_ket.alpha, mode_ket.m, phi2)
    return image_inner_product(u, w), tail_product(tail_u, tail_w)


def weak_psi_commutator(space: Space, alpha, m: int, n: int, phi1, phi2):
    """Weak commutator of two symmetrized time-zero modes on a pair of states:
    <Psi_{-m} phi1, Psi_n phi2> - <Psi_{-n} phi1, Psi_m phi2>, with the sum
    of the two pairings' budgets."""
    first, b1 = psi_pair_form(space, TimeZeroMode(alpha, -m), TimeZeroMode(alpha, n), phi1, phi2)
    second, b2 = psi_pair_form(space, TimeZeroMode(alpha, -n), TimeZeroMode(alpha, m), phi1, phi2)
    return first - second, b1 + b2


def vacuum_norm_series(alpha_sq, n_max: int) -> list:
    """[r_0, ..., r_{n_max}], r_n = prod_{k<n} (alpha_sq + k) / n! the squared
    vacuum norm of the level-raising-n mode, by r_{n+1} = r_n (alpha_sq + n) /
    (n + 1): exact for an exact alpha_sq, and float for a float one with no
    factorial to overflow past n ~ 170."""
    step = lambda r, n: r * (alpha_sq + n) / (n + 1)  # noqa: E731
    return list(accumulate(range(n_max), step, initial=alpha_sq**0))  # r_0 = 1 of alpha_sq's type


def partial_sum_norm_series(alpha_sq, m: int, n_bands: int) -> List[Tuple[int, Scalar, Scalar]]:
    """Band-norm series of one charge of the mode on a vacuum pair.

    Band n contributes r_n r_{n+m} (:func:`vacuum_norm_series`); rows are
    (band, band_norm_sq, partial_sum) for the first n_bands bands from
    max(0, -m), where both factors are vacuum-supported.
    """
    bands = range(max(0, -m), max(0, -m) + n_bands)
    norms = vacuum_norm_series(alpha_sq, max(bands.stop - 1 + max(0, m), 0))
    vals = [norms[band] * norms[band + m] for band in bands]
    return list(zip(bands, vals, accumulate(vals)))


def write_convergence_csv(rows, fp) -> None:
    fp.write("band,band_norm_sq,partial_sum\n")
    for band, val, total in rows:
        fp.write(f"{band},{decimal_str(val)},{decimal_str(total)}\n")
