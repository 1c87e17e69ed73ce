"""Perturbed two-sided generator families and weak-commutator verdicts.

Each family combines a chiral pair of Virasoro modes with a scalar multiple
of the symmetrized time-zero bilinear:

* ``lorentz``     -- boost-like: ``L_m (x) 1 + 1 (x) L_{-m}`` for m = +-1 with
  coefficient ``lam``; the m = 0 member is the unperturbed difference
  ``L_0 (x) 1 - 1 (x) L_0``.
* ``virasoro_c0`` -- chiral difference ``L_m (x) 1 - 1 (x) L_{-m}`` with the
  purely imaginary coefficient ``i*lam*m`` (needs gaussian or float scalars).
* ``d_half``      -- chiral difference with the constant coefficient ``lam``;
  closes on the (m - n) ladder only at conformal weight 1/2.

A weak commutator <A* v, B w> - <B* v, A w> splits into three pieces with
different exactness guarantees.  The Virasoro/Virasoro piece and the two
cross pieces are finite computations once the test vectors sit a buffer
inside the level cutoff (and one charge step inside the window), so their
residuals against the ladder target must vanish identically.  Only the
bilinear/bilinear piece is band-truncated: dropped bands leave the cutoff on
at least one chiral factor, hence are orthogonal to every kept vector, and
the computed value differs from the true weak form by at most the product of
the two extrapolated tail norms, summed over both operator orders.

None of the pairings depends on the coupling ``lam``: a weak commutator is a
quadratic in ``lam`` whose coefficients are the chiral, cross and bilinear
pairings.  Two bounded memos, keyed by value, compute each of them once per
process: :func:`apply_l_part` keeps its outputs, and every (cell, probe pair)
keeps its coupling-free pieces, one per pairing kind, each filled on first
use: the chiral pairings ``"ll"``, the cross pairings of each bilinear that
acts (``"b"`` for B's, ``"a"`` for A's), the bilinear/bilinear value and its
budget ``"psipsi"`` when both act, and the ladder target's pairings.  A
coupling sweep then pays its chiral pairings once, and its bilinear pairings
at the first nonzero coupling.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, List, Optional, Tuple

from . import virasoro
from .fock import Space, TensorState, charge_key, inner_product, partitions_of, space_key, state_key
from .scalar import Scalar
# PsiCache is bound here for bench/tracer.py, which finds the class by this name
from .twodim import IMAGES, PsiCache, image_inner_product, partial_sum_norm_series, weak_psi_commutator  # noqa: F401
from .vertex import charge_multiplier, conformal_weight
from .virasoro import apply_L_tensor

__all__ = [
    "FAMILIES",
    "PerturbedGenerator",
    "psi_coefficient",
    "chiral_sign",
    "apply_l_part",
    "WeakParts",
    "weak_commutator_parts",
    "commutator_targets",
    "default_interior_buffer",
    "mixed_gap_coefficients",
    "virasoro_combination",
    "closure_table",
    "verify_lorentz",
    "verify_virasoro_c0",
    "explore_d_half",
]

FAMILIES = ("lorentz", "virasoro_c0", "d_half")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PerturbedGenerator:
    family: str
    m: int
    lam: Scalar
    alpha: Scalar

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "lorentz" and self.m not in (-1, 0, 1):
            raise ValueError("the lorentz family is only defined for m in {-1, 0, 1}")

    def at(self, m: int) -> "PerturbedGenerator":
        return replace(self, m=m)

    def adjoint(self) -> "PerturbedGenerator":
        """All three families satisfy A(m)* = A(-m): the chiral part swaps
        m -> -m and the bilinear coefficient conjugates to the -m one."""
        return self.at(-self.m)


def psi_coefficient(space: Space, gen: PerturbedGenerator) -> Scalar:
    """Scalar in front of the symmetrized bilinear inside ``gen``."""
    ctx = space.ctx
    if ctx.is_zero(gen.lam):
        return ctx.zero()
    if gen.family == "lorentz":
        return gen.lam if gen.m != 0 else ctx.zero()
    if gen.family == "virasoro_c0":
        if gen.m == 0:
            return ctx.zero()
        return ctx.imaginary_unit() * gen.lam * gen.m
    return gen.lam


def chiral_sign(gen: PerturbedGenerator) -> int:
    """The sign s in the chiral part L_m (x) 1 + s 1 (x) L_{-m} of ``gen``."""
    if gen.family == "lorentz" and gen.m != 0:
        return 1
    return -1


# The two memos below are bounded and keyed by value.  Each hands out an
# empty container per key, which the caller fills from its own objects on a
# miss.  One L-part output per (space, m, sign, state): 21 at the
# lorentz-sweep benchmark's cutoff 8, 35 at verify-virasoro-c0's defaults.
@lru_cache(maxsize=1024)
def _l_part_slot(key) -> list:
    return []


# one entry per (cell, probe pair): 54 per verify-lorentz, 114 per verify-virasoro-c0
@lru_cache(maxsize=2048)
def _entry_slot(key) -> dict:
    return {}


# chiral applications requested and computed, coupling-free pieces computed
# and reused, since the running report began
_REUSE = Counter()


def _space_key(space: Space) -> tuple:
    """The space's key and the Sugawara fault flag, which changes every L row."""
    return space_key(space), virasoro.FAULT_SUGAWARA


def apply_l_part(space: Space, gen: PerturbedGenerator, v: TensorState) -> TensorState:
    """Unperturbed part: ``L_m`` on the left plus/minus ``L_{-m}`` on the right.
    Memoized by (space, m, chiral sign, state), each by value and type."""
    sign = chiral_sign(gen)
    slot = _l_part_slot((_space_key(space), gen.m, sign, state_key(v)))
    if not slot:
        _REUSE["chiral_computed"] += 1
        left = apply_L_tensor(space, "left", gen.m, v)
        right = apply_L_tensor(space, "right", -gen.m, v)
        slot.append(left.add(right) if sign == 1 else left.sub(right))
    return slot[0]


@dataclass(frozen=True)
class WeakParts:
    """Weak commutator split by operator content, plus the truncation budget
    that applies to the bilinear/bilinear piece alone."""

    ll: Scalar
    mixed: Scalar
    psipsi: Scalar
    tail_budget: float


def default_interior_buffer(max_abs_m: int, probe_level: int) -> int:
    """One chiral Virasoro application plus the deepest sampled probe."""
    return max(max_abs_m, 1) + probe_level


def _require_interior(space: Space, phi: TensorState, buffer: int, name: str) -> None:
    L = space.trunc.level_cutoff
    if phi.overflow:
        raise ValueError(f"{name} already carries truncation drops")
    if phi.entries and phi.max_chiral_level() > L - buffer:
        raise ValueError(
            f"{name} reaches chiral level {phi.max_chiral_level()}, beyond the"
            f" interior margin {L - buffer} (cutoff {L}, buffer {buffer})"
        )


def _require_charge_interior(space: Space, phi: TensorState, mult: int, name: str) -> None:
    inner = space.trunc.interior_sectors(mult)
    for (j, _l, _r) in phi.entries:
        if j not in inner:
            raise ValueError(
                f"{name} occupies charge sector {j}, less than one bilinear"
                " step inside the charge window"
            )


def _entry(space: Space, gen_a: PerturbedGenerator, gen_b: PerturbedGenerator, phi1, phi2) -> dict:
    """The coupling-free pieces of one (cell, probe pair): a dict filled on
    first use, keyed by value without the coupling."""
    key = (
        _space_key(space),
        gen_a.family,
        gen_b.family,
        charge_key(gen_a.alpha),
        gen_a.m,
        gen_b.m,
        state_key(phi1),
        state_key(phi2),
    )
    return _entry_slot(key)


def _piece(entry: dict, name, compute: Callable) -> tuple:
    """The tuple of pieces ``entry[name]``, computed once."""
    pieces = entry.get(name)
    if pieces is None:
        pieces = entry[name] = compute()
        _REUSE["pieces_computed"] += len(pieces)
    else:
        _REUSE["pieces_reused"] += len(pieces)
    return pieces


def weak_commutator_parts(
    space: Space, gen_a: PerturbedGenerator, gen_b: PerturbedGenerator, phi1: TensorState, phi2: TensorState,
    interior_buffer: int,
) -> WeakParts:
    """<A* phi1, B phi2> - <B* phi1, A phi2> split into exact and budgeted parts.

    The two vectors must be interior: chiral levels at most cutoff - buffer
    with buffer covering every single Virasoro application made here, and (when
    a bilinear acts at all) charge sectors one multiplier step inside the
    window.  Under those conditions ``ll`` and ``mixed`` are exact and only
    ``psipsi`` carries the band-truncation budget.

    The pairings come from the (cell, probe pair)'s coupling-free pieces,
    computed on first use; every check runs on every call.
    """
    ctx = space.ctx
    if gen_a.alpha != gen_b.alpha:
        raise ValueError("both generators must share one vertex charge")
    needed = max(abs(gen_a.m), abs(gen_b.m), 1)
    if interior_buffer < needed:
        raise ValueError(
            f"interior buffer {interior_buffer} cannot absorb a level shift of {needed}"
        )
    _require_interior(space, phi1, interior_buffer, "phi1")
    _require_interior(space, phi2, interior_buffer, "phi2")

    a_coeff = psi_coefficient(space, gen_a)
    b_coeff = psi_coefficient(space, gen_b)
    use_a = not ctx.is_zero(a_coeff)
    use_b = not ctx.is_zero(b_coeff)
    if use_a or use_b:
        mult = charge_multiplier(space, gen_a.alpha)
        _require_charge_interior(space, phi1, mult, "phi1")
        _require_charge_interior(space, phi2, mult, "phi2")

    entry = _entry(space, gen_a, gen_b, phi1, phi2)
    _REUSE["chiral_requested"] += 4
    chiral = entry.get("chiral")
    if chiral is None:
        chiral = entry["chiral"] = (
            apply_l_part(space, gen_a.adjoint(), phi1),
            apply_l_part(space, gen_b.adjoint(), phi1),
            apply_l_part(space, gen_a, phi2),
            apply_l_part(space, gen_b, phi2),
        )
    for applied in chiral:
        if applied.overflow:
            raise ValueError("chiral Virasoro application left the cutoff; enlarge the buffer")
    la_ad1, lb_ad1, la2, lb2 = chiral

    ll_ab, ll_ba = _piece(
        entry, "ll", lambda: (inner_product(ctx, la_ad1, lb2), inner_product(ctx, lb_ad1, la2))
    )
    ll = ll_ab - ll_ba

    mixed = psipsi = ctx.zero()
    budget = 0.0
    # which bilinears act is fixed by the family and the modes once the
    # coupling is nonzero (psi_coefficient), so each piece serves every coupling
    alpha = gen_a.alpha
    if use_b:
        b_ket, b_bra = _piece(entry, "b", lambda: (
            image_inner_product(la_ad1, IMAGES.apply(space, alpha, gen_b.m, phi2)[0]),
            image_inner_product(IMAGES.apply(space, alpha, -gen_b.m, phi1)[0], la2),
        ))
        mixed = mixed + b_coeff * b_ket
        mixed = mixed - b_coeff * b_bra
    if use_a:
        a_bra, a_ket = _piece(entry, "a", lambda: (
            image_inner_product(IMAGES.apply(space, alpha, -gen_a.m, phi1)[0], lb2),
            image_inner_product(lb_ad1, IMAGES.apply(space, alpha, gen_a.m, phi2)[0]),
        ))
        mixed = mixed + a_coeff * a_bra
        mixed = mixed - a_coeff * a_ket
    if use_a and use_b:
        value, psi_budget = _piece(
            entry, "psipsi", lambda: weak_psi_commutator(space, alpha, gen_a.m, gen_b.m, phi1, phi2)
        )
        psipsi = a_coeff * b_coeff * value
        budget = abs(complex(a_coeff * b_coeff)) * psi_budget
    return WeakParts(ll, mixed, psipsi, budget)


def commutator_targets(
    space: Space, gen_a: PerturbedGenerator, gen_b: PerturbedGenerator, phi1: TensorState, phi2: TensorState
) -> Tuple[Scalar, Scalar]:
    """Ladder target (m - n) <phi1, G_{m+n} phi2>, split like the commutator.

    Returns the chiral-part pairing and the bilinear-part pairing separately;
    both are exact for interior phi1 (dropped bilinear bands are orthogonal to
    every vector inside the cutoff).  The two pairings are coupling-free
    pieces of the (cell, probe pair), computed once.
    """
    ctx = space.ctx
    coeff = gen_a.m - gen_b.m
    if coeff == 0:
        return ctx.zero(), ctx.zero()
    target = gen_a.at(gen_a.m + gen_b.m)
    entry = _entry(space, gen_a, gen_b, phi1, phi2)
    _REUSE["chiral_requested"] += 1
    (ll_pairing,) = _piece(
        entry, "target_ll", lambda: (inner_product(ctx, phi1, apply_l_part(space, target, phi2)),)
    )
    ll_target = coeff * ll_pairing
    t_coeff = psi_coefficient(space, target)
    if ctx.is_zero(t_coeff):
        return ll_target, ctx.zero()
    (psi_pairing,) = _piece(
        entry,
        "target_psi",
        lambda: (image_inner_product(phi1, IMAGES.apply(space, target.alpha, target.m, phi2)[0]),),
    )
    psi_target = coeff * (t_coeff * psi_pairing)
    return ll_target, psi_target


# ---------------------------------------------------------------------------
# symbolic coefficient checks


def mixed_gap_coefficients(d, m: int, n: int) -> dict:
    """Cross-term coefficient of the chiral-difference families.

    ``lhs`` is the computed combination ((2d-1)m - n) - ((2d-1)n - m); it
    always equals ``2d (m - n)``, while matching the ladder requirement
    ``m - n`` singles out d = 1/2 (or m = n).
    """
    d = Fraction(d)
    two_d_minus_1 = 2 * d - 1
    lhs = (two_d_minus_1 * m - n) - (two_d_minus_1 * n - m)
    two_d_form = 2 * d * (m - n)
    ladder = Fraction(m - n)
    return {
        "lhs": lhs,
        "two_d_form": two_d_form,
        "ladder": ladder,
        "identity": lhs == two_d_form,
        "closes": lhs == ladder,
    }


def virasoro_combination(d, m: int, n: int) -> Tuple[Fraction, Fraction]:
    """n((2d-1)m - n) - m((2d-1)n - m) against (m - n)(m + n); the d terms
    cancel, which is what lets the imaginary-coefficient family close."""
    d = Fraction(d)
    two_d_minus_1 = 2 * d - 1
    lhs = n * (two_d_minus_1 * m - n) - m * (two_d_minus_1 * n - m)
    rhs = Fraction((m - n) * (m + n))
    return lhs, rhs


def closure_table() -> List[dict]:
    """Symbolic closure survey of the constant-coefficient family at weights
    1/2 and 1/8, |m|, |n| <= 3."""
    rows = []
    for d in (Fraction(1, 2), Fraction(1, 8)):
        for m in range(-3, 4):
            for n in range(-3, 4):
                info = mixed_gap_coefficients(d, m, n)
                rows.append(
                    {
                        "d": str(Fraction(d)),
                        "m": m,
                        "n": n,
                        "mixed_coefficient": str(info["lhs"]),
                        "ladder_coefficient": str(info["ladder"]),
                        "identity_2d": info["identity"],
                        "closes": info["closes"],
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# relation reports


def _probe_pairs(
    space: Space,
    alpha: Scalar,
    interior_buffer: int,
    seed: int,
    samples: int,
    probe_level: int = 2,
) -> List[Tuple[str, TensorState, TensorState]]:
    """Deterministic interior probe pairs, then seeded basis samples.

    Charge grading makes a single pair blind to part of the commutator: on a
    same-sector pair every one-bilinear pairing vanishes, while a pair offset
    by one charge step sees only those.  The fixed list therefore mixes both,
    and the charge-step probe is a sum over chiral offsets so that every cell
    with |m + n| <= 2 pairs nonvacuously against the vacuum.
    """
    L = space.trunc.level_cutoff
    # a buffer above the cutoff leaves no probe interior, not even the vacuum
    _require_interior(space, TensorState.basis(0, (), ()), interior_buffer, "the vacuum probe")
    mult = charge_multiplier(space, alpha)
    level = min(probe_level, L - interior_buffer)
    if level < probe_level:
        named = (("current-pair", 1), ("split-pair", 2))
        dropped = [name for name, need in named if level < need <= probe_level]
        log.warning(
            "probe level %d lowered to %d (cutoff %d, buffer %d): dropped %s;"
            " charge-step and sample probes keep chiral levels <= %d",
            probe_level,
            level,
            L,
            interior_buffer,
            ", ".join(dropped),
            level,
        )
    js = list(space.trunc.interior_sectors(mult))
    if not js:
        raise ValueError("charge window too narrow for any interior sector")
    j0 = 0 if 0 in js else js[0]
    pairs: List[Tuple[str, TensorState, TensorState]] = []
    vac = TensorState.basis(j0, (), ())
    pairs.append(("vacuum-pair", vac, vac))
    if level >= 1:
        exc = TensorState.basis(j0, (1,), ())
        pairs.append(("current-pair", exc, exc))
    if level >= 2:
        pairs.append(
            ("split-pair", TensorState.basis(j0, (2,), (1,)), TensorState.basis(j0, (1,), ()))
        )
    if j0 + mult in js:
        offsets = [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,)), ((2,), ()), ((), (2,))]
        step = TensorState.zero()
        for left, right in offsets:
            if sum(left) <= level and sum(right) <= level:
                step = step.add(TensorState.basis(j0 + mult, left, right))
        pairs.append(("charge-step-pair", step, vac))
    rng = random.Random(seed)
    menu = [lam for lv in range(level + 1) for lam in partitions_of(lv)]
    repeats = []
    for s in range(samples):
        j1 = rng.choice(js)
        j2 = rng.choice([j for j in (j1 - mult, j1, j1 + mult) if j in js])
        phi1 = TensorState.basis(j1, rng.choice(menu), rng.choice(menu))
        phi2 = TensorState.basis(j2, rng.choice(menu), rng.choice(menu))
        same = [name for name, v, w in pairs if (v.entries, w.entries) == (phi1.entries, phi2.entries)]
        if same:
            repeats.append(f"sample-{s} = {same[0]}")
        pairs.append((f"sample-{s}", phi1, phi2))
    if repeats:
        log.warning("seeded probe samples repeat earlier pairs and check nothing new: %s", ", ".join(repeats))
    if j0 + mult not in js:
        crossing = [name for name, v, w in pairs if next(iter(v.entries))[0] != next(iter(w.entries))[0]]
        log.warning(
            "probe charge-step-pair dropped: sector %d, one charge step from sector %d, is not interior (%d..%d); %s",
            j0 + mult,
            j0,
            js[0],
            js[-1],
            f"only these pairs cross sectors: {', '.join(crossing)}"
            if crossing
            else "every remaining pair is same-sector, so the one-bilinear pieces are checked only where they vanish",
        )
    return pairs


def _residual_record(space: Space, gen_a, gen_b, probe: str, phi1, phi2, interior_buffer: int) -> dict:
    ctx = space.ctx
    parts = weak_commutator_parts(space, gen_a, gen_b, phi1, phi2, interior_buffer)
    ll_target, psi_target = commutator_targets(space, gen_a, gen_b, phi1, phi2)
    ll_residual = parts.ll - ll_target
    mixed_residual = parts.mixed - psi_target
    residual = ll_residual + mixed_residual + parts.psipsi
    ll_ok = ctx.is_zero(ll_residual)
    mixed_ok = ctx.is_zero(mixed_residual)
    if not (ll_ok and mixed_ok):
        verdict = "identity_failure"
    elif abs(complex(parts.psipsi)) <= parts.tail_budget + ctx.tolerance:
        verdict = "pass"
    else:
        verdict = "budget_exceeded"
    res_re, res_im = ctx.re_im(residual)
    record = {
        "family": gen_a.family,
        "m": gen_a.m,
        "n": gen_b.m,
        "lambda": ctx.json_real(ctx.re_im(gen_a.lam)[0]),
        "alpha": ctx.json_real(ctx.re_im(gen_a.alpha)[0]),
        "L": space.trunc.level_cutoff,
        "buffer": interior_buffer,
        "probe": probe,
        "residual_re": float(res_re),
        "residual_im": float(res_im),
        "tail_budget": parts.tail_budget,
        "ll_exact": ll_ok,
        "mixed_exact": mixed_ok,
        "verdict": verdict,
    }
    if gen_a.m + gen_b.m == 0 and gen_a.family == "virasoro_c0":
        off_re, off_im = ctx.re_im(ll_residual)
        record["central_offset_re"] = float(off_re)
        record["central_offset_im"] = float(off_im)
    return record


def _gap_record(space: Space, gen_a, gen_b, probe: str, phi1, phi2, interior_buffer: int) -> Tuple[dict, bool]:
    """A measured cross-term gap of the constant-coefficient family against
    its prediction ``lam (2d - 1) (m - n) <phi1, Psi_{m+n} phi2>``, and
    whether the gap vanishes."""
    ctx = space.ctx
    m, n, lam = gen_a.m, gen_b.m, gen_a.lam
    parts = weak_commutator_parts(space, gen_a, gen_b, phi1, phi2, interior_buffer)
    _ll_t, psi_t = commutator_targets(space, gen_a, gen_b, phi1, phi2)
    gap = parts.mixed - psi_t
    if ctx.is_zero(lam) or m == n:
        predicted = ctx.zero()
    else:
        # <phi1, Psi_{m+n} phi2>, which commutator_targets has just paired
        (pairing,) = _entry(space, gen_a, gen_b, phi1, phi2)["target_psi"]
        gap_scale = lam * (2 * conformal_weight(gen_a.alpha) - 1)
        predicted = gap_scale * ((m - n) * pairing)
    gap_re, gap_im = ctx.re_im(gap)
    pre_re, pre_im = ctx.re_im(predicted)
    row = {
        "m": m,
        "n": n,
        "probe": probe,
        "gap_re": float(gap_re),
        "gap_im": float(gap_im),
        "predicted_re": float(pre_re),
        "predicted_im": float(pre_im),
        "matches_prediction": ctx.is_zero(gap - predicted),
    }
    return row, ctx.is_zero(gap)


def _summarize(records: List[dict]) -> dict:
    id_fail = sum(1 for r in records if r["verdict"] == "identity_failure")
    over = sum(1 for r in records if r["verdict"] == "budget_exceeded")
    verdict = "identity_failure" if id_fail else ("budget_exceeded" if over else "pass")
    return {
        "records": len(records),
        "identity_failures": id_fail,
        "budget_exceeded": over,
        "max_abs_residual": max(
            (abs(complex(r["residual_re"], r["residual_im"])) for r in records),
            default=0.0,
        ),
        "max_tail_budget": max((r["tail_budget"] for r in records), default=0.0),
        "verdict": verdict,
    }


def _cells(m_range: int) -> List[Tuple[int, int]]:
    """The cells (m, n) with |m|, |n|, |m + n| <= m_range."""
    span = range(-m_range, m_range + 1)
    return [(m, n) for m, n in product(span, span) if abs(m + n) <= m_range]


def _family_sweep(name, space, family, alpha, lam, cells, buffer, record, **probe_args) -> list:
    """``record(space, gen_a, gen_b, probe, phi1, phi2, buffer)`` on each
    cell (m, n), gen_a and gen_b the family's members at m and n, and on each
    probe pair of :func:`_probe_pairs`, cells outermost.  Logs one INFO line
    on what the sweep computed and what it reused."""
    t0 = time.perf_counter()
    _REUSE.clear()
    pairs = _probe_pairs(space, alpha, buffer, **probe_args)
    records = []
    for m, n in cells:
        gen_a = PerturbedGenerator(family, m, lam, alpha)
        gen_b = PerturbedGenerator(family, n, lam, alpha)
        records += [record(space, gen_a, gen_b, probe, phi1, phi2, buffer) for probe, phi1, phi2 in pairs]
    log.info(
        "%s: %d records, %d of %d chiral applications computed,"
        " %d coupling-free pieces computed, %d reused, %.3f s",
        name,
        len(records),
        _REUSE["chiral_computed"],
        _REUSE["chiral_requested"],
        _REUSE["pieces_computed"],
        _REUSE["pieces_reused"],
        time.perf_counter() - t0,
    )
    return records


def verify_lorentz(
    space: Space,
    alpha: Scalar,
    lam: Scalar,
    interior_buffer: Optional[int] = None,
    seed: int = 0,
    samples: int = 2,
) -> dict:
    """Boost-family ladder relations over all nine (m, n) cells.

    Cross terms must cancel exactly; the bilinear/bilinear piece must stay
    inside its band-tail budget.  With ``lam`` zero every residual is exactly
    zero (the unperturbed generators close on the nose).
    """
    probe_level = 2
    if interior_buffer is None:
        interior_buffer = default_interior_buffer(1, probe_level)
    cells = list(product((-1, 0, 1), repeat=2))
    records = _family_sweep(
        "verify_lorentz", space, "lorentz", alpha, lam, cells, interior_buffer, _residual_record,
        seed=seed, samples=samples, probe_level=probe_level,
    )
    return {"family": "lorentz", "records": records, "summary": _summarize(records)}


def verify_virasoro_c0(
    space: Space,
    alpha: Scalar,
    lam: Scalar,
    m_range: int = 2,
    interior_buffer: Optional[int] = None,
    seed: int = 0,
    samples: int = 2,
) -> dict:
    """Chiral-difference family with imaginary coefficients: the ladder holds
    with no central term, cells limited to |m|, |n|, |m+n| <= m_range."""
    probe_level = 2
    if interior_buffer is None:
        interior_buffer = default_interior_buffer(m_range, probe_level)
    records = _family_sweep(
        "verify_virasoro_c0", space, "virasoro_c0", alpha, lam, _cells(m_range), interior_buffer,
        _residual_record, seed=seed, samples=samples, probe_level=probe_level,
    )
    coefficient_rows = []
    for m, n in product(range(-m_range, m_range + 1), repeat=2):
        lhs, rhs = virasoro_combination(conformal_weight(alpha), m, n)
        coefficient_rows.append({"m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs})
    return {
        "family": "virasoro_c0",
        "records": records,
        "coefficient_identity": coefficient_rows,
        "summary": _summarize(records),
    }


def explore_d_half(
    space: Space,
    alpha: Scalar,
    lam: Scalar,
    m_range: int = 2,
    n_bands: int = 48,
    interior_buffer: Optional[int] = None,
) -> dict:
    """Diagnostic for the constant-coefficient family.

    Measures the cross-term gap against the ladder target and compares it to
    the predicted ``lam (2d - 1) (m - n) <phi1, Psi_{m+n} phi2>``; tabulates
    the symbolic closure coefficients; reports band partial sums without
    asserting convergence (at weight 1/2 the band norms are constant).
    """
    ctx = space.ctx
    probe_level = 1
    if interior_buffer is None:
        interior_buffer = default_interior_buffer(m_range, probe_level)
    measured = _family_sweep(
        "explore_d_half", space, "d_half", alpha, lam, _cells(m_range), interior_buffer, _gap_record,
        seed=0, samples=0, probe_level=probe_level,
    )
    series = partial_sum_norm_series(ctx.abs_sq(alpha), 0, n_bands)
    band_rows = [
        {"band": band, "band_norm_sq": float(val), "partial_sum": float(total)}
        for band, val, total in series
    ]
    return {
        "family": "d_half",
        "weight": ctx.json_real(ctx.re_im(conformal_weight(alpha))[0]),
        "lambda": ctx.json_real(ctx.re_im(lam)[0]),
        "alpha": ctx.json_real(ctx.re_im(alpha)[0]),
        "L": space.trunc.level_cutoff,
        "buffer": interior_buffer,
        "measured_gap": [row for row, _ in measured],
        "closure_table": closure_table(),
        "band_partial_sums": band_rows,
        "closes_at_this_weight": all(vanishes for _, vanishes in measured),
    }
