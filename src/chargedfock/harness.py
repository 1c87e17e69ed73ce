"""Verification suites behind the command-line harness.

The verify-algebra suites run on one sweep engine, `_sweep`: a grid of cells
labelled like (m, n), each a lazy stream of checks on interior basis vectors
-- states far enough below the level cutoff that the identity under test is
unaffected by truncation.  It stops at the first failure, so a corrupted
coefficient is pinpointed by (m, n, sector, basis), and it reports a cell with
no interior states as a "vacuous interior" warning instead of a silent pass.

Each identity is checked as a matrix identity per sector and level, on the
operators' level matrices (see :mod:`chargedfock.fock`): a bracket
A B - B A - c R = 0 on the whole interior basis of one level at once, whose
nonzero columns are the failing basis vectors.  Every basis vector is still
computed and checked, and the engine sees its case in basis order, as if it
had been applied alone.  Exact modes compute in integers, in int64 only under
a certified bound; no pass rests on modular, probabilistic or float
arithmetic.

Reports are plain dicts of JSON-native values, deterministic for a fixed
configuration and seed: no timestamps, no unordered containers.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .desitter import PerturbedGenerator, chiral_sign
from .diagnostics import loglog_slope
from .fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    gram_matrix,
    graded_matrix,
    identity,
    nonzero,
    norm_sq,
    partitions_of,
    residual,
    stack_rows,
    value_row,
)
from .heisenberg import j_matrices
from .twodim import weak_psi_commutator
from .vertex import (
    apply_Y_mode,
    apply_Y_mode_recursive,
    charge_multiplier,
    conformal_weight,
    mode_index,
    truncated_mode_norm,
    vacuum_mode_norm_sq,
    y_matrices,
)
from .virasoro import central_term, l_matrices

__all__ = [
    "algebra_report",
    "current_bracket_suite",
    "virasoro_bracket_suite",
    "lorentz_closure_suite",
    "current_covariance_suite",
    "primary_covariance_suite",
    "mode_oracle_suite",
    "mode_adjoint_suite",
    "decay_report",
    "float_norm_series",
    "float_partial_rows",
    "commutativity_report",
    "divergence_series",
]


# ---------------------------------------------------------------------------
# the sweep engine and its interior bookkeeping


def _sweep(name: str, cases: Callable[..., Iterable], **labels: Iterable) -> dict:
    """Suite report over one cell per combination of the label values, the
    first label outermost.  `cases(*values)` lazily streams a cell's
    (where, holds) cases, where is read only from a failing case; the sweep
    stops at the first that fails."""
    checked = cells = vacuous = 0
    failure = None
    for values in product(*labels.values()):
        cells += 1
        seen = 0
        for where, holds in cases(*values):
            seen += 1
            if not holds:
                failure = {**dict(zip(labels, values)), **where}
                break
        checked += seen
        if failure is not None:
            break
        vacuous += seen == 0
    warnings = []
    if vacuous:
        warnings.append(
            f"{name}: vacuous interior for {vacuous} of {cells} cells at this cutoff"
        )
    if checked == 0 and failure is None:
        warnings.append(f"{name}: vacuous interior, no states checked")
    return {
        "suite": name,
        "states_checked": checked,
        "cells": cells,
        "vacuous_cells": vacuous,
        "warnings": warnings,
        "first_failure": failure,
        "status": "fail" if failure else "pass",
    }


def _sectors(space: Space, charge_shift: int = 0):
    """Sectors j with both j and j + charge_shift inside the window."""
    trunc = space.trunc
    return [
        j
        for j in range(trunc.j_min, trunc.j_max + 1)
        if trunc.admits_sector(j + charge_shift)
    ]


def _basis(j: int, levels: Iterable[int], sides: int = 1) -> list:
    """Keys (j, lam) of sector j's chiral basis states at `levels`, or with
    sides=2 (j, left, right) of its two-sided ones, both sides at `levels`."""
    chiral = [lam for level in levels for lam in partitions_of(level)]
    return [(j, *lams) for lams in product(chiral, repeat=sides)]


def _where(key) -> dict:
    """A basis key as failure labels: its sector and its partition(s)."""
    basis = [list(lam) for lam in key[1:]]
    return {"sector": key[0], "basis": basis[0] if len(basis) == 1 else basis}


def _failing_columns(space: Space, terms):
    """The columns of a residual that fail, as a set of indices."""
    bad = nonzero(space.ctx, residual(space.ctx, terms))
    return set(np.flatnonzero(bad.any(axis=0)).tolist()) if bad.any() else ()


def _bracket_sweep(name: str, space: Space, bracket, sectors, max_level, **ranges) -> dict:
    """Matrix identities on every cell's interior basis; each of the two label
    keywords r runs its label from -r to r.  `bracket(x, y)` gives a cell's
    headroom and its checks: `checks(j, levels)` streams (basis keys, residual
    terms) blocks, one column of the residual per key.  The cases come
    column by column, in basis order."""
    cap = space.trunc.level_cutoff if max_level is None else max_level

    def cases(x, y):
        headroom, checks = bracket(x, y)
        # interior levels: their states survive `headroom` extra levels of raising
        levels = range(min(space.trunc.level_cutoff - headroom, cap) + 1)
        if not levels:
            return
        for j in sectors:
            for keys, terms in checks(j, levels):
                failing = _failing_columns(space, terms)
                for col, key in enumerate(keys):
                    yield (_where(key), False) if col in failing else (None, True)

    return _sweep(name, cases, **{label: range(-r, r + 1) for label, r in ranges.items()})


class _Op(NamedTuple):
    """A chiral operator: `matrix(j, level)` from sector j at `level`, which it
    raises by `shift` and the sector by `jshift`."""

    matrix: Callable
    shift: int
    jshift: int = 0


_IDENTITY = _Op(lambda j, level: identity(len(partitions_of(level))), 0)


def _commutator(a: _Op, b: _Op, rhs):
    """Checks of a b - b a = sum of c R over `rhs(j)`, pairs (c, R), one
    block per sector and interior level."""

    def checks(j, levels):
        for level in levels:
            terms = [
                (1, ((a.matrix(j + b.jshift, level + b.shift), b.matrix(j, level)),)),
                (-1, ((b.matrix(j + a.jshift, level + a.shift), a.matrix(j, level)),)),
            ]
            terms += [(-c, ((r.matrix(j, level),),)) for c, r in rhs(j)]
            yield [(j, lam) for lam in partitions_of(level)], terms

    return checks


# ---------------------------------------------------------------------------
# exact identity suites (verify-algebra)


def current_bracket_suite(space: Space, m_range: int = 6, max_level: Optional[int] = None) -> dict:
    """[J_m, J_n] = m delta_{m,-n} on every interior basis vector."""
    J = lambda m: _Op(j_matrices(space, m), -m)  # noqa: E731

    def bracket(m, n):
        rhs = [(m, _IDENTITY)] if m + n == 0 else []
        return max(0, -m, -n, -m - n), _commutator(J(m), J(n), lambda j: rhs)

    ranges = {"m": m_range, "n": m_range}
    return _bracket_sweep("current_bracket", space, bracket, _sectors(space), max_level, **ranges)


def virasoro_bracket_suite(space: Space, m_range: int = 4, max_level: Optional[int] = None) -> dict:
    """[L_m, L_n] = (m-n) L_{m+n} + central(m, n) with unit central charge."""
    L = lambda m: _Op(l_matrices(space, m), -m)  # noqa: E731

    def bracket(m, n):
        rhs = [(c, r) for c, r in ((m - n, L(m + n)), (central_term(m, n), _IDENTITY)) if c]
        return max(0, -m, -n, -m - n), _commutator(L(m), L(n), lambda j: rhs)

    ranges = {"m": m_range, "n": m_range}
    return _bracket_sweep("virasoro_bracket", space, bracket, _sectors(space), max_level, **ranges)


def lorentz_closure_suite(space: Space, max_level: Optional[int] = 3) -> dict:
    """[G_m, G_n] = (m-n) G_{m+n} for the unperturbed two-sided generators
    G_m = L_m (x) 1 + s 1 (x) L_{-m}, with the sign s of
    :func:`~chargedfock.desitter.chiral_sign`.

    Each product of two generators expands by (A (x) B)(C (x) D) = AC (x) BD
    into Kronecker products of chiral chains on all levels up to two above the
    interior, applied to the interior basis.  When m = n the ladder
    coefficient vanishes, so G beyond |m| <= 1 is never needed inside this
    range.
    """
    base = PerturbedGenerator("lorentz", 0, space.ctx.zero(), space.alpha0)

    @lru_cache(maxsize=64)
    def L(j, n, top):
        return graded_matrix(partial(l_matrices(space, n), j), -n, top)

    def G(j, m, top):
        """G_m as (sign, left factors, right factors) terms."""
        return [(1, (L(j, m, top),), ()), (chiral_sign(base.at(m)), (), (L(j, -m, top),))]

    def bracket(m, n):
        def checks(j, levels):
            top = levels[-1] + 2
            interior = identity(_chiral_dim(top), _chiral_dim(levels[-1]))
            terms = []
            for c, x, y in ((1, m, n), (-1, n, m)):
                for (s1, l1, r1), (s2, l2, r2) in product(G(j, x, top), G(j, y, top)):
                    terms.append((c * s1 * s2, (l1 + l2 + (interior,), r1 + r2 + (interior,))))
            if m != n:
                terms += [(-(m - n) * s, (l + (interior,), r + (interior,))) for s, l, r in G(j, m + n, top)]
            yield _basis(j, levels, 2), terms

        return 2, checks

    return _bracket_sweep("lorentz_closure", space, bracket, _sectors(space), max_level, m=1, n=1)


def _chiral_dim(top: int) -> int:
    return sum(len(partitions_of(level)) for level in range(top + 1))


def _covariance_sweep(name, space, alpha, op_matrices, coefficient, m_range, delta_range, max_level) -> dict:
    """[op_m, Y_delta] = coefficient(m, s) Y_{delta-m}, with s the mode index of
    Y_delta out of the source sector."""
    mult = charge_multiplier(space, alpha)
    sectors = _sectors(space, mult)
    Y = lambda delta: _Op(y_matrices(alpha, delta), delta, mult)  # noqa: E731

    def bracket(m, delta):
        lowered = Y(delta - m)
        rhs = {j: [(coefficient(m, mode_index(space, alpha, j, delta)), lowered)] for j in sectors}
        op = _Op(op_matrices(space, m), -m)
        return max(0, delta, -m, delta - m), _commutator(op, Y(delta), rhs.__getitem__)

    ranges = {"m": m_range, "delta": delta_range}
    return _bracket_sweep(name, space, bracket, sectors, max_level, **ranges)


def current_covariance_suite(
    space: Space,
    alpha,
    m_range: int = 3,
    delta_range: int = 3,
    max_level: Optional[int] = None,
) -> dict:
    """[J_m, Y_delta] = alpha Y_{delta-m} on interior basis vectors."""
    coefficient = lambda m, s: alpha  # noqa: E731
    args = (m_range, delta_range, max_level)
    return _covariance_sweep("current_covariance", space, alpha, j_matrices, coefficient, *args)


def primary_covariance_suite(
    space: Space,
    alpha,
    m_range: int = 3,
    delta_range: int = 3,
    max_level: Optional[int] = None,
) -> dict:
    """[L_m, Y_delta] = ((d-1)m - s) Y_{delta-m}, with s the real mode index
    of the shift-delta mode out of the source sector."""
    d = conformal_weight(alpha)
    coefficient = lambda m, s: (d - 1) * m - s  # noqa: E731
    args = (m_range, delta_range, max_level)
    return _covariance_sweep("primary_covariance", space, alpha, l_matrices, coefficient, *args)


def mode_oracle_suite(
    space: Space,
    alpha,
    sectors: Sequence[int] = (0, 1),
    max_level: int = 8,
) -> dict:
    """Expansion route against the commutator-recursion oracle, every matrix
    element between basis states of level <= max_level: each column of the
    mode's level matrix against the oracle's state on that basis vector."""
    admitted = _sectors(space, charge_multiplier(space, alpha))
    top = min(max_level, space.trunc.level_cutoff)

    def cases(j, delta):
        levels = range(max(0, -delta), top - max(0, delta) + 1) if j in admitted else ()
        for level in levels:
            lams = partitions_of(level)
            oracle = [apply_Y_mode_recursive(space, alpha, delta, SectorState.basis(j, lam)) for lam in lams]
            rows = [value_row(level + delta, {mu: c for (_, mu), c in v.entries.items()}) for v in oracle]
            terms = [(1, ((y_matrices(alpha, delta)(j, level),),)), (-1, ((stack_rows(rows, level + delta),),))]
            failing = _failing_columns(space, terms)
            for col, lam in enumerate(lams):
                yield (_where((j, lam)), False) if col in failing else (None, True)

    return _sweep("mode_oracle_equivalence", cases, sector=sectors, delta=range(-top, top + 1))


def mode_adjoint_suite(
    space: Space,
    alpha,
    delta_range: int = 4,
    max_level: int = 4,
) -> dict:
    """<Y_{alpha,delta} v, w> = <v, Y_{-alpha,-delta} w> on basis pairs: with
    Z the diagonal Gram weights and real charges, the matrix identity
    Z_t Y_{alpha,delta} = Y_{-alpha,-delta}^T Z_s, entry (w, v) per pair."""
    mult = charge_multiplier(space, alpha)
    top = min(max_level, space.trunc.level_cutoff)

    def cases(delta):
        for j, level in product(_sectors(space, mult), range(max(0, -delta), top + 1)):
            if not space.trunc.admits_level(level + delta):
                continue
            forward = (gram_matrix(level + delta), y_matrices(alpha, delta)(j, level))
            backward = (y_matrices(-alpha, -delta)(j + mult, level + delta).T, gram_matrix(level))
            failing = nonzero(space.ctx, residual(space.ctx, [(1, (forward,)), (-1, (backward,))]))
            mus = partitions_of(level + delta)
            for col, lam in enumerate(partitions_of(level)):
                for row, mu in enumerate(mus):
                    if failing[row, col]:
                        yield {**_where((j, lam)), "target": list(mu)}, False
                    else:
                        yield None, True

    return _sweep("mode_adjoint", cases, delta=range(-delta_range, delta_range + 1))


def algebra_report(space: Space, alpha) -> dict:
    """All exact-identity suites in one report; verdict 'identity_failure'
    if any suite pinpointed a failing cell."""
    suites = [
        current_bracket_suite(space),
        virasoro_bracket_suite(space),
        lorentz_closure_suite(space),
        current_covariance_suite(space, alpha),
        primary_covariance_suite(space, alpha),
        mode_oracle_suite(space, alpha),
        mode_adjoint_suite(space, alpha),
    ]
    failed = [s for s in suites if s["status"] == "fail"]
    return {
        "suites": suites,
        "warnings": [w for s in suites for w in s["warnings"]],
        "failed_suite": failed[0]["suite"] if failed else None,
        "first_failure": failed[0]["first_failure"] if failed else None,
        "verdict": "identity_failure" if failed else "pass",
    }


# ---------------------------------------------------------------------------
# decay of vacuum mode norms (verify-decay)


def float_norm_series(alpha_sq: float, n_max: int) -> List[float]:
    """Closed-form squared norms by the recurrence r_{n+1} = r_n (a+n)/(n+1).

    Entry n is the squared norm of the level-raising-n mode on a vacuum; the
    incremental form never materializes the huge factorials that overflow a
    direct float evaluation past n ~ 170.
    """
    out = [1.0]
    r = 1.0
    for n in range(n_max):
        r = r * (alpha_sq + n) / (n + 1)
        out.append(r)
    return out


# verify-decay's fixed settings: the n window of the slope fit and its tolerance
# against 2d - 1; the mode blocks' shift range and level cap, and their norm
# bound 1 with float slack
SLOPE_WINDOW = (64, 512)
SLOPE_TOLERANCE = 0.05
BLOCK_DELTA_RANGE = 6
BLOCK_LEVEL = 8
BLOCK_BOUND = 1.0 + 1e-9


def decay_report(space: Space, alpha, n_max: int = 512) -> dict:
    """Vacuum-norm decay: exact dual-route table, asymptotic slope fit, and
    truncated mode-block norm bounds.

    The exact table compares the gram norm of the mode applied to the vacuum
    against the closed-form binomial for n up to min(cutoff, 30).  The slope
    section fits log-value against log-n over :data:`SLOPE_WINDOW` on the
    closed-form series and compares to 2d - 1.  The block section bounds the
    operator norm of each truncated mode block by 1 (within float slack), at
    the configured charge and at charge 1; that bound holds for |alpha| <= 1,
    so a larger charge is refused.
    """
    ctx = space.ctx
    if ctx.abs_sq(alpha) > 1:
        raise ValueError(
            f"verify-decay bounds mode blocks by 1, which needs |alpha| <= 1; "
            f"got alpha^2 = {ctx.json_real(ctx.abs_sq(alpha))}"
        )
    d = conformal_weight(alpha)
    mult = charge_multiplier(space, alpha)
    warnings: List[str] = []

    exact_rows = []
    exact_ok = True
    if space.trunc.admits_sector(mult):
        vac = SectorState.basis(0, ())
        for n in range(min(space.trunc.level_cutoff, 30, n_max) + 1):
            computed = norm_sq(ctx, apply_Y_mode(space, alpha, n, vac))
            closed = vacuum_mode_norm_sq(alpha, n)
            equal = ctx.is_zero(computed - closed)
            exact_ok = exact_ok and equal
            exact_rows.append(
                {
                    "n": n,
                    "computed": ctx.json_real(ctx.re_im(computed)[0]),
                    "closed_form": ctx.json_real(ctx.re_im(closed)[0]),
                    "equal": equal,
                }
            )
    else:
        warnings.append("decay: charge window omits the shifted sector, exact table vacuous")

    alpha_sq = float(ctx.abs_sq(alpha))
    series = float_norm_series(alpha_sq, n_max)
    lo, hi = SLOPE_WINDOW
    hi = min(hi, n_max)
    expected_slope = 2.0 * float(ctx.re_im(d)[0]) - 1.0
    slope_section: dict = {
        "n_max": n_max,
        "window": [lo, hi],
        "expected": expected_slope,
        "tolerance": SLOPE_TOLERANCE,
    }
    points = [(n, series[n]) for n in range(1, n_max + 1) if series[n] > 0.0]
    if hi - lo >= 2 and len(points) >= 3:
        fitted = loglog_slope(points, (lo, hi))
        slope_section["fitted"] = fitted
        slope_section["ok"] = abs(fitted - expected_slope) <= SLOPE_TOLERANCE
    else:
        slope_section["fitted"] = None
        slope_section["ok"] = False
        warnings.append("decay: slope window too small for a fit")

    block_L = min(BLOCK_LEVEL, space.trunc.level_cutoff)
    block_space = Space(ctx, space.alpha0, Truncation(block_L, space.trunc.j_min, space.trunc.j_max))
    block_rows = []
    blocks_ok = True
    charges = (alpha,) if alpha == ctx.one() else (alpha, ctx.one())
    for alpha_k in charges:
        for delta in range(-BLOCK_DELTA_RANGE, BLOCK_DELTA_RANGE + 1):
            nrm = truncated_mode_norm(block_space, alpha_k, delta, seed=0)
            ok = nrm <= BLOCK_BOUND
            blocks_ok = blocks_ok and ok
            block_rows.append(
                {
                    "alpha": ctx.json_real(ctx.re_im(alpha_k)[0]),
                    "delta": delta,
                    "norm": nrm,
                    "ok": ok,
                }
            )

    if not exact_ok or not blocks_ok:
        verdict = "identity_failure"
    elif not slope_section["ok"]:
        verdict = "budget_exceeded"
    else:
        verdict = "pass"
    return {
        "weight": ctx.json_real(ctx.re_im(d)[0]),
        "alpha": ctx.json_real(ctx.re_im(alpha)[0]),
        "exact_table": exact_rows,
        "exact_ok": exact_ok,
        "slope": slope_section,
        "block_norms": {
            "L": block_L,
            "bound": BLOCK_BOUND,
            "rows": block_rows,
            "ok": blocks_ok,
        },
        "warnings": warnings,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# weak commutativity of the symmetrized time-zero modes (verify-commutativity)


def _commutativity_probes(space: Space, seed: int, samples: int):
    """Bra/ket pairs for the bilinear pairing checks.

    Two single-mode applications pair sectors with charge difference in
    {0, -2, +2} (each side shifts by one step), so the probe list mixes
    same-sector pairs with a two-step transfer pair; extra pairs are sampled
    with the run seed.
    """
    trunc = space.trunc
    inner_sectors = [j for j in range(trunc.j_min + 1, trunc.j_max) if trunc.admits_sector(j)]
    if not inner_sectors:
        return []
    j0 = 0 if 0 in inner_sectors else inner_sectors[0]
    L = trunc.level_cutoff
    probes = [("level-one", TensorState.basis(j0, (1,), ()), TensorState.basis(j0, (1,), ()))]
    if L >= 2:
        probes.append(
            ("split", TensorState.basis(j0, (2,), (1,)), TensorState.basis(j0, (1,), ()))
        )
    if j0 + 1 in inner_sectors and j0 - 1 in inner_sectors:
        probes.append(
            (
                "charge-transfer",
                TensorState.basis(j0 + 1, (1,), ()),
                TensorState.basis(j0 - 1, (), ()),
            )
        )
    rng = random.Random(seed)
    pool = [(), (1,), (2,), (1, 1)]
    for k in range(samples):
        j1 = rng.choice(inner_sectors)
        j2 = j1 - rng.choice([-2, 0, 2])
        if j2 not in inner_sectors:
            j2 = j1
        pick = lambda: rng.choice(pool)  # noqa: E731
        phi1 = TensorState.basis(j1, pick(), pick())
        phi2 = TensorState.basis(j2, pick(), pick())
        probes.append((f"sampled-{k}", phi1, phi2))
    return probes


def commutativity_report(
    space: Space,
    alpha,
    m_range: int = 2,
    seed: int = 0,
    samples: int = 2,
    low_cutoff: int = 8,
) -> dict:
    """Weak commutators of the symmetrized modes on vacuum and excited pairs.

    Vacuum cells are reported with an exactness flag (empirically the
    symmetric truncation cancels them identically, not just within budget).
    Excited pairs are evaluated at an escalating pair of cutoffs to show the
    residual shrinking as the window grows.
    """
    ctx = space.ctx
    L = space.trunc.level_cutoff
    vac = TensorState.basis(0, (), ())
    vacuum_rows = []
    all_exact = True
    max_abs = 0.0
    vacuum_ok = True
    for m in range(-m_range, m_range + 1):
        for n in range(-m_range, m_range + 1):
            value, budget = weak_psi_commutator(space, alpha, m, n, vac, vac)
            re, im = ctx.re_im(value)
            mag = abs(ctx.to_complex(value))
            exact = ctx.is_zero(value)
            all_exact = all_exact and exact
            max_abs = max(max_abs, mag)
            ok = mag <= budget + ctx.tolerance
            vacuum_ok = vacuum_ok and ok
            vacuum_rows.append(
                {
                    "m": m,
                    "n": n,
                    "residual_re": float(re),
                    "residual_im": float(im),
                    "budget": budget,
                    "exact_zero": exact,
                    "verdict": "pass" if ok else "budget_exceeded",
                }
            )

    cutoffs = sorted({min(low_cutoff, L), L})
    cells = [(1, 0), (2, -1), (1, -1)]
    cells = [(m, n) for m, n in cells if abs(m) <= m_range and abs(n) <= m_range]
    excited_rows = []
    nonincreasing = True
    shrank = False
    any_nonzero_low = False
    for probe, phi1, phi2 in _commutativity_probes(space, seed, samples):
        for m, n in cells:
            by_cutoff = {}
            for Lk in cutoffs:
                sp_k = Space(ctx, space.alpha0, Truncation(Lk, space.trunc.j_min, space.trunc.j_max))
                value, budget = weak_psi_commutator(sp_k, alpha, m, n, phi1, phi2)
                mag = abs(ctx.to_complex(value))
                by_cutoff[Lk] = mag
                excited_rows.append(
                    {
                        "probe": probe,
                        "m": m,
                        "n": n,
                        "L": Lk,
                        "residual_abs": mag,
                        "budget": budget,
                    }
                )
            if len(cutoffs) == 2:
                low, high = by_cutoff[cutoffs[0]], by_cutoff[cutoffs[1]]
                if high > low + ctx.tolerance:
                    nonincreasing = False
                if low > ctx.tolerance:
                    any_nonzero_low = True
                    if high < low:
                        shrank = True
                    else:
                        nonincreasing = False
    excited_ok = nonincreasing and (shrank or not any_nonzero_low)
    verdict = "pass" if (vacuum_ok and excited_ok) else "budget_exceeded"
    return {
        "alpha": ctx.json_real(ctx.re_im(alpha)[0]),
        "L": L,
        "vacuum": {
            "rows": vacuum_rows,
            "all_exact_zero": all_exact,
            "max_abs_residual": max_abs,
            "ok": vacuum_ok,
        },
        "excited": {
            "cutoffs": cutoffs,
            "rows": excited_rows,
            "nonincreasing": nonincreasing,
            "strictly_shrank": shrank,
            "ok": excited_ok,
        },
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# partial-sum studies (converge / diverge-demo)


def float_partial_rows(alpha_sq: float, m: int, n_bands: int) -> List[Tuple[int, float, float]]:
    """Float twin of the exact band/partial-sum series, via the recurrence.

    Same row shape (band, band_norm_sq, partial_sum); bands start at
    max(0, -m) so both factors of each product are vacuum-supported.
    """
    start = max(0, -m)
    top = start + n_bands - 1 + max(0, m)
    norms = float_norm_series(alpha_sq, max(top, 0))
    rows = []
    total = 0.0
    for band in range(start, start + n_bands):
        val = norms[band] * norms[band + m]
        total += val
        rows.append((band, val, total))
    return rows


def divergence_series(n_max: int = 512) -> List[Tuple[int, float, float]]:
    """Vacuum partial sums at squared charge 1/2, the non-summable boundary.

    Band n contributes r_n^2 ~ 1/(pi n), so S_N grows like log N; rows are
    (N, S_N, S_N - S_{N/2}) for N a power of two, and the increment column
    settles near log(2)/pi instead of shrinking.
    """
    norms = float_norm_series(0.5, n_max)
    sums = []
    total = 0.0
    for r in norms:
        total += r * r
        sums.append(total)
    rows = []
    n = 2
    while n <= n_max:
        rows.append((n, sums[n], sums[n] - sums[n // 2]))
        n *= 2
    return rows
