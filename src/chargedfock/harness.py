"""Verification suites behind the command-line harness.

The verify-algebra suites run on one sweep engine, `_sweep`: a grid of cells
labelled like (m, n), each computed whole into blocks of checks on interior
basis vectors -- states far enough below the level cutoff that the identity
under test is unaffected by truncation.  It stops at the first failure, so a
corrupted coefficient is pinpointed by (m, n, sector, basis), and it reports
a cell with no interior states as a "vacuous interior" warning instead of a
silent pass.  Each suite's label ranges and level caps are fixed.

Each identity is checked as a matrix identity per level on the operators'
level stacks (see :mod:`chargedfock.fock`), whose leading axis runs over the
sectors, or which are one plane for every sector: every suite computes one
batched residual per cell and level (the Lorentz closure's levels form one
graded block), such as a bracket
A B - B A - c R = 0 on the whole interior basis of one level in every admitted
sector, whose nonzero (sector, column) pairs are the failing basis vectors.  Each
coefficient is a scalar; a sector's charge enters as J_0, which is that charge
on the sector.  Every basis vector is still computed and checked.  A cell that
passes counts all its states at once; a cell with a failure is replayed in
(sector, level, basis) order, so the first failure and the states checked
before it are those of a sweep one basis vector at a time.  Exact modes
compute in integers modulo 2**64, and modulo primes as well where a certified
bound on the residual passes 2**64, so that each zero is exact by the Chinese
remainder theorem; no exact check is probabilistic or rests on float
arithmetic.

The two bracket suites compute one residual for each pair of mirrored
cells: when the right-hand side of cell (n, m) is the negation of that of
(m, n), its residual is the other's times -1, term for term, so it fails the
same columns modulo every modulus and in float64, where fl(y - x) =
-fl(x - y) (see :func:`_commutator`).

Reports are plain dicts of JSON-native values, deterministic for a fixed
configuration and seed: no timestamps, no unordered containers.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import random
import sys
import time
import traceback
from collections import Counter
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .desitter import PerturbedGenerator, chiral_sign
from .diagnostics import loglog_slope
from .fock import (
    STACKS,
    SectorState,
    Space,
    TensorState,
    Truncation,
    charge_key,
    gram_matrix,
    graded_matrix,
    identity,
    norm_sq,
    partitions_of,
    residual,
    row_matrix,
)
from .heisenberg import j_matrices
from .twodim import COUNTS, IMAGES, partial_sum_norm_series, tail_fit, vacuum_norm_series, weak_psi_commutator
from .vertex import (
    apply_Y_mode,
    charge_multiplier,
    conformal_weight,
    recursive_row,
    truncated_mode_norm,
    vacuum_mode_norm_sq,
    y_matrices,
)
from .virasoro import central_term, l_matrices

log = logging.getLogger(__name__)

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
    "commutativity_report",
    "divergence_series",
]


# ---------------------------------------------------------------------------
# the sweep engine and its interior bookkeeping

# residuals computed in the running sweep, those of them that needed primes and
# the most one needed, and masks taken from mirrored cells or from a
# sector-free plane already checked instead
_RESIDUALS = Counter()


def _sweep(name: str, cell: Callable, **labels: Iterable) -> dict:
    """Suite report over one cell per combination of the label values, the
    first label outermost.  `cell(*values)` gives the cell's sectors and its
    computed blocks (where, bad): bad[s, k] marks the k-th state of the s-th
    sector failing, and where(j, k) labels it.  A cell with a failure is
    replayed in (sector, block, state) order, and the sweep stops at its
    first failing state.  It logs, at INFO, its states checked, its batched
    residuals, how many needed a prime and the most primes one needed, how
    many residuals it reused from mirrored cells, how many masks it reused
    from a sector-free plane when it did, and its seconds."""
    _RESIDUALS.clear()
    t0 = time.perf_counter()
    checked = cells = vacuous = 0
    failure = None
    for values in product(*labels.values()):
        cells += 1
        sectors, blocks = cell(*values)
        seen = 0
        if any(bad.any() for _, bad in blocks):
            for s, j in enumerate(sectors):
                for where, bad in blocks:
                    hits = np.flatnonzero(np.broadcast_to(bad, (len(sectors), bad.shape[-1]))[s])
                    if hits.size:
                        k = int(hits[0])
                        seen += k + 1
                        failure = {**dict(zip(labels, values)), **where(j, k)}
                        break
                    seen += bad.shape[-1]
                if failure is not None:
                    break
        else:
            seen = len(sectors) * sum(bad.shape[-1] for _, bad in blocks)
        checked += seen
        if failure is not None:
            break
        vacuous += seen == 0
    log.info(
        "%s: %d states checked, %d batched residuals, %d needed primes (at most %d), %d reused from mirrored"
        " cells%s, %.3f s",
        name,
        checked,
        _RESIDUALS["batched"],
        _RESIDUALS["primed"],
        _RESIDUALS["most_primes"],
        _RESIDUALS["mirrored"],
        f", {_RESIDUALS['planes']} masks reused from sector-free planes" if _RESIDUALS["planes"] else "",
        time.perf_counter() - t0,
    )
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


def _sectors(space: Space, charge_shift: int = 0) -> range:
    """Sectors j with both j and j + charge_shift inside the window."""
    trunc = space.trunc
    return range(max(trunc.j_min, trunc.j_min - charge_shift), min(trunc.j_max, trunc.j_max - charge_shift) + 1)


def _positions(space: Space, sectors: range) -> range:
    """The window positions of a run of sectors: their slice of a stack."""
    return range(sectors.start - space.trunc.j_min, sectors.stop - space.trunc.j_min)


def _column_where(level: int, j: int, col: int) -> dict:
    """The failure labels of a chiral basis state: its sector and partition."""
    return {"sector": j, "basis": list(partitions_of(level)[col])}


def _nonzero(space: Space, terms) -> np.ndarray:
    """Where a residual fails, entry by entry, on every sector of its stack."""
    bad, primes = residual(space.ctx, terms)
    _RESIDUALS["batched"] += 1
    if primes:
        _RESIDUALS["primed"] += 1
        _RESIDUALS["most_primes"] = max(_RESIDUALS["most_primes"], primes)
    return bad


def _bracket_sweep(name: str, space: Space, bracket, sectors, **labels) -> dict:
    """Matrix identities on every cell's interior basis, on all `sectors` at
    once, one cell per combination of the `labels` ranges.  `bracket(x, y)`
    gives a cell's headroom and its checks: `checks(rows, levels)` gives the
    blocks of :func:`_sweep` on the window positions `rows`."""
    rows = _positions(space, sectors)

    def cell(x, y):
        headroom, checks = bracket(x, y)
        # interior levels: their states survive `headroom` extra levels of raising
        levels = range(space.trunc.level_cutoff - headroom + 1)
        return sectors, list(checks(rows, levels)) if levels and sectors else []

    return _sweep(name, cell, **labels)


class _Op(NamedTuple):
    """A chiral operator: `stack(level)` from every sector of the window at
    `level`, which it raises by `shift` and the sector by `jshift`."""

    stack: Callable
    shift: int
    jshift: int = 0

    def at(self, rows: range, level: int, jshift: int = 0):
        """The stack at `level` on the window positions `rows` moved by `jshift`."""
        return self.stack(level).sectors(rows.start + jshift, rows.stop + jshift)


_IDENTITY = _Op(lambda level: identity(len(partitions_of(level))), 0)


def _commutator(space: Space, a: _Op, b: _Op, rhs, mirrors: Optional[dict] = None):
    """Checks, one block per interior level, of a b - b a = sum over `rhs` of
    c R_1 R_2 ..., scalars c and chains whose factors after the first keep
    level and sector, as J_0 does: all are sliced at the cell's level and rows.

    A level whose output level lies below 0 has an empty residual: its
    states pass without one.  A product x y whose intermediate level, the
    level plus y's shift, lies below 0 passes through the empty basis, so it
    is 0 in every modulus and in float64: the residual drops the term
    without building its stacks.  With `mirrors`, one dict per sweep, each
    level's failing-column mask is kept under (a, b, rhs, level) until the
    mirror cell (b, a, -rhs) takes it in place of its own residual.  The key
    compares the operators' stacks and the coefficients' values, so a
    right-hand side that is not the mirror's negation is computed in full."""

    def checks(rows, levels):
        for level in levels:
            if level + a.shift + b.shift < 0:
                yield partial(_column_where, level), np.zeros((len(rows), len(partitions_of(level))), bool)
                continue
            bad = None if mirrors is None else mirrors.pop((b, a, tuple((-c, r) for c, r in rhs), level), None)
            if bad is not None:
                _RESIDUALS["mirrored"] += 1
            else:
                terms = [(c, ((x.at(rows, level + y.shift, y.jshift), y.at(rows, level)),))
                         for c, x, y in ((1, a, b), (-1, b, a)) if level + y.shift >= 0]
                terms += [(-c, (tuple(r.at(rows, level) for r in chain),)) for c, chain in rhs]
                bad = _nonzero(space, terms).any(axis=-2)
                if mirrors is not None:
                    mirrors[a, b, tuple(rhs), level] = bad
            yield partial(_column_where, level), bad

    return checks


# ---------------------------------------------------------------------------
# exact identity suites (verify-algebra)


def current_bracket_suite(space: Space) -> dict:
    """[J_m, J_n] = m delta_{m,-n} on every interior basis vector, |m|, |n| <= 6."""
    J = lambda m: _Op(j_matrices(space, m), -m)  # noqa: E731
    mirrors = {}

    def bracket(m, n):
        rhs = [(m, (_IDENTITY,))] if m + n == 0 else []
        return max(0, -m, -n, -m - n), _commutator(space, J(m), J(n), rhs, mirrors)

    return _bracket_sweep("current_bracket", space, bracket, _sectors(space), m=range(-6, 7), n=range(-6, 7))


def virasoro_bracket_suite(space: Space) -> dict:
    """[L_m, L_n] = (m-n) L_{m+n} + central(m, n) with unit central charge,
    |m|, |n| <= 4."""
    L = lambda m: _Op(l_matrices(space, m), -m)  # noqa: E731
    mirrors = {}

    def bracket(m, n):
        rhs = [(c, (r,)) for c, r in ((m - n, L(m + n)), (central_term(m, n), _IDENTITY)) if c]
        return max(0, -m, -n, -m - n), _commutator(space, L(m), L(n), rhs, mirrors)

    return _bracket_sweep("virasoro_bracket", space, bracket, _sectors(space), m=range(-4, 5), n=range(-4, 5))


def lorentz_closure_suite(space: Space) -> dict:
    """[G_m, G_n] = (m-n) G_{m+n} for the unperturbed two-sided generators
    G_m = L_m (x) 1 + s 1 (x) L_{-m}, with the sign s of
    :func:`~chargedfock.desitter.chiral_sign`, |m|, |n| <= 1, on two-sided
    basis states of chiral levels up to 3, in every sector of the window.

    Each product of two generators expands by (A (x) B)(C (x) D) = AC (x) BD
    into Kronecker products of chiral chains on all levels up to two above the
    interior, applied to the interior basis, in one batched residual per cell
    over the window's sectors.  The residual sums the left factors of terms
    that share a right chain first, so the cross terms, which cancel, cost no
    Kronecker product, and sums the remaining Kronecker products as one
    matrix product per sector plane (see :func:`~chargedfock.fock._failing`).
    When m = n the ladder coefficient vanishes, so G beyond |m| <= 1 is never
    needed inside this range.
    """
    base = PerturbedGenerator("lorentz", 0, space.ctx.zero(), space.alpha0)

    # cached, so that equal right chains are the same objects
    @lru_cache(maxsize=64)
    def L(n, top):
        return graded_matrix(l_matrices(space, n), -n, top)

    def G(m, top):
        """G_m as (sign, left factors, right factors) terms."""
        return [(1, (L(m, top),), ()), (chiral_sign(base.at(m)), (), (L(-m, top),))]

    def bracket(m, n):
        def checks(rows, levels):
            top = levels[-1] + 2
            interior = identity(_chiral_dim(top), _chiral_dim(levels[-1]))
            terms = []
            for c, x, y in ((1, m, n), (-1, n, m)):
                for (s1, l1, r1), (s2, l2, r2) in product(G(x, top), G(y, top)):
                    terms.append((c * s1 * s2, (l1 + l2 + (interior,), r1 + r2 + (interior,))))
            if m != n:
                terms += [(-(m - n) * g, (l + (interior,), r + (interior,))) for g, l, r in G(m + n, top)]
            yield partial(_pair_where, levels), _nonzero(space, terms).any(axis=-2)

        # two levels of headroom, and the interior capped at level 3
        return max(2, space.trunc.level_cutoff - 3), checks

    return _bracket_sweep("lorentz_closure", space, bracket, _sectors(space), m=range(-1, 2), n=range(-1, 2))


def _chiral_dim(top: int) -> int:
    return sum(len(partitions_of(level)) for level in range(top + 1))


def _pair_where(levels, j: int, k: int) -> dict:
    """The failure labels of the k-th two-sided basis state at `levels`."""
    chiral = [lam for level in levels for lam in partitions_of(level)]
    left, right = divmod(k, len(chiral))
    return {"sector": j, "basis": [list(chiral[left]), list(chiral[right])]}


def _covariance_sweep(name, space, alpha, op_matrices, coefficient) -> dict:
    """[op_m, Y_delta] = c Y_{delta-m} + c_J Y_{delta-m} J_0, |m|, |delta| <= 3,
    (c, c_J) = coefficient(m, delta): J_0, applied first, is the source
    sector's charge.  A zero scalar drops its term."""
    mult = charge_multiplier(space, alpha)
    sectors = _sectors(space, mult)
    Y = lambda delta: _Op(y_matrices(space, alpha, delta), delta, mult)  # noqa: E731
    J0 = _Op(j_matrices(space, 0), 0)

    def bracket(m, delta):
        c, c_J = coefficient(m, delta)
        rhs = [(x, chain) for x, chain in ((c, (Y(delta - m),)), (c_J, (Y(delta - m), J0))) if x]
        return max(0, delta, -m, delta - m), _commutator(space, _Op(op_matrices(space, m), -m), Y(delta), rhs)

    return _bracket_sweep(name, space, bracket, sectors, m=range(-3, 4), delta=range(-3, 4))


def current_covariance_suite(space: Space, alpha) -> dict:
    """[J_m, Y_delta] = alpha Y_{delta-m} on interior basis vectors."""
    coefficient = lambda m, delta: (alpha, 0)  # noqa: E731
    return _covariance_sweep("current_covariance", space, alpha, j_matrices, coefficient)


def primary_covariance_suite(space: Space, alpha) -> dict:
    """[L_m, Y_delta] = ((d-1)m - s) Y_{delta-m}, s = -alpha beta - d - delta the
    mode index out of a source sector of charge beta: ((d-1)m + d + delta)
    Y_{delta-m} + alpha Y_{delta-m} J_0 on every sector."""
    d = conformal_weight(alpha)
    coefficient = lambda m, delta: ((d - 1) * m + d + delta, alpha)  # noqa: E731
    return _covariance_sweep("primary_covariance", space, alpha, l_matrices, coefficient)


def mode_oracle_suite(space: Space, alpha) -> dict:
    """Expansion route against the commutator-recursion oracle in sectors 0
    and 1, every matrix element between basis states of level <= 8: each
    column of the mode's level matrix against the oracle's row on that basis
    vector, the recursion's integers F over q**(len(mu) + len(lam)) zsym(mu)
    (see :func:`~chargedfock.vertex.recursive_row`).  The oracle's matrix
    elements take no sector, so each (delta, level) oracle stack is built
    once and compared with each sector's plane of the mode's stack.  A stack
    that is one plane, no sector axis, gives sector 1 the very plane that
    sector 0 checked, whose failing columns it reuses; a stack with a sector
    axis is checked in each sector."""
    admitted = _sectors(space, charge_multiplier(space, alpha))
    top = min(8, space.trunc.level_cutoff)
    key = charge_key(alpha)
    checked = {}  # (delta, level) -> (the plane checked, its failing columns)

    @lru_cache(maxsize=None)
    def oracle(delta, level):
        return row_matrix([recursive_row(key, delta, lam) for lam in partitions_of(level)], level + delta)

    def cell(j, delta):
        if j not in admitted:
            return (), []
        Y, rows = _Op(y_matrices(space, alpha, delta), delta), _positions(space, range(j, j + 1))
        blocks = []
        for level in range(max(0, -delta), top - max(0, delta) + 1):
            plane, (seen, bad) = Y.at(rows, level), checked.get((delta, level), (None, None))
            if plane is seen:
                _RESIDUALS["planes"] += 1
            else:
                bad = _nonzero(space, [(1, ((plane,),)), (-1, ((oracle(delta, level),),))]).any(axis=-2)
                checked[delta, level] = plane, bad
            blocks.append((partial(_column_where, level), bad))
        return [j], blocks

    return _sweep("mode_oracle_equivalence", cell, sector=(0, 1), delta=range(-top, top + 1))


def mode_adjoint_suite(space: Space, alpha) -> dict:
    """<Y_{alpha,delta} v, w> = <v, Y_{-alpha,-delta} w> on basis pairs, |delta|
    <= 4 and source levels <= 4: with Z the diagonal Gram weights and real
    charges, the matrix identity Y_{alpha,delta}^T Z_t = Z_s Y_{-alpha,-delta},
    entry (v, w) per pair, on every sector at once; the pairs run by v, then
    by w."""
    mult = charge_multiplier(space, alpha)
    top = min(4, space.trunc.level_cutoff)
    sectors = _sectors(space, mult)
    rows = _positions(space, sectors)

    def where(level, delta, j, k):
        col, row = divmod(k, len(partitions_of(level + delta)))
        return {**_column_where(level, j, col), "target": list(partitions_of(level + delta)[row])}

    def cell(delta):
        if not sectors:
            return sectors, []
        forward, backward = _Op(y_matrices(space, alpha, delta), delta), _Op(y_matrices(space, -alpha, -delta), -delta)
        blocks = []
        for level in range(max(0, -delta), top + 1):
            if space.trunc.admits_level(level + delta):
                terms = [
                    (1, ((forward.at(rows, level).T, gram_matrix(level + delta)),)),
                    (-1, ((gram_matrix(level), backward.at(rows, level + delta, mult)),)),
                ]
                bad = _nonzero(space, terms)
                blocks.append((partial(where, level, delta), bad.reshape(bad.shape[:-2] + (-1,))))
        return sectors, blocks

    return _sweep("mode_adjoint", cell, delta=range(-4, 5))


def _current_family(space: Space, alpha) -> List[dict]:
    """The suites on the J and L stacks, in report order."""
    return [current_bracket_suite(space), virasoro_bracket_suite(space), lorentz_closure_suite(space)]


def _vertex_family(space: Space, alpha) -> List[dict]:
    """The suites on the Y stacks, in report order, after the current family's."""
    return [
        current_covariance_suite(space, alpha),
        primary_covariance_suite(space, alpha),
        mode_oracle_suite(space, alpha),
        mode_adjoint_suite(space, alpha),
    ]


def _timed(family: Callable, space: Space, alpha) -> Tuple[List[dict], float, int, float]:
    """The family's suite reports, its seconds, and the level stacks it built
    with their seconds (see :func:`~chargedfock.fock.level_stacks`)."""
    before, t0 = STACKS.copy(), time.perf_counter()
    suites = family(space, alpha)
    return suites, time.perf_counter() - t0, STACKS["built"] - before["built"], STACKS["seconds"] - before["seconds"]


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when `parent` dies (Linux), and end
    it now if that has happened already."""
    if sys.platform.startswith("linux"):
        import ctypes  # numpy has imported it already

        # 1 is PR_SET_PDEATHSIG and 9 is SIGKILL on every Linux: importing
        # signal here would cost the forked child about 1.5 ms of its start
        ctypes.CDLL(None).prctl(1, 9)
    if os.getppid() != parent:
        os._exit(1)


def _captured(task: Callable) -> bytes:
    """Run `task()` with every log record kept instead of handled -> two
    pickles: (records, the exception's traceback text or None), then (True,
    result) or (False, exception).  The text comes first, so the parent has
    it even when the exception cannot be rebuilt.  Only a forked child calls
    this: the patched logging ends with its process."""
    records = []

    def keep(logger, record):
        record.msg, record.args = record.getMessage(), None
        records.append(record)

    logging.Logger.callHandlers = keep
    try:
        ok, value, text = True, task(), None
    except Exception as exc:
        ok, value, text = False, exc, traceback.format_exc()
    return pickle.dumps((records, text)) + pickle.dumps((ok, value))


class _Forked:
    """`task()` in a child made by os.fork.  The child handles no log record
    itself: it sends its records, then its result or exception, pickled over
    a pipe, and ends with os._exit, so it never returns into its parent's
    stack, writes nothing to stdout and runs no exit handler.  On Linux it
    dies with its parent.  A fork carries the parent's module state, such as
    a fault flag or a test's monkeypatch, into the child unchanged."""

    def __init__(self, task: Callable):
        parent = os.getpid()
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                _die_with(parent)
                with os.fdopen(write, "wb") as pipe:
                    pipe.write(_captured(task))
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write)
        self._read = read
        self.peak_rss_mb = 0.0

    def join(self):
        """Reap the child, handle its log records here in their order, and
        return its result or raise its exception, chained to a
        ChildProcessError that holds the child's traceback."""
        try:
            with os.fdopen(self._read, "rb") as pipe:
                data = io.BytesIO(pipe.read())
        finally:
            _, status, usage = os.wait4(self.pid, 0)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        try:
            records, text = pickle.load(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"a forked verification process ended with status {code} and no result") from None
        for record in records:
            logging.getLogger(record.name).callHandlers(record)
        try:
            ok, value = pickle.load(data)
        except Exception:
            raise ChildProcessError(f"a forked verification process raised an error that cannot be rebuilt here:\n{text}") from None
        if not ok:
            raise value from ChildProcessError(text)
        return value

    def kill(self) -> None:
        """End and reap the child unread."""
        import signal  # not at module level: building its enums costs every command about 1 ms of start-up

        os.close(self._read)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _forked(task: Callable) -> Optional[_Forked]:
    """`task()` in a forked child, or None where this process must run it:
    fewer than two CPUs, no os.fork, or a pipe or fork the system refuses
    (at a process limit or short of memory)."""
    if _cpus() < 2 or not hasattr(os, "fork"):
        return None
    try:
        return _Forked(task)
    except OSError:
        return None


def algebra_report(space: Space, alpha) -> dict:
    """All exact-identity suites in one report; verdict 'identity_failure'
    if any suite pinpointed a failing cell.

    With two CPUs or more, a forked child (see :class:`_Forked`) runs the
    vertex family while this process runs the current family; each builds
    the level stacks it reads.  The report, the log records and their order
    are those of one process: the child's records come after this process's
    own.  Then one INFO line per family gives its suites, its process, its
    seconds, the forked child's peak RSS, and how many level stacks the
    family built in its process and their seconds: in one process the
    vertex family reuses the L stacks the current family built."""
    vertex = partial(_timed, _vertex_family, space, alpha)
    child = _forked(vertex)
    try:
        current = _timed(_current_family, space, alpha)
    except BaseException:
        if child is not None:
            child.kill()
        raise
    families = [("current", current, f"pid {os.getpid()}")]
    if child is None:
        families.append(("vertex", vertex(), f"pid {os.getpid()}"))
    else:
        families.append(("vertex", child.join(), f"pid {child.pid} (forked, peak RSS {child.peak_rss_mb:.1f} MB)"))
    for name, (suites, seconds, stacks, stack_seconds), process in families:
        log.info("%s family (%s): %s, %.3f s, %d level stacks built in %.3f s",
                 name, ", ".join(s["suite"] for s in suites), process, seconds, stacks, stack_seconds)
    suites = [s for _, (family, *_), _ in families for s in family]
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
    so a larger charge is refused.  Below block cutoff 6 it warns, per charge,
    of the blocks that have no source level.
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
    series = vacuum_norm_series(alpha_sq, n_max)
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
    deltas = range(-BLOCK_DELTA_RANGE, BLOCK_DELTA_RANGE + 1)
    # a shift past the block cutoff leaves no source level inside it (norm 0)
    empty = sum(abs(delta) > block_L for delta in deltas)
    for alpha_k in charges:
        if empty:
            warnings.append(f"decay: {empty} of {len(deltas)} mode blocks at alpha"
                            f" {ctx.json_real(ctx.re_im(alpha_k)[0])} have no source level inside block cutoff"
                            f" {block_L}; their norm 0 checks nothing")
        for delta in deltas:
            nrm = truncated_mode_norm(block_space, alpha_k, delta)
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


def _commutativity_probes(space: Space, alpha, seed: int, samples: int):
    """Bra/ket pairs for the bilinear pairing checks, in sectors one charge
    step |alpha / alpha0| inside the window.

    Two single-mode applications pair sectors with charge difference in
    {0, -2, +2} steps (each side shifts by one step), so the probe list mixes
    same-sector pairs with a two-step transfer pair; extra pairs are sampled
    with the run seed.
    """
    step = abs(charge_multiplier(space, alpha))
    inner_sectors = list(space.trunc.interior_sectors(step))
    if not inner_sectors:
        return []
    j0 = 0 if 0 in inner_sectors else inner_sectors[0]
    L = space.trunc.level_cutoff
    probes = [("level-one", TensorState.basis(j0, (1,), ()), TensorState.basis(j0, (1,), ()))]
    if L >= 2:
        probes.append(
            ("split", TensorState.basis(j0, (2,), (1,)), TensorState.basis(j0, (1,), ()))
        )
    if j0 + step in inner_sectors and j0 - step in inner_sectors:
        transfer = TensorState.basis(j0 + step, (1,), ()), TensorState.basis(j0 - step, (), ())
        probes.append(("charge-transfer", *transfer))
    rng = random.Random(seed)
    pool = [(), (1,), (2,), (1, 1)]
    for k in range(samples):
        j1 = rng.choice(inner_sectors)
        j2 = j1 - rng.choice([-2 * step, 0, 2 * step])
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
    residual shrinking as the window grows.  Logs one INFO line on the rows,
    the images built and requested, the chiral Grams, tail fits and Psi-Psi
    commutators computed, the commutators answered from their mirror and the
    seconds, and one WARNING naming the probes that lie past a cutoff.
    """
    t0, counts, built, requests = time.perf_counter(), Counter(COUNTS), IMAGES.built, IMAGES.requests
    fits = tail_fit.cache_info().misses
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
            mag = abs(complex(value))
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
    if len(cutoffs) == 1:
        log.warning(
            "commutativity: excited pairs are evaluated at the single cutoff %d; shrinking is checked only above %d",
            L,
            low_cutoff,
        )
    cells = [(1, 0), (2, -1), (1, -1)]
    cells = [(m, n) for m, n in cells if abs(m) <= m_range and abs(n) <= m_range]
    probes = _commutativity_probes(space, alpha, seed, samples)
    levels = [(probe, max(phi1.max_chiral_level(), phi2.max_chiral_level())) for probe, phi1, phi2 in probes]
    if past := [f"{probe} at chiral level {level}" for probe, level in levels if level > cutoffs[0]]:
        log.warning("commutativity: probes past cutoff %d pair states outside its truncated space, so their rows"
                    " there check nothing: %s", cutoffs[0], ", ".join(past))
    spaces = {Lk: Space(ctx, space.alpha0, Truncation(Lk, space.trunc.j_min, space.trunc.j_max)) for Lk in cutoffs}
    excited_rows = []
    nonincreasing = True
    shrank = False
    for probe, phi1, phi2 in probes:
        for m, n in cells:
            by_cutoff = {}
            for Lk, sp_k in spaces.items():
                value, budget = weak_psi_commutator(sp_k, alpha, m, n, phi1, phi2)
                mag = abs(complex(value))
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
                    if high < low:
                        shrank = True
                    else:
                        nonincreasing = False
    counts = COUNTS - counts
    log.info("commutativity: %d vacuum and %d excited rows, %d of %d time-zero images built, %d chiral Grams"
             " computed, %d tail fits computed, %d Psi-Psi commutators computed, %d from their mirror, %.3f s",
             len(vacuum_rows), len(excited_rows), IMAGES.built - built, IMAGES.requests - requests, counts["grams"],
             tail_fit.cache_info().misses - fits, counts["commutators"], counts["mirrored"], time.perf_counter() - t0)
    verdict = "pass" if (vacuum_ok and nonincreasing) else "budget_exceeded"
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
            "ok": nonincreasing,
        },
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# partial-sum studies (converge / diverge-demo)


def divergence_series(n_max: int = 512) -> List[Tuple[int, float, float]]:
    """Vacuum partial sums at squared charge 1/2, the non-summable boundary.

    Band n contributes r_n^2 ~ 1/(pi n), so S_N grows like log N; rows are
    (N, S_N, S_N - S_{N/2}) for N a power of two, and the increment column
    settles near log(2)/pi instead of shrinking.
    """
    sums = [total for _, _, total in partial_sum_norm_series(0.5, 0, n_max + 1)]
    rows = []
    n = 2
    while n <= n_max:
        rows.append((n, sums[n], sums[n] - sums[n // 2]))
        n *= 2
    return rows
