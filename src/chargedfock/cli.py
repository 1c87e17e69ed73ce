"""Command-line verification harness.

Reports are strict JSON (sorted keys, two-space indent) written to the
configured output path or stdout; an unbounded budget is the string
``"unbounded"`` and a NaN is an error.  Series are CSV; logs go to stderr.
Exit codes: 0 every check passed, 1 usage or configuration error, 2 an exact
identity failed, 3 a residual exceeded its truncation budget.

The report contract (config, space, timing, warnings, config echo, output
and exit code) is written once, in :func:`_run_report`; each JSON
subcommand's handler states only its refusals and its body call.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
import time
from pathlib import Path

from . import desitter, harness, virasoro
from .config import CONFIG_KEYS, ConfigError, build_space, config_echo, resolve_config
from .twodim import partial_sum_norm_series, write_convergence_csv
from .vertex import charge_multiplier

log = logging.getLogger("chargedfock")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IDENTITY = 2
EXIT_BUDGET = 3
_VERDICT_CODE = {"pass": EXIT_OK, "identity_failure": EXIT_IDENTITY, "budget_exceeded": EXIT_BUDGET}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the harness contract reserves 2 for
    identity failures, so usage errors exit 1 instead.  A token that starts
    with ``-`` and a digit, as ``-1/4`` or ``-3,3``, is a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """A nonnegative integer option: a negative count would run an empty
    sweep and pass it."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _resolve(args: argparse.Namespace, **defaults: str):
    """The run config: ``defaults`` replace the global ones for this
    subcommand, below the config file and the flags."""
    overrides = {key: getattr(args, f"cfg_{key}") for key in CONFIG_KEYS}
    return resolve_config(args.config, overrides, defaults)


def _strict(value):
    """The report with each unbounded (+inf) float spelled ``"unbounded"``."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return "unbounded" if value == math.inf else value


def _require_writable(output, what: str, several: bool = False) -> None:
    """Refuse an output path that is a directory or cannot be written, before
    any work and without creating it; ``several`` files, one per mode beside
    the path, need its folder writable."""
    path = Path(output) if output else None
    if path and (path.is_dir() or not os.access(path if path.exists() and not several else path.parent, os.W_OK)):
        raise ConfigError(f"cannot write a {what} to {path}")


def _emit(cfg, text: str, what: str) -> None:
    """Write ``text`` to the configured output path, or to stdout."""
    if cfg.output:
        Path(cfg.output).write_text(text, encoding="utf-8")
        log.info("%s written to %s", what, cfg.output)
    else:
        sys.stdout.write(text)


def _exit_code(body: dict) -> int:
    """The verdict's exit code: read at the body's top level or in its summary,
    or, for explore-d-half, failed where a measured gap misses the 2d(m - n) law."""
    if "measured_gap" in body:
        return EXIT_OK if all(row["matches_prediction"] for row in body["measured_gap"]) else EXIT_IDENTITY
    return _VERDICT_CODE[body.get("summary", body)["verdict"]]


def _run_report(args, handler, defaults: dict) -> int:
    """The report contract of every JSON subcommand, around the handler that
    raises its refusals and returns its body call."""
    cfg = _resolve(args, **defaults)
    space, alpha, lam = build_space(cfg)
    body_call = handler(args, cfg, space, alpha, lam)
    _require_writable(cfg.output, "report")
    t0 = time.perf_counter()
    body = body_call()
    log.info("%s finished in %.2f s", args.subcommand, time.perf_counter() - t0)
    for warning in body.get("warnings", ()):
        log.warning("%s", warning)
    report = {"subcommand": args.subcommand, "config": config_echo(cfg), **body}
    _emit(cfg, json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n", "report")
    return _exit_code(body)


def _report(**defaults: str):
    """Make ``handler(args, cfg, space, alpha, lam) -> body call`` a JSON
    subcommand; ``defaults`` replace the global config defaults for it."""
    return lambda handler: lambda args: _run_report(args, handler, defaults)


def _require_count(count: int, least: int, option: str, effect: str = "gives an empty series") -> None:
    """Refuse a count below ``least``: it would leave a series empty, a sweep
    trivial or a fit unfittable, and pass or fail vacuously."""
    if count < least:
        raise ConfigError(f"{option} {count} {effect}; it must be at least {least}")


# an --m-range of 0 sweeps the (0, 0) cell alone, where every relation holds trivially
TRIVIAL_CELL = "checks only the trivial (0, 0) cell"


def _require_subcritical(ctx, alpha, subcommand: str) -> None:
    """Refuse charges at or past the convergence threshold."""
    if not 2 * ctx.abs_sq(alpha) < 1:
        raise ConfigError(
            f"{subcommand} needs |alpha| < 1/sqrt(2) for its convergence budgets; "
            f"got alpha^2 = {ctx.abs_sq(alpha)}"
        )


def _require_charged(cfg, subcommand: str) -> None:
    """Refuse alpha = 0: its charge step is zero sectors, so a probe pair
    meant to differ by a charge step would pair one sector with itself."""
    if cfg.alpha_multiplier == 0:
        raise ConfigError(
            f"{subcommand} needs a charged perturbation; --alpha_multiplier 0 gives alpha = 0, a charge "
            f"step of zero sectors, so its charge-step probe pairs would pair a sector with itself"
        )


# ---------------------------------------------------------------------------
# subcommands


@_report()
def _verify_algebra(args, cfg, space, alpha, lam):
    charge_multiplier(space, alpha)  # refuses alpha0 = 0 before any suite runs

    def body():
        if args.inject_fault == "sugawara":
            virasoro.FAULT_SUGAWARA = True
            log.warning("fault injection active: corrupted quadratic-current coefficient")
        try:
            return harness.algebra_report(space, alpha)
        finally:
            virasoro.FAULT_SUGAWARA = False

    return body


@_report()
def _verify_decay(args, cfg, space, alpha, lam):
    if cfg.alpha_multiplier == 0:
        raise ConfigError(
            "verify-decay fits the decay slope of the vacuum mode norms; --alpha_multiplier 0 gives "
            "alpha = 0, whose vacuum mode norms are 0 past n = 0, so there is no slope to fit"
        )
    # the fit needs its window (lo, min(hi, n_max)) at least two wide
    least = harness.SLOPE_WINDOW[0] + 2
    _require_count(args.n_max, least, "--n-max", "leaves the slope window too short to fit")
    return lambda: harness.decay_report(space, alpha, n_max=args.n_max)


def _converge(args) -> int:
    cfg = _resolve(args)
    space, alpha, _lam = build_space(cfg)
    ctx = space.ctx
    _require_subcritical(ctx, alpha, "converge")
    _require_count(args.n_max, 1, "--n-max")
    try:
        m_list = [int(tok) for tok in args.m_list.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad m-list {args.m_list!r}") from exc
    if not m_list:
        raise ConfigError("m-list must name at least one mode")
    _require_writable(cfg.output, "series", several=len(m_list) > 1)
    for m in m_list:
        rows = partial_sum_norm_series(ctx.abs_sq(alpha), m, args.n_max)
        if cfg.output:
            out = Path(cfg.output)
            path = str(out.with_name(f"{out.stem}_m{m}{out.suffix}")) if len(m_list) > 1 else cfg.output
            with open(path, "w", encoding="utf-8") as fp:
                write_convergence_csv(rows, fp)
            log.info("mode %d series written to %s", m, path)
        else:
            if len(m_list) > 1:
                sys.stdout.write(f"# m={m}\n")
            write_convergence_csv(rows, sys.stdout)
    return EXIT_OK


def _diverge_demo(args) -> int:
    cfg = _resolve(args)
    _require_count(args.n_max, 2, "--n-max")  # the first doubling is N = 2
    _require_writable(cfg.output, "series")
    rows = harness.divergence_series(args.n_max)
    lines = ["N,partial_sum,increment"]
    lines += [f"{n},{total!r},{increment!r}" for n, total, increment in rows]
    log.info("divergence demo at the critical charge: %d doublings, last increment %.6f", len(rows), rows[-1][2])
    _emit(cfg, "\n".join(lines) + "\n", "series")
    return EXIT_OK


@_report()
def _verify_commutativity(args, cfg, space, alpha, lam):
    _require_subcritical(space.ctx, alpha, "verify-commutativity")
    _require_charged(cfg, "verify-commutativity")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    # the vacuum rows pair images of the sector-0 vacuum, one charge step away
    step, (lo, hi) = abs(cfg.alpha_multiplier), cfg.charge_window
    if 0 not in space.trunc.interior_sectors(step):
        raise ConfigError(
            f"--charge_window {lo},{hi} must hold sectors {-step}..{step}: verify-commutativity pairs the images "
            f"of the sector-0 vacuum there, and an image that left the charge window would be clipped"
        )
    return lambda: harness.commutativity_report(
        space, alpha, m_range=args.m_range, seed=cfg.seed, samples=args.samples
    )


@_report()
def _verify_lorentz(args, cfg, space, alpha, lam):
    _require_subcritical(space.ctx, alpha, "verify-lorentz")
    _require_charged(cfg, "verify-lorentz")
    return lambda: desitter.verify_lorentz(
        space, alpha, lam, interior_buffer=args.interior_buffer, seed=cfg.seed, samples=args.samples
    )


# the family's coefficients are imaginary, which exact-rational cannot hold
@_report(arithmetic="exact-gaussian")
def _verify_virasoro_c0(args, cfg, space, alpha, lam):
    _require_subcritical(space.ctx, alpha, "verify-virasoro-c0")
    _require_charged(cfg, "verify-virasoro-c0")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    if cfg.arithmetic == "exact-rational" and not space.ctx.is_zero(lam):
        raise ConfigError(
            "the chiral-difference Virasoro family carries imaginary coefficients; "
            "use exact-gaussian or float arithmetic"
        )
    return lambda: desitter.verify_virasoro_c0(
        space, alpha, lam, m_range=args.m_range, interior_buffer=args.interior_buffer, seed=cfg.seed,
        samples=args.samples,
    )


@_report()
def _explore_d_half(args, cfg, space, alpha, lam):
    _require_charged(cfg, "explore-d-half")
    _require_count(args.n_max, 1, "--n-max")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    return lambda: desitter.explore_d_half(
        space, alpha, lam, m_range=args.m_range, n_bands=args.n_max, interior_buffer=args.interior_buffer
    )


# ---------------------------------------------------------------------------
# parser wiring

# the options several subcommands share; a table entry may override any field
_OPTIONS = {
    "--n-max": dict(type=_count),
    "--m-range": dict(type=_count, default=2, help="cell range |m|,|n|"),
    "--samples": dict(type=_count, default=2, help="extra seeded probe pairs"),
    "--interior-buffer": dict(type=int, default=None, help="levels reserved below the cutoff"),
}

# (name, help, handler, options): an option is a flag or (flag, overrides)
_SUBCOMMANDS = [
    ("verify-algebra", "exact current/Virasoro/mode identities", _verify_algebra,
     [("--inject-fault", dict(choices=["sugawara"], help=argparse.SUPPRESS))]),
    ("verify-decay", "vacuum norm formula and mode-block bounds", _verify_decay,
     [("--n-max", dict(default=512, help="closed-form table length"))]),
    ("converge", "vacuum partial-sum series as CSV", _converge,
     [("--m-list", dict(default="0", help="comma-separated mode numbers")),
      ("--n-max", dict(default=64, help="number of bands per series"))]),
    ("diverge-demo", "partial sums at the critical charge (float)", _diverge_demo,
     [("--n-max", dict(default=512, help="deepest band"))]),
    ("verify-commutativity", "weak commutators of the symmetrized modes", _verify_commutativity,
     [("--m-range", dict(help="vacuum cell range |m|,|n|")), "--samples"]),
    ("verify-lorentz", "perturbed boost-family ladder relations", _verify_lorentz,
     ["--interior-buffer", "--samples"]),
    ("verify-virasoro-c0", "centerless chiral-difference Virasoro relations", _verify_virasoro_c0,
     ["--m-range", "--interior-buffer", "--samples"]),
    ("explore-d-half", "closure gap of the constant-coefficient family", _explore_d_half,
     ["--m-range", ("--n-max", dict(default=48, help="bands in the partial-sum study")), "--interior-buffer"]),
]


def build_parser() -> _Parser:
    description = "Exact verification harness for charged Fock-space identities."
    parser = _Parser(prog="chargedfock", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, help_text, handler, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", metavar="CONFIG", help="flat key=value config file")
        for key in CONFIG_KEYS:
            p.add_argument(f"--{key}", dest=f"cfg_{key}", metavar="VALUE", help=f"override {key}")
        for option in options:
            flag, overrides = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **{**_OPTIONS.get(flag, {}), **overrides})
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError; an unusable path an OSError
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
