"""Command-line verification harness.

Reports are strict JSON (sorted keys, two-space indent) written to the
configured output path or stdout; an unbounded budget is the string
``"unbounded"`` and a NaN is an error.  Series are CSV; logs go to stderr.
Exit codes: 0 every check passed, 1 usage or configuration error, 2 an exact
identity failed, 3 a residual exceeded its truncation budget.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

from . import desitter, harness, virasoro
from .config import (
    CONFIG_KEYS,
    ConfigError,
    build_space,
    config_echo,
    resolve_config,
)
from .twodim import partial_sum_norm_series, write_convergence_csv

log = logging.getLogger("chargedfock")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IDENTITY = 2
EXIT_BUDGET = 3
_VERDICT_CODE = {"pass": EXIT_OK, "identity_failure": EXIT_IDENTITY, "budget_exceeded": EXIT_BUDGET}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the harness contract reserves 2 for
    identity failures, so usage errors exit 1 instead."""

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


def _add_config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", nargs="?", metavar="CONFIG", help="flat key=value config file")
    for key in CONFIG_KEYS:
        p.add_argument(f"--{key}", dest=f"cfg_{key}", metavar="VALUE", help=f"override {key}")


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


def _emit_json(cfg, report: dict) -> None:
    text = json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if cfg.output:
        Path(cfg.output).write_text(text, encoding="utf-8")
        log.info("report written to %s", cfg.output)
    else:
        sys.stdout.write(text)


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


def _cmd_verify_algebra(args) -> int:
    cfg = _resolve(args)
    space, alpha, _lam = build_space(cfg)
    if args.inject_fault == "sugawara":
        virasoro.FAULT_SUGAWARA = True
        log.warning("fault injection active: corrupted quadratic-current coefficient")
    t0 = time.perf_counter()
    try:
        body = harness.algebra_report(space, alpha)
    finally:
        virasoro.FAULT_SUGAWARA = False
    log.info("verify-algebra finished in %.2f s", time.perf_counter() - t0)
    for warning in body["warnings"]:
        log.warning("%s", warning)
    report = {"subcommand": "verify-algebra", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    return _VERDICT_CODE[body["verdict"]]


def _cmd_verify_decay(args) -> int:
    cfg = _resolve(args)
    space, alpha, _lam = build_space(cfg)
    if cfg.alpha_multiplier == 0:
        raise ConfigError(
            "verify-decay fits the decay slope of the vacuum mode norms; --alpha_multiplier 0 gives "
            "alpha = 0, whose vacuum mode norms are 0 past n = 0, so there is no slope to fit"
        )
    # the fit needs its window (lo, min(hi, n_max)) at least two wide
    least = harness.SLOPE_WINDOW[0] + 2
    _require_count(args.n_max, least, "--n-max", "leaves the slope window too short to fit")
    t0 = time.perf_counter()
    body = harness.decay_report(space, alpha, n_max=args.n_max)
    log.info("verify-decay finished in %.2f s", time.perf_counter() - t0)
    report = {"subcommand": "verify-decay", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    return _VERDICT_CODE[body["verdict"]]


def _per_mode_path(output: str, m: int) -> str:
    path = Path(output)
    return str(path.with_name(f"{path.stem}_m{m}{path.suffix}"))


def _cmd_converge(args) -> int:
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
    for m in m_list:
        rows = partial_sum_norm_series(ctx.abs_sq(alpha), m, args.n_max)
        if cfg.output:
            path = _per_mode_path(cfg.output, m) if len(m_list) > 1 else cfg.output
            with open(path, "w", encoding="utf-8") as fp:
                write_convergence_csv(rows, fp)
            log.info("mode %d series written to %s", m, path)
        else:
            if len(m_list) > 1:
                sys.stdout.write(f"# m={m}\n")
            write_convergence_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_diverge_demo(args) -> int:
    cfg = _resolve(args)
    _require_count(args.n_max, 2, "--n-max")  # the first doubling is N = 2
    rows = harness.divergence_series(args.n_max)
    lines = ["N,partial_sum,increment"]
    for n, total, increment in rows:
        lines.append(f"{n},{total!r},{increment!r}")
    text = "\n".join(lines) + "\n"
    log.info(
        "divergence demo at the critical charge: %d doublings, last increment %.6f",
        len(rows),
        rows[-1][2],
    )
    if cfg.output:
        Path(cfg.output).write_text(text, encoding="utf-8")
        log.info("series written to %s", cfg.output)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify_commutativity(args) -> int:
    cfg = _resolve(args)
    space, alpha, _lam = build_space(cfg)
    _require_subcritical(space.ctx, alpha, "verify-commutativity")
    _require_charged(cfg, "verify-commutativity")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    # the vacuum rows pair images of the sector-0 vacuum, one charge step away
    step, (lo, hi) = abs(cfg.alpha_multiplier), cfg.charge_window
    if 0 not in space.trunc.interior_sectors(step):
        raise ConfigError(
            f"--charge_window {lo},{hi} must hold sectors {-step}..{step}: verify-commutativity pairs "
            f"the images of the sector-0 vacuum there, and an image that left the charge window "
            f"would be clipped"
        )
    t0 = time.perf_counter()
    body = harness.commutativity_report(
        space, alpha, m_range=args.m_range, seed=cfg.seed, samples=args.samples
    )
    log.info("verify-commutativity finished in %.2f s", time.perf_counter() - t0)
    report = {"subcommand": "verify-commutativity", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    return _VERDICT_CODE[body["verdict"]]


def _cmd_verify_lorentz(args) -> int:
    cfg = _resolve(args)
    space, alpha, lam = build_space(cfg)
    _require_subcritical(space.ctx, alpha, "verify-lorentz")
    _require_charged(cfg, "verify-lorentz")
    t0 = time.perf_counter()
    body = desitter.verify_lorentz(
        space,
        alpha,
        lam,
        interior_buffer=args.interior_buffer,
        seed=cfg.seed,
        samples=args.samples,
    )
    log.info("verify-lorentz finished in %.2f s", time.perf_counter() - t0)
    report = {"subcommand": "verify-lorentz", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    return _VERDICT_CODE[body["summary"]["verdict"]]


def _cmd_verify_virasoro_c0(args) -> int:
    # the family's coefficients are imaginary, which exact-rational cannot hold
    cfg = _resolve(args, arithmetic="exact-gaussian")
    space, alpha, lam = build_space(cfg)
    ctx = space.ctx
    _require_subcritical(ctx, alpha, "verify-virasoro-c0")
    _require_charged(cfg, "verify-virasoro-c0")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    if cfg.arithmetic == "exact-rational" and not ctx.is_zero(lam):
        raise ConfigError(
            "the chiral-difference Virasoro family carries imaginary coefficients; "
            "use exact-gaussian or float arithmetic"
        )
    t0 = time.perf_counter()
    body = desitter.verify_virasoro_c0(
        space,
        alpha,
        lam,
        m_range=args.m_range,
        interior_buffer=args.interior_buffer,
        seed=cfg.seed,
        samples=args.samples,
    )
    log.info("verify-virasoro-c0 finished in %.2f s", time.perf_counter() - t0)
    report = {"subcommand": "verify-virasoro-c0", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    return _VERDICT_CODE[body["summary"]["verdict"]]


def _cmd_explore_d_half(args) -> int:
    cfg = _resolve(args)
    space, alpha, lam = build_space(cfg)
    _require_charged(cfg, "explore-d-half")
    _require_count(args.n_max, 1, "--n-max")
    _require_count(args.m_range, 1, "--m-range", TRIVIAL_CELL)
    t0 = time.perf_counter()
    body = desitter.explore_d_half(
        space,
        alpha,
        lam,
        m_range=args.m_range,
        n_bands=args.n_max,
        interior_buffer=args.interior_buffer,
    )
    log.info("explore-d-half finished in %.2f s", time.perf_counter() - t0)
    report = {"subcommand": "explore-d-half", "config": config_echo(cfg), **body}
    _emit_json(cfg, report)
    mismatches = [row for row in body["measured_gap"] if not row["matches_prediction"]]
    return EXIT_IDENTITY if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="chargedfock",
        description="Exact verification harness for charged Fock-space identities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-algebra", help="exact current/Virasoro/mode identities")
    _add_config_arguments(p)
    p.add_argument("--inject-fault", choices=["sugawara"], help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("verify-decay", help="vacuum norm formula and mode-block bounds")
    _add_config_arguments(p)
    p.add_argument("--n-max", type=_count, default=512, help="closed-form table length")
    p.set_defaults(func=_cmd_verify_decay)

    p = sub.add_parser("converge", help="vacuum partial-sum series as CSV")
    _add_config_arguments(p)
    p.add_argument("--m-list", default="0", help="comma-separated mode numbers")
    p.add_argument("--n-max", type=_count, default=64, help="number of bands per series")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("diverge-demo", help="partial sums at the critical charge (float)")
    _add_config_arguments(p)
    p.add_argument("--n-max", type=_count, default=512, help="deepest band")
    p.set_defaults(func=_cmd_diverge_demo)

    p = sub.add_parser("verify-commutativity", help="weak commutators of the symmetrized modes")
    _add_config_arguments(p)
    p.add_argument("--m-range", type=_count, default=2, help="vacuum cell range |m|,|n|")
    p.add_argument("--samples", type=_count, default=2, help="extra seeded probe pairs")
    p.set_defaults(func=_cmd_verify_commutativity)

    p = sub.add_parser("verify-lorentz", help="perturbed boost-family ladder relations")
    _add_config_arguments(p)
    p.add_argument("--interior-buffer", type=int, default=None, help="levels reserved below the cutoff")
    p.add_argument("--samples", type=_count, default=2, help="extra seeded probe pairs")
    p.set_defaults(func=_cmd_verify_lorentz)

    p = sub.add_parser("verify-virasoro-c0", help="centerless chiral-difference Virasoro relations")
    _add_config_arguments(p)
    p.add_argument("--m-range", type=_count, default=2, help="cell range |m|,|n|")
    p.add_argument("--interior-buffer", type=int, default=None, help="levels reserved below the cutoff")
    p.add_argument("--samples", type=_count, default=2, help="extra seeded probe pairs")
    p.set_defaults(func=_cmd_verify_virasoro_c0)

    p = sub.add_parser("explore-d-half", help="closure gap of the constant-coefficient family")
    _add_config_arguments(p)
    p.add_argument("--m-range", type=_count, default=2, help="cell range |m|,|n|")
    p.add_argument("--n-max", type=_count, default=48, help="bands in the partial-sum study")
    p.add_argument("--interior-buffer", type=int, default=None, help="levels reserved below the cutoff")
    p.set_defaults(func=_cmd_explore_d_half)

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
    except (ValueError, FileNotFoundError) as exc:  # a ConfigError is a ValueError
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
