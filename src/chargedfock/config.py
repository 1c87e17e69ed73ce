"""Flat key=value run configuration shared by every subcommand.

A config file holds one `key = value` pair per line (# comments allowed);
every key can be overridden by a command-line flag of the same name.  Unknown
or duplicate keys are usage errors -- a run should never silently ignore a
typo in a checked-in configuration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .fock import Space, Truncation
from .scalar import MODES, make_context

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config_file",
    "resolve_config",
    "build_space",
    "config_echo",
]

# config-file key -> dataclass attribute ("lambda" is a Python keyword)
CONFIG_KEYS = {
    "alpha0": "alpha0",
    "alpha_multiplier": "alpha_multiplier",
    "level_cutoff": "level_cutoff",
    "charge_window": "charge_window",
    "lambda": "lam",
    "arithmetic": "arithmetic",
    "tolerance": "tolerance",
    "seed": "seed",
    "output": "output",
}


class ConfigError(ValueError):
    """Malformed configuration: reported as a usage error (exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    alpha0: str = "1/2"
    alpha_multiplier: int = 1
    level_cutoff: int = 10
    charge_window: Tuple[int, int] = (-2, 2)
    lam: str = "1/4"
    arithmetic: str = "exact-rational"
    tolerance: float = 0.0
    seed: int = 0
    output: str = ""

    def __post_init__(self):
        if self.arithmetic not in MODES:
            raise ConfigError(
                f"arithmetic must be one of {', '.join(MODES)}; got {self.arithmetic!r}"
            )
        if self.level_cutoff < 0:
            raise ConfigError("level_cutoff must be nonnegative")
        if self.charge_window[0] > self.charge_window[1]:
            raise ConfigError("charge_window must be an ascending integer pair")
        if self.tolerance < 0:
            raise ConfigError("tolerance must be nonnegative")


def _parse_window(text: str) -> Tuple[int, int]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ConfigError(f"charge_window needs two integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"charge_window needs two integers, got {text!r}") from exc


def _convert(key: str, text: str):
    try:
        if key in ("alpha_multiplier", "level_cutoff", "seed"):
            return int(text)
        if key == "tolerance":
            return float(text)
        if key == "charge_window":
            return _parse_window(text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return text


def load_config_file(path: str) -> Dict[str, str]:
    """Raw key -> value strings from a flat config file, strictly validated."""
    raw: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            raw[key] = value
    return raw


def resolve_config(
    path: Optional[str], overrides: Dict[str, Optional[str]], defaults: Optional[Dict[str, str]] = None
) -> RunConfig:
    """Defaults, then a subcommand's own ``defaults``, then the config file,
    then flag overrides (highest wins)."""
    raw = dict(defaults or {})
    raw.update(load_config_file(path) if path else {})
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    fields = {CONFIG_KEYS[k]: _convert(k, v) for k, v in raw.items()}
    return RunConfig(**fields)


def build_space(cfg: RunConfig):
    """(space, alpha, lambda) for a run; scalar parsing honors the mode.  An
    exact mode ignores a nonzero tolerance, with one warning that names it."""
    if cfg.arithmetic != "float" and cfg.tolerance:
        logging.getLogger(__name__).warning("tolerance %r is ignored: %s arithmetic is exact",
                                            cfg.tolerance, cfg.arithmetic)
    ctx = make_context(cfg.arithmetic, cfg.tolerance if cfg.arithmetic == "float" else 0.0)
    try:
        alpha0 = ctx.parse(cfg.alpha0)
        lam = ctx.parse(cfg.lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    alpha = alpha0 * cfg.alpha_multiplier
    trunc = Truncation(cfg.level_cutoff, cfg.charge_window[0], cfg.charge_window[1])
    return Space(ctx, alpha0, trunc), alpha, lam


def config_echo(cfg: RunConfig) -> dict:
    """The run parameters as they entered the run, for the report, by config
    key; the charge window as a list."""
    values = {key: getattr(cfg, attr) for key, attr in CONFIG_KEYS.items()}
    return {**values, "charge_window": list(cfg.charge_window)}
