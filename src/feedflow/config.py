"""Flat key-value configuration files with environment overrides.

Format: one `key = value` per line, `#` starts a comment. Keys use dots for
grouping (delay_bin.0.mu1). Environment variables with the FEEDFLOW_ prefix
override file values; dots map to double underscores and the key is
uppercased (delay_bin.0.mu1 -> FEEDFLOW_DELAY_BIN__0__MU1). A command
rejects any key, from the file or the environment, that it does not know.
"""

from __future__ import annotations

import math
import os
import re
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # each builder imports its type: a command loads only what it runs
    from .graphgen import KroneckerParams
    from .simulate import BetaCurve, DelayModel
    from .synth import ContagionPlan

ENV_PREFIX = "FEEDFLOW_"
MAX_LOG_DELAY = 700  # exp(700) is about 1e304, short of the float maximum 1.8e308


class ConfigError(ValueError):
    pass


# The keys each config-reading command knows, as regular expressions that must
# match a whole key. Static lists, not the keys a run happens to read: synth
# --graph ignores the Kronecker keys but still accepts them.
_KRONECKER = ("initiator", "k", "target_edges")
_BETA_CURVE = ("lambda_c", "beta0", "gamma")
# An index is written one way only: \d+ would let delay_bin.00.mu1 or a non-ASCII digit
# through, and _group_indices would read it as another key's index or not at all.
_INDEX = r"(0|[1-9][0-9]*)"
_DELAY_BIN = rf"delay_bin\.{_INDEX}\.(lo|hi|mu1|sigma1|mu2|sigma2)"
_CONTAGION = (rf"contagion\.{_INDEX}\."
              r"(token|n_seeds|hazard|overload_hazard|overload_threshold|adopt_jitter_s)")
KNOWN_KEYS = {
    "graphgen": _KRONECKER,
    "simulate": ("mu", "sigma", *_BETA_CURVE, "n_cascades", "max_time", _DELAY_BIN),
    "synth": (*_KRONECKER, "graph_seed", "mu", "sigma", *_BETA_CURVE, "horizon_hours",
              _DELAY_BIN, _CONTAGION),
}


def parse_config(text: str, environ: Optional[dict] = None) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {line_no}: empty key")
        cfg[key] = value
    env = os.environ if environ is None else environ
    for env_key, value in env.items():
        if not env_key.startswith(ENV_PREFIX):
            continue
        key = env_key[len(ENV_PREFIX):].lower().replace("__", ".")
        cfg[key] = value
    return cfg


def check_known_keys(cfg: dict[str, str], command: str) -> None:
    """Raise ConfigError on the first key the command does not know."""
    known = re.compile("|".join(KNOWN_KEYS[command]))
    for key in cfg:
        if not known.fullmatch(key):
            raise ConfigError(f"unknown config key {key!r}")


def get_float(cfg: dict[str, str], key: str, default: Optional[float] = None) -> float:
    return _get(cfg, key, default, float, "a number")


def get_int(cfg: dict[str, str], key: str, default: Optional[int] = None) -> int:
    return _get(cfg, key, default, int, "an integer")


def _get(cfg: dict[str, str], key: str, default, kind: type, what: str):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: not {what}: {cfg[key]!r}")


def beta_curve_from(cfg: dict[str, str]) -> BetaCurve:
    from .simulate import BetaCurve
    return BetaCurve(
        lambda_c=get_float(cfg, "lambda_c"),
        beta0=get_float(cfg, "beta0"),
        gamma=get_float(cfg, "gamma"),
    )


def _group_indices(cfg: dict[str, str], group: str) -> list[int]:
    """The indices i of the keys <group>.<i>.*, ascending; ConfigError for one written otherwise."""
    index = {k: k.split(".")[1] for k in cfg if k.startswith(group + ".")}
    for key in (k for k, i in index.items() if not re.fullmatch(_INDEX, i)):
        raise ConfigError(f"config key {key!r}: an index is written 0, 1, 2, ... only")
    return sorted({int(i) for i in index.values()})


def delay_model_from(cfg: dict[str, str]) -> DelayModel:
    """Collect delay_bin.<i>.{lo,hi,mu1,sigma1,mu2,sigma2}; hi defaults to inf."""
    from .simulate import DelayBin, DelayModel
    indices = _group_indices(cfg, "delay_bin")
    if not indices:
        raise ConfigError("no delay_bin.<i>.* keys in config")
    bins = []
    for i in indices:
        p = f"delay_bin.{i}."
        b = DelayBin(
            lo=get_float(cfg, p + "lo"),
            hi=get_float(cfg, p + "hi", math.inf),
            mu1=get_float(cfg, p + "mu1"),
            sigma1=get_float(cfg, p + "sigma1"),
            mu2=get_float(cfg, p + "mu2"),
            sigma2=get_float(cfg, p + "sigma2"),
        )
        # A delay is exp(mu + sigma * z) for a standard normal z. simulate's Box-Muller
        # draws never exceed 8.6, and one of synth's reaches 10 with odds of about 1e-23.
        for j, mu, sigma in ((1, b.mu1, b.sigma1), (2, b.mu2, b.sigma2)):
            if mu + 10 * sigma > MAX_LOG_DELAY:
                raise ConfigError(f"config key '{p}mu{j}': mu{j} + 10 * sigma{j} = "
                                  f"{mu + 10 * sigma:g} exceeds {MAX_LOG_DELAY}: delays overflow")
        bins.append(b)
    return DelayModel(bins=tuple(bins))


def contagions_from(cfg: dict[str, str]) -> tuple[ContagionPlan, ...]:
    """Collect contagion.<i>.{token,n_seeds,hazard,...} for every index present, ascending."""
    from .synth import ContagionPlan
    plans = []
    for i in _group_indices(cfg, "contagion"):
        p = f"contagion.{i}."
        if p + "token" not in cfg:
            raise ConfigError(f"missing config key {p + 'token'!r}")
        token = cfg[p + "token"]
        if not token or any(c in token for c in ",\t\n\r"):
            raise ConfigError(f"config key {p + 'token'!r}: not a non-empty token without "
                              f"a comma, tab or line end: {token!r}")
        # Either key asks for both: a missing one fails as missing.
        overload = p + "overload_hazard" in cfg or p + "overload_threshold" in cfg
        plans.append(
            ContagionPlan(
                token=token,
                n_seeds=get_int(cfg, p + "n_seeds"),
                hazard=get_float(cfg, p + "hazard"),
                overload_hazard=get_float(cfg, p + "overload_hazard") if overload else None,
                overload_threshold=(
                    get_float(cfg, p + "overload_threshold") if overload else None
                ),
                adopt_jitter_s=get_int(cfg, p + "adopt_jitter_s", 600),
            )
        )
    return tuple(plans)


def initiator_from(cfg: dict[str, str]) -> tuple[tuple[float, float], tuple[float, float]]:
    raw = cfg.get("initiator")
    if raw is None:
        raise ConfigError("missing config key 'initiator' (four comma-separated values)")
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"initiator needs 4 comma-separated values, got {len(parts)}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"initiator: non-numeric entry in {raw!r}")
    return ((a, b), (c, d))


def kronecker_params_from(cfg: dict[str, str], seed: int) -> KroneckerParams:
    from .graphgen import KroneckerParams
    return KroneckerParams(initiator=initiator_from(cfg), k=get_int(cfg, "k"),
                           target_edges=get_int(cfg, "target_edges"), seed=seed)
