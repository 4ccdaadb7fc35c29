"""Every config key that graphgen, simulate and synth know, set to a hostile value.

Hypothesis sets one key of a valid config, through the file or through its
FEEDFLOW_ environment override, to nan, +-inf, 0, -1, 1e308, 800, an empty
string, "a,b" or a tab. A command must then either work or fail cleanly: no
traceback, no Python warning, exit status 0, 1 or 2, and no output or manifest
after a failure. A synth log that is written must read back without a reject
and with every contagion token, and CT must reach IC's cascade sizes when
max_time is inf.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from feedflow.cli import main
from feedflow.config import ENV_PREFIX, KNOWN_KEYS, ConfigError, contagions_from, delay_model_from
from feedflow.events import parse_event_log
from feedflow.graphgen import KroneckerParams, kronecker_generate

HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e308", "800", "", "a,b", "\t"]

KRONECKER = {"initiator": "0.9, 0.5, 0.5, 0.3", "k": "4", "target_edges": "40"}
BETA_CURVE = {"lambda_c": "30", "beta0": "0.3", "gamma": "0.65"}
DELAY_BINS = {
    "delay_bin.0.lo": "0", "delay_bin.0.hi": "3", "delay_bin.0.mu1": "3.0",
    "delay_bin.0.sigma1": "0.5", "delay_bin.0.mu2": "2.0", "delay_bin.0.sigma2": "0.5",
    "delay_bin.1.lo": "3", "delay_bin.1.hi": "inf", "delay_bin.1.mu1": "4.0",
    "delay_bin.1.sigma1": "1.0", "delay_bin.1.mu2": "3.0", "delay_bin.1.sigma2": "1.0",
}
# A valid config per command that holds a key for every pattern it knows.
BASE = {
    "graphgen": KRONECKER,
    "simulate": {"mu": "1.0", "sigma": "0.25", **BETA_CURVE, "n_cascades": "20",
                 "max_time": "inf", **DELAY_BINS},
    "synth": {**KRONECKER, "graph_seed": "1", "mu": "1.0", "sigma": "0.25", **BETA_CURVE,
              "horizon_hours": "2", **DELAY_BINS, "contagion.0.token": "tok",
              "contagion.0.n_seeds": "2", "contagion.0.hazard": "0.3",
              "contagion.0.overload_hazard": "0.1", "contagion.0.overload_threshold": "2",
              "contagion.0.adopt_jitter_s": "600"},
}
CASES = [(command, key) for command in sorted(BASE) for key in BASE[command]]


def test_every_known_key_has_a_case():
    for command, patterns in KNOWN_KEYS.items():
        for pattern in patterns:
            assert any(re.fullmatch(pattern, key) for key in BASE[command]), (command, pattern)


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.tsv"
    graph = kronecker_generate(KroneckerParams(((0.9, 0.5), (0.5, 0.3)), 5, 100, seed=1))
    with open(path, "w", encoding="utf-8") as fh:
        graph.to_tsv(fh)
    return path


def run(args: list[str], cfg: dict[str, str], env: dict[str, str], work: Path, name: str):
    """The command's result and its outputs' fresh directory work/name, checked for a
    clean exit: no traceback or warning, and no outputs after a failure."""
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = work / name
    out.mkdir()
    args = [a.format(cfg=work / "run.cfg", out=out) for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args, env=env)
    assert [str(w.message) for w in caught] == []
    stderr = result.stderr if result.stderr_bytes is not None else result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), stderr
    assert "Traceback" not in stderr and "Warning" not in stderr, stderr
    assert result.exit_code in (0, 1, 2), stderr
    if result.exit_code == 1:
        assert stderr.startswith("error: "), stderr
    if result.exit_code != 0:
        assert sorted(p.name for p in out.iterdir()) == []
    return result, out


def args_of(command: str, graph_path: Path, model: str = "ct") -> list[str]:
    tail = ["--config", "{cfg}", "--seed", "3", "--out", "{out}/main.out"]
    if command == "simulate":
        return ["simulate", "--model", model, "--graph", str(graph_path), *tail,
                "--report", "{out}/report.csv"]
    if command == "synth":
        return ["synth", *tail, "--truth-out", "{out}/truth.txt"]
    return ["graphgen", *tail]


# More examples than the 1,000 cases, so that Hypothesis runs each of them once.
@settings(max_examples=2000, derandomize=True, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(HOSTILE), by_env=st.booleans())
def test_hostile_config_value_works_or_fails_cleanly(graph_path, case, value, by_env):
    command, key = case
    cfg, env = dict(BASE[command]), {}
    if by_env:
        env[ENV_PREFIX + key.upper().replace(".", "__")] = value
    else:
        cfg[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        result, out = run(args_of(command, graph_path), cfg, env, work, command)
        if result.exit_code != 0 or command == "graphgen":
            return
        if command == "synth":
            with open(out / "main.out", "rb") as fh:
                log, report = parse_event_log(fh)
            assert report.n_rejected == 0
            assert len(log.token_rows(value if key == "contagion.0.token" else "tok")) > 0
            return
        if not math.isinf(float(value if key == "max_time" else cfg["max_time"])):
            return
        ct = (out / "main.out").read_text().splitlines()
        result, out = run(args_of(command, graph_path, model="ic"), cfg, env, work, "ic")
        assert result.exit_code == 0, result.output
        ic = (out / "main.out").read_text().splitlines()
        # cascade_id,seed_node,size,duration: IC's durations are 0.
        assert [line.split(",")[:3] for line in ct] == [line.split(",")[:3] for line in ic]


# Each index is 0 or a number without a leading zero, in ASCII digits. Read as
# int, "00" or "01" would name another key's bin, or one that is never read, and
# "٣" (ARABIC-INDIC DIGIT THREE) is a digit to \d but not to the index rule.
@pytest.mark.parametrize("by_env", [False, True])
@pytest.mark.parametrize("command, key, value", [
    ("simulate", "delay_bin.00.mu1", "9.0"),
    ("synth", "delay_bin.00.mu1", "9.0"),
    ("synth", "contagion.01.token", "other"),
    ("simulate", "delay_bin.٣.lo", "0"),
    ("synth", "contagion.٣.token", "other"),
])
def test_index_written_another_way_is_an_unknown_key(graph_path, tmp_path, command, key,
                                                      value, by_env):
    cfg, env = dict(BASE[command]), {}
    if by_env:
        env[ENV_PREFIX + key.upper().replace(".", "__")] = value
    else:
        cfg[key] = value
    result, _ = run(args_of(command, graph_path), cfg, env, tmp_path, command)
    stderr = result.stderr if result.stderr_bytes is not None else result.output
    assert result.exit_code == 1, stderr
    assert stderr == f"error: unknown config key {key!r}\n"


# A library caller hands delay_model_from and contagions_from a dict that no
# command's key check has seen: each must name the key, not read "00" as bin 0,
# fail inside int() on "²", or read "٣" as bin 3.
@pytest.mark.parametrize("key", ["delay_bin.00.mu1", "delay_bin.01.lo", "delay_bin.².lo",
                                 "delay_bin.٣.lo", "delay_bin.x.sigma1"])
def test_delay_model_from_names_an_index_written_another_way(key):
    cfg = dict(DELAY_BINS)
    assert len(delay_model_from(cfg).bins) == 2
    cfg[key] = "9.0"
    with pytest.raises(ConfigError, match=f"^config key {re.escape(repr(key))}: "):
        delay_model_from(cfg)


@pytest.mark.parametrize("key", ["contagion.00.token", "contagion.01.token", "contagion.².token",
                                 "contagion.٣.token"])
def test_contagions_from_names_an_index_written_another_way(key):
    cfg = {k: v for k, v in BASE["synth"].items() if k.startswith("contagion.")}
    assert [p.token for p in contagions_from(cfg)] == ["tok"]
    cfg[key] = "other"
    with pytest.raises(ConfigError, match=f"^config key {re.escape(repr(key))}: "):
        contagions_from(cfg)
