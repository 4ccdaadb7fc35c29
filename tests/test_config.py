import math

import pytest

from feedflow.config import (
    ConfigError,
    beta_curve_from,
    check_known_keys,
    contagions_from,
    delay_model_from,
    get_float,
    get_int,
    initiator_from,
    parse_config,
)

SAMPLE = """
# simulation parameters
mu = 1.5
sigma = 0.5          # trailing comment
lambda_c = 30
beta0 = 0.05
gamma = 0.65

delay_bin.0.lo = 0
delay_bin.0.hi = 100
delay_bin.0.mu1 = 3.0
delay_bin.0.sigma1 = 0.5
delay_bin.0.mu2 = 2.0
delay_bin.0.sigma2 = 0.5
delay_bin.1.lo = 100
delay_bin.1.hi = inf
delay_bin.1.mu1 = 4.0
delay_bin.1.sigma1 = 2.0
delay_bin.1.mu2 = 3.5
delay_bin.1.sigma2 = 2.0
initiator = 0.9, 0.5, 0.5, 0.3
"""


def test_parse_config_basics():
    cfg = parse_config(SAMPLE, environ={})
    assert cfg["mu"] == "1.5"
    assert cfg["sigma"] == "0.5"
    assert "gamma" in cfg
    assert get_float(cfg, "mu") == 1.5
    assert get_int(cfg, "lambda_c") == 30
    assert get_float(cfg, "missing", 7.0) == 7.0
    with pytest.raises(ConfigError, match="missing"):
        get_float(cfg, "nope")
    with pytest.raises(ConfigError, match="not a number"):
        get_float(cfg, "initiator")
    with pytest.raises(ConfigError, match="not an integer"):
        get_int(cfg, "mu")


def test_parse_config_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("this is not a pair", environ={})
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= value", environ={})


def test_check_known_keys_patterns():
    cfg = parse_config(SAMPLE + "n_cascades = 5\nmax_time = 9\n", environ={})
    with pytest.raises(ConfigError, match="unknown config key 'initiator'"):
        check_known_keys(cfg, "simulate")
    del cfg["initiator"]
    check_known_keys(cfg, "simulate")
    check_known_keys({"delay_bin.12.hi": "inf", "contagion.3.adopt_jitter_s": "0",
                      "graph_seed": "1", "k": "4"}, "synth")
    for command, key in [("simulate", "delay_bin.0.sigm1"), ("simulate", "delay_bin.x.lo"),
                         ("simulate", "delay_bin.0.lo.x"), ("simulate", "horizon_hours"),
                         ("synth", "contagion.0"), ("synth", "n_cascades"), ("graphgen", "mu")]:
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            check_known_keys({key: "1"}, command)


def test_environment_overrides():
    env = {
        "FEEDFLOW_MU": "9.0",
        "FEEDFLOW_DELAY_BIN__0__MU1": "5.5",
        "UNRELATED": "x",
    }
    cfg = parse_config(SAMPLE, environ=env)
    assert cfg["mu"] == "9.0"
    assert cfg["delay_bin.0.mu1"] == "5.5"
    assert "unrelated" not in cfg


def test_beta_curve_from():
    curve = beta_curve_from(parse_config(SAMPLE, environ={}))
    assert curve.lambda_c == 30.0
    assert curve.beta0 == 0.05
    assert curve.gamma == 0.65


def test_delay_model_from():
    dm = delay_model_from(parse_config(SAMPLE, environ={}))
    assert len(dm.bins) == 2
    assert dm.bins[0].hi == 100.0
    assert math.isinf(dm.bins[1].hi)
    assert dm.bins[1].mu1 == 4.0
    with pytest.raises(ConfigError, match="delay_bin"):
        delay_model_from({"mu": "1"})


def test_contagions_from_reads_every_index_in_order():
    cfg = {"contagion.2.token": "late", "contagion.2.n_seeds": "1", "contagion.2.hazard": "0.5",
           "contagion.1.token": "early", "contagion.1.n_seeds": "2", "contagion.1.hazard": "0.1",
           "contagion.1.overload_hazard": "0", "contagion.1.overload_threshold": "40"}
    plans = contagions_from(cfg)
    assert [p.token for p in plans] == ["early", "late"]
    assert (plans[0].overload_hazard, plans[0].overload_threshold) == (0.0, 40.0)
    assert plans[1].overload_hazard is None and plans[1].adopt_jitter_s == 600
    assert contagions_from({"mu": "1"}) == ()
    with pytest.raises(ConfigError, match="missing config key 'contagion.3.token'"):
        contagions_from({"contagion.3.hazard": "0.1"})
    with pytest.raises(ConfigError, match="'contagion.1.overload_hazard': not a number"):
        contagions_from(dict(cfg, **{"contagion.1.overload_hazard": "high"}))


def test_initiator_from():
    init = initiator_from(parse_config(SAMPLE, environ={}))
    assert init == ((0.9, 0.5), (0.5, 0.3))
    with pytest.raises(ConfigError, match="missing"):
        initiator_from({})
    with pytest.raises(ConfigError, match="4 comma-separated"):
        initiator_from({"initiator": "1, 2, 3"})
    with pytest.raises(ConfigError, match="non-numeric"):
        initiator_from({"initiator": "a, b, c, d"})
