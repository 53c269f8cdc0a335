"""Config parsing, overrides, canonical formatting, digests, bridges."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlora.configfile import (_SCHEMA, apply_overrides, check_config,
                               config_digest, default_config, format_config,
                               load_config, parse_config, set_key,
                               to_method_spec, to_model_config, to_stream,
                               to_train_config)
from amlora.errors import ConfigError


def test_defaults_cover_schema():
    cfg = default_config()
    # every default must round-trip through its own parser
    for key, value in cfg.items():
        if isinstance(value, (tuple, list)):
            set_key(cfg, key, ",".join(str(v) for v in value))
        else:
            set_key(cfg, key, str(value))


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="lambada"):
        set_key(default_config(), "lambada", "0.1")


def test_type_errors_name_the_key():
    cfg = default_config()
    with pytest.raises(ConfigError, match="epochs"):
        set_key(cfg, "epochs", "two")
    with pytest.raises(ConfigError, match="lr"):
        set_key(cfg, "lr", "fast")
    with pytest.raises(ConfigError, match="method"):
        set_key(cfg, "method", "sgd")
    with pytest.raises(ConfigError, match="sites"):
        set_key(cfg, "sites", "query,gate")


def test_lambda_scalar_and_schedule():
    cfg = default_config()
    set_key(cfg, "lambda", "0.001")
    assert cfg["lambda"] == 0.001
    set_key(cfg, "lambda", "0,1e-5,1e-3")
    assert cfg["lambda"] == [0.0, 1e-5, 1e-3]
    with pytest.raises(ConfigError, match="lambda"):
        set_key(cfg, "lambda", "0.1,-0.2")
    with pytest.raises(ConfigError, match="lambda"):
        set_key(cfg, "lambda", "big")


def test_parse_config_text():
    cfg = parse_config("""
# experiment block
lr = 0.02        # inline comment
sites = query,value,ffn
method=inclora
""")
    assert cfg["lr"] == 0.02
    assert cfg["sites"] == ("query", "value", "ffn")
    assert cfg["method"] == "inclora"
    # untouched keys keep their defaults
    assert cfg["epochs"] == default_config()["epochs"]


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("lr=0.1\nnot a setting\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("lr=0.1\nlr=0.2\n")


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed=9\nmethod=seqft\n")
    cfg = load_config(str(p))
    assert cfg["seed"] == 9 and cfg["method"] == "seqft"


def test_apply_overrides():
    cfg = default_config()
    out = apply_overrides(cfg, ["lr=0.5", "variant=NR", "lr=0.25"])
    assert out["lr"] == 0.25 and out["variant"] == "NR"
    assert cfg["lr"] != 0.25  # original untouched
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        apply_overrides(cfg, ["lr:0.5"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(cfg, ["lrr=0.5"])


def test_format_round_trip_and_digest():
    cfg = default_config()
    cfg["lambda"] = [0.0, 1e-5]
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert config_digest(cfg) == config_digest(again)
    other = apply_overrides(cfg, ["seed=1"])
    assert config_digest(other) != config_digest(cfg)
    assert len(config_digest(cfg)) == 64


def test_bridges_build_consistent_objects():
    cfg = default_config()
    mc = to_model_config(cfg)
    assert (mc.vocab_size, mc.embed_dim, mc.num_layers) == (128, 32, 2)
    assert mc.adapter_sites == cfg["sites"]
    tc = to_train_config(cfg)
    tc.validate()
    assert tc.lr == cfg["lr"] and tc.pretrain_epochs == cfg["pretrain_epochs"]
    ms = to_method_spec(cfg)
    assert ms.name == cfg["method"] and ms.rank == cfg["r"]
    assert to_method_spec(dict(cfg, method="seqft")).name == "seqft"
    stream = to_stream(cfg)
    assert len(stream) == cfg["tasks"]
    assert stream.order_id == cfg["order"]
    stream2 = to_stream(cfg, seed=5)
    assert [t.seed for t in stream2.tasks] != [t.seed for t in stream.tasks]


@pytest.mark.parametrize("key,value", [
    ("lr", "nan"), ("lr", "inf"), ("lr", "-inf"), ("alpha", "nan"),
    ("pretrain_lr", "inf"), ("dropout", "nan"), ("p_sig", "-inf"),
    ("lambda", "nan"), ("lambda", "inf"),
])
def test_non_finite_float_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=rf"{key}.*finite"):
        apply_overrides(default_config(), [f"{key}={value}"])


def test_non_finite_float_in_config_file_names_line_and_key():
    with pytest.raises(ConfigError, match=r"line 3: alpha .*finite.*'inf'"):
        parse_config("seed=1\nlr=0.1\nalpha=inf\n")


def test_non_finite_lambda_schedule_element_rejected():
    with pytest.raises(ConfigError, match=r"lambda .*finite.*'0.1,nan,0.2'"):
        parse_config("lambda=0.1,nan,0.2\n")


def test_non_finite_override_exits_1_before_any_cell(tmp_path, capsys):
    from amlora.cli import parse_and_dispatch
    out = str(tmp_path / "out")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--override", "lr=nan"])
    assert rc == 1
    assert "lr" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_lambda_schedule_longer_than_tasks_is_rejected(tmp_path, capsys,
                                                      monkeypatch):
    from amlora import cli
    cfg = apply_overrides(default_config(), ["tasks=2", "lambda=0,1e-3"])
    assert check_config(cfg) is cfg
    short = apply_overrides(default_config(), ["lambda=0,1e-3"])
    assert check_config(short) is short
    assert to_method_spec(short).lam_at(3) == 1e-3  # the last value repeats
    cfg["lambda"] = [0.0, 1e-3, 1e-2]
    with pytest.raises(ConfigError, match=r"^lambda schedule has 3 entries, "
                                          r"more than tasks=2$"):
        check_config(cfg)
    ran = []
    monkeypatch.setattr(cli, "_try_cell", ran.append)
    monkeypatch.setattr(cli, "_run_cell", lambda *a: ran.append(a))
    for verb in ("run", "inspect-gates"):
        out = tmp_path / verb
        rc = cli.parse_and_dispatch([verb, "--out-dir", str(out),
                                     "--override", "tasks=2",
                                     "--override", "lambda=0,1e-3,1e-2"])
        assert rc == 1
        assert "error: lambda schedule has 3 entries" in capsys.readouterr().err
        assert ran == [] and not out.exists()


def test_readme_config_table_is_the_key_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = []
    for line in lines[lines.index("| key | default | meaning |") + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.split("|")[1:3]])
    assert [key for key, _ in rows] == list(_SCHEMA)
    defaults = default_config()
    for key, shown in rows:
        assert f"{key}={shown}\n" == format_config({key: defaults[key]}), key


def test_default_config_digest_is_pinned():
    # finite configs parse as before, so run directories keep their digest
    assert config_digest(default_config()) == (
        "e287f1dd9de96d6f4183d789d60d2bb913ae74b273eb467150ed299f9485ab5f")


_KEYS = sorted(default_config())
_VALUES = st.one_of(
    st.integers(-3, 8), st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["transformer", "mlp", "adam", "sgd", "NR", "AR",
                     "order2", "seqft", "rotated_gaussian", "ffn",
                     "query,key", "0,1e-3", "", "1e400"]))
_FUZZ = settings(derandomize=True, deadline=None, max_examples=1500)


def _checked_or_config_error(make):
    """Every outcome is a checked config dict or a ConfigError."""
    try:
        cfg = check_config(make())
    except ConfigError:
        return
    assert isinstance(cfg, dict) and set(cfg) == set(default_config())


@_FUZZ
@given(st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=4))
def test_fuzzed_overrides_give_a_config_or_a_config_error(pairs):
    _checked_or_config_error(lambda: apply_overrides(
        default_config(), [f"{k}={v}" for k, v in pairs]))


@_FUZZ
@given(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4))
def test_fuzzed_config_text_gives_a_config_or_a_config_error(entries):
    _checked_or_config_error(lambda: parse_config(
        "".join(f"{k}={v}\n" for k, v in entries.items())))
