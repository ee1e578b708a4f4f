"""Config parsing, hashing, scenario syntax, and CLI exit-code tests."""

import numpy as np
import pytest

from modalcompose import runconfig as rc
from modalcompose.cli import _parse_scenario, cli_dispatch
from modalcompose.envs import Dataset
from modalcompose.errors import ConfigError


# ---------------------------------------------------------------------------
# defaults and parsing


def test_documented_defaults():
    cfg = rc.RunConfig()
    assert cfg.train.steps == 5000
    assert cfg.train.batch == 64
    assert cfg.train.lr == 1e-3
    assert cfg.train.router_steps == 2000
    assert cfg.diffusion.steps == 50
    assert cfg.diffusion.beta_start == 1e-4
    assert cfg.diffusion.beta_end == 0.02
    assert cfg.expert.score_hidden == (64, 64)
    assert cfg.run.eval_n == 200
    assert cfg.probe.sigma_scale == 0.1
    assert cfg.probe.ema_alpha == 0.1


def test_parse_and_serialize_round_trip():
    cfg = rc.RunConfig()
    cfg = cfg.with_section("train", steps=123, lr=5e-4)
    cfg = cfg.with_section("expert", enc_hidden=(8, 4))
    cfg = cfg.with_section("router", joint=True)
    cfg = cfg.with_section("env", name="phase_reach")
    cfg = cfg.with_section("probe", modalities=("wpa", "wpb"))
    back = rc.parse_config_text(rc.config_text(cfg))
    assert back == cfg


def test_env_modalities_is_refused_until_it_selects_streams(tmp_path, capsys):
    with pytest.raises(ConfigError, match="ROADMAP item 4"):
        rc.parse_config_text("[env]\nmodalities = vis\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[env]\nmodalities = tac,vis\n[run]\nout = {tmp_path}\n")
    assert cli_dispatch(["gen-data", "--config", str(cfg), "--n", "1"]) == 1
    assert "not yet supported" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.mcds"))
    # the empty default still serializes, so config and model hashes stay put
    assert "[env]\nname = occluded_reach\nmodalities = \n" in rc.config_text(rc.RunConfig())


def test_parse_value_forms():
    text = """
[train]
steps = 42          # comment after value
lr = 2.5e-4

[router]
joint = yes
[expert]
enc_hidden = 16,8
[env]
modalities =
"""
    cfg = rc.parse_config_text(text)
    assert cfg.train.steps == 42
    assert cfg.train.lr == 2.5e-4
    assert cfg.router.joint is True
    assert cfg.expert.enc_hidden == (16, 8)
    assert cfg.env.modalities == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        rc.parse_config_text("[nowhere]")
    with pytest.raises(ConfigError, match="line 2"):
        rc.parse_config_text("[train]\nwidth = 3")
    with pytest.raises(ConfigError, match="line 2"):
        rc.parse_config_text("[train]\nsteps = many")
    with pytest.raises(ConfigError, match="line 1"):
        rc.parse_config_text("steps = 3")
    with pytest.raises(ConfigError, match="line 2"):
        rc.parse_config_text("[train]\nsteps 3")
    with pytest.raises(ConfigError, match="line 3"):
        rc.parse_config_text("[router]\n\njoint = maybe")


@pytest.mark.parametrize("section, key, value", [
    ("diffusion", "sigma_mode", "betta"), ("diffusion", "horizon", 0),
    ("diffusion", "steps", 0), ("diffusion", "beta_start", 0.5),
    ("diffusion", "beta_start", 0.0), ("expert", "activation", "gelu"), ("run", "strategy", ""),
    ("train", "steps", -1), ("train", "router_steps", -1), ("train", "batch", 0),
    ("train", "lr", -1.0), ("train", "lr", 0.0), ("train", "lr", float("nan")),
    ("train", "lr", float("inf")), ("probe", "draws", 0), ("probe", "ema_alpha", 2.0),
    ("run", "strategy", "bogus"), ("expert", "enc_out", 0), ("expert", "enc_hidden", (0, 64)),
    ("expert", "score_hidden", (-3,)), ("router", "hidden", (0,)), ("probe", "sigma_scale", -1.0),
    ("probe", "sigma_scale", float("nan")), ("probe", "modalities", ("vis", "vis")),
    ("run", "demos", 0), ("run", "eval_n", -5)])
def test_bad_values_are_refused_when_the_config_is_built(section, key, value):
    text = ",".join(map(str, value)) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must"):
        rc.parse_config_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must"):
        rc.RunConfig().with_section(section, **{key: value})


@pytest.mark.parametrize("key, value", [("n_sub", "1"), ("noise_band_split", "false"),
                                        ("sub_hidden", "64,64")])
def test_retired_expert_keys_are_unknown(key, value):
    """The averaged sub-policy stack and band split were retired, and the score
    nets' widths are score_hidden: their old keys are typos now."""
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[expert\\]"):
        rc.parse_config_text(f"[expert]\n{key} = {value}\n")
    assert rc.parse_config_text("[expert]\nscore_hidden = 8\n").expert.score_hidden == (8,)


@pytest.mark.parametrize("line, key, value", [
    ("out = runs#1", "out", "runs#1"), ("out = runs/#a  # a comment", "out", "runs/#a"),
    ("out = runs\t# a comment", "out", "runs"),
    ("dataset = data/#a.mcds", "dataset", "data/#a.mcds"), ("# out = elsewhere", "out", "runs")])
def test_a_hash_starts_a_comment_only_after_whitespace(line, key, value):
    """A '#' inside a value is part of it; one at the start of a line or after
    whitespace starts a comment."""
    cfg = rc.parse_config_text(f"[run]  # the run\n{line}\n")
    assert getattr(cfg.run, key) == value


def test_train_with_a_bad_config_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    good = f"[run]\ndemos = 1\nout = {out}\n[train]\nsteps = 0\nrouter_steps = 0\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(good)
    assert cli_dispatch(["gen-data", "--config", str(cfg)]) == 0
    before = sorted(out.iterdir())
    cfg.write_text(good.replace("steps = 0\nrouter", "steps = -1\nrouter"))
    assert cli_dispatch(["train", "--config", str(cfg)]) == 1
    assert "[train] steps" in capsys.readouterr().err
    assert sorted(out.iterdir()) == before


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        rc.load_config(tmp_path / "nope.cfg")


def test_a_config_that_cannot_be_read_is_a_config_error(tmp_path, capsys):
    """A directory or a file that is not UTF-8 is refused with ConfigError,
    and the CLI reports it instead of crashing."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[run]\nout = \xff\n")
    for path in (tmp_path, bad):
        with pytest.raises(ConfigError, match="cannot read config file"):
            rc.load_config(path)
    assert cli_dispatch(["gen-data", "--config", str(bad)]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_config_hash_tracks_all_sections():
    a = rc.RunConfig()
    assert rc.config_hash(a) == rc.config_hash(rc.RunConfig())
    b = a.with_section("run", seed=9)
    assert rc.config_hash(b) != rc.config_hash(a)


def test_model_hash_ignores_run_and_probe():
    a = rc.RunConfig()
    same = a.with_section("run", seed=9, out="elsewhere")
    same = same.with_section("probe", draws=5)
    assert rc.model_hash(same) == rc.model_hash(a)
    different = a.with_section("train", steps=10)
    assert rc.model_hash(different) != rc.model_hash(a)
    assert rc.model_hash(a.with_section("env", name="phase_reach")) != rc.model_hash(a)


# ---------------------------------------------------------------------------
# scenario syntax


def test_scenario_parsing():
    s = _parse_scenario("teleport@12")
    assert s.kind == "runtime_perturbation" and s.step_star == 12
    assert _parse_scenario("reposition").kind == "repositioning"
    c = _parse_scenario("corrupt:zero:vis")
    assert (c.kind, c.onset) == ("corruption", "start")
    assert c.corruption.kind == "zero" and c.corruption.modality == "vis"
    e = _parse_scenario("corrupt:freeze:tac@entry")
    assert e.onset == "occlusion_entry" and e.corruption.modality == "tac"
    g = _parse_scenario("corrupt:gaussian:vis:sigma=0.3")
    assert g.corruption.sigma_c == 0.3


def test_scenario_parse_errors():
    for bad in ("explode", "teleport@soon", "corrupt:zero",
                "corrupt:gaussian:vis:sigma=lots", "corrupt:zero:vis:color=red",
                "corrupt:melt:vis"):
        with pytest.raises(ConfigError):
            _parse_scenario(bad)


# ---------------------------------------------------------------------------
# CLI dispatch and exit codes


def test_unknown_subcommand_exits_2(capsys):
    assert cli_dispatch(["decompose"]) == 2
    capsys.readouterr()


def test_eval_has_no_env_flag(tmp_path, capsys):
    assert cli_dispatch(["eval", "--manifest", str(tmp_path / "m.mcpf"),
                         "--env", "phase_reach"]) == 2
    assert "--env" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli_dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    assert "gen-data" in out and "sweep" in out


def test_domain_errors_exit_1(tmp_path, capsys):
    assert cli_dispatch(["gen-data", "--env", "bogus", "--n", "1",
                         "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli_dispatch(["eval", "--manifest", str(tmp_path / "missing.mcpf"),
                         "--n", "1"]) == 1
    capsys.readouterr()


def test_sweep_with_a_size_that_is_no_integer_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_dispatch(["sweep", "--n", "25,abc", "--out", str(out)]) == 1
    assert "error: --n must be comma-separated integers, got '25,abc'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_cli_round_trip(tmp_path, capsys):
    code = cli_dispatch(["gen-data", "--env", "occluded_reach", "--n", "2",
                         "--seed", "4", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    path = tmp_path / "occluded_reach_n2_seed4.mcds"
    assert str(path) in out
    ds = Dataset.read(path)
    assert ds.n_episodes == 2
    assert ds.env_name == "occluded_reach"


def test_gen_data_cli_refuses_zero_demos(tmp_path, capsys):
    """--n 0 is refused as [run] demos = 0 is, not read as "no --n"."""
    assert cli_dispatch(["gen-data", "--n", "0", "--out", str(tmp_path)]) == 1
    assert "[run] demos must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gen_data_cli_explicit_file(tmp_path, capsys):
    target = tmp_path / "demos.mcds"
    code = cli_dispatch(["gen-data", "--env", "phase_reach", "--n", "1",
                         "--seed", "2", "--out", str(target)])
    assert code == 0
    capsys.readouterr()
    assert target.exists()
    assert Dataset.read(target).env_name == "phase_reach"


def test_config_file_drives_cli(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[env]\nname = phase_reach\n[run]\ndemos = 1\nseed = 6\n"
                   f"out = {tmp_path}\n")
    assert cli_dispatch(["gen-data", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "phase_reach_n1_seed6.mcds").exists()
