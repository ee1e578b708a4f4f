"""Orchestration tests: training pipeline, manifests, evaluation, sweeps."""

from pathlib import Path

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose import pipeline as pl
from modalcompose.cli import cli_dispatch
from modalcompose.compose import compose_policy, manual_compose
from modalcompose.diffusion import make_schedule
from modalcompose.envs import Dataset, env_reset, make_env_spec
from modalcompose.experts import timestep_features, train_expert
from modalcompose.numcore import mlp_infer
from modalcompose.errors import ConfigError, ContractError, FormatError
from modalcompose.rngstream import TAG_ACT, TAG_EVAL, TAG_TRAIN, stream
from modalcompose.rollout import evaluate_policy, run_policy_episode
from modalcompose.router import train_router
from modalcompose.runconfig import RunConfig
from tests.oracles import eval_scripted, read_metrics_csv


def tiny_cfg(tmp_path, **run_over):
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(8,), enc_out=4, score_hidden=(16,))
    cfg = cfg.with_section("router", hidden=(8,))
    cfg = cfg.with_section("train", steps=30, batch=8, lr=1e-3, router_steps=15)
    run = dict(demos=2, eval_n=4, out=str(tmp_path), seed=3)
    run.update(run_over)
    return cfg.with_section("run", **run)


# ---------------------------------------------------------------------------
# data generation


def test_gen_data_default_naming(tmp_path):
    cfg = tiny_cfg(tmp_path)
    path = pl.gen_data(cfg)
    assert path == tmp_path / "occluded_reach_n2_seed3.mcds"
    assert path.exists()


def test_training_requires_dataset(tmp_path):
    cfg = tiny_cfg(tmp_path, dataset=str(tmp_path / "absent.mcds"))
    with pytest.raises(ConfigError):
        pl.run_training(cfg)


def test_method_validation(tmp_path):
    cfg = tiny_cfg(tmp_path, methods=("expert:audio",))
    pl.gen_data(cfg)
    with pytest.raises(ConfigError):
        pl.run_training(cfg)
    dup = tiny_cfg(tmp_path, methods=("concat", "concat"))
    with pytest.raises(ConfigError):
        pl.run_training(dup)
    alien = tiny_cfg(tmp_path, methods=("distill",))
    with pytest.raises(ConfigError):
        pl.run_training(alien)


@pytest.mark.parametrize("edit", ["horizon", "env"])
def test_training_refuses_a_dataset_its_config_did_not_make(tmp_path, edit):
    """A horizon-1 dataset read back under a horizon-4 config (same default
    path), or an occluded_reach dataset named by a phase_reach config, is
    refused before any training, and nothing is written."""
    cfg = tiny_cfg(tmp_path, methods=("concat",))
    data = pl.gen_data(cfg)
    if edit == "horizon":
        cfg = cfg.with_section("diffusion", horizon=4)
    else:
        cfg = cfg.with_section("env", name="phase_reach").with_section("run", dataset=str(data))
    with pytest.raises(ConfigError, match="the config asks for"):
        pl.run_training(cfg)
    assert list(tmp_path.iterdir()) == [data]


# ---------------------------------------------------------------------------
# training outputs


def test_single_method_trains_one_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path, methods=("expert:tac",))
    pl.gen_data(cfg)
    written = pl.run_training(cfg)
    assert list(written) == ["expert:tac"]
    path = written["expert:tac"]
    assert path.name == "expert-tac_seed3.mcpf"
    ck = cpt.load_checkpoint(path)
    assert ck.metadata["kind"] == "expert"
    assert ck.metadata["modality"] == "tac"
    loss_csv = tmp_path / "loss_expert-tac_seed3.csv"
    assert loss_csv.exists()
    lines = loss_csv.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + 30


def test_default_methods_cover_everything(tmp_path):
    cfg = tiny_cfg(tmp_path)
    pl.gen_data(cfg)
    written = pl.run_training(cfg)
    assert set(written) == {"expert:vis", "expert:tac", "router", "concat", "moe"}
    kinds = {m: cpt.load_checkpoint(p).metadata["kind"] for m, p in written.items()}
    assert kinds["router"] == "router"
    assert kinds["concat"] == "concat"
    assert kinds["moe"] == "moe"


def test_router_only_request_trains_needed_experts(tmp_path):
    cfg = tiny_cfg(tmp_path, methods=("router",))
    pl.gen_data(cfg)
    written = pl.run_training(cfg)
    assert list(written) == ["router"]
    ck = cpt.load_checkpoint(written["router"])
    assert ck.metadata["modality_order"] == ["vis", "tac"]


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a", methods=("expert:vis", "router"))
    pl.gen_data(cfg_a)
    wa = pl.run_training(cfg_a)
    cfg_b = tiny_cfg(tmp_path / "b", methods=("expert:vis", "router"))
    pl.gen_data(cfg_b)
    wb = pl.run_training(cfg_b)
    for m in wa:
        assert wa[m].read_bytes() == wb[m].read_bytes(), m


def test_joint_run_writes_the_fine_tuned_experts(tmp_path):
    """A joint run's saved experts and router compose into the policy it
    trained in memory, bit for bit, and each expert's checked score_rows is
    its fine-tuned score net's plain ``mlp_infer``."""
    cfg = tiny_cfg(tmp_path, methods=("expert:vis", "expert:tac", "router"))
    cfg = cfg.with_section("router", joint=True)
    pl.gen_data(cfg)
    written = pl.run_training(cfg)
    ds = Dataset.read(pl.default_dataset_path(cfg, tmp_path))
    seed = cfg.run.seed
    experts = [train_expert(ds, m, cfg, stream(seed, TAG_TRAIN, 1 + i))
               for i, m in enumerate(("vis", "tac"))]
    router = train_router(experts, ds, cfg, stream(seed, TAG_TRAIN, pl._ROUTER_LABEL))
    sched = make_schedule(cfg.diffusion.steps)
    in_memory = compose_policy(experts, router, "soft", sched, ds.stats())
    man = tmp_path / "joint.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name,
                                    written["expert:tac"].name],
                      router_path=written["router"].name, stats_hash=ds.stats().key())
    loaded, _ = pl.load_manifest(man)
    spec = make_env_spec("occluded_reach")
    for i in range(3):
        _, obs = env_reset(spec, stream(4, TAG_EVAL, i))
        want = in_memory.act(obs, stream(4, TAG_ACT, i))
        assert loaded.act(obs, stream(4, TAG_ACT, i)).tobytes() == want.tobytes()
    g = np.random.default_rng(0)
    for ex in experts:
        emb = ex.encode_rows(g.normal(size=(4, ex.enc.spec.input_dim)), g.normal(size=(4, 2)))
        a, ks = g.normal(size=(4, 2)), np.array([1, 9, 30, 50])
        x = np.concatenate([a, emb, timestep_features(ks, ex.n_steps)], axis=1)
        assert np.array_equal(ex.score_rows(a, emb, ks),
                              mlp_infer(ex.score_params, ex.score_spec, x))


# ---------------------------------------------------------------------------
# manifests


def trained_paths(tmp_path, methods=("expert:vis", "expert:tac", "router")):
    cfg = tiny_cfg(tmp_path, methods=methods)
    pl.gen_data(cfg)
    return cfg, pl.run_training(cfg)


def test_manifest_round_trip_with_router(tmp_path):
    cfg, written = trained_paths(tmp_path)
    _, stats, _ = cpt.expert_from_checkpoint(
        cpt.load_checkpoint(written["expert:vis"]))
    key = stats.key()
    man = tmp_path / "composed.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name,
                                    written["expert:tac"].name],
                      router_path=written["router"].name,
                      strategy="soft", stats_hash=key)
    policy, meta = pl.load_manifest(man)
    assert policy.router is not None
    assert policy.modality_order == ("vis", "tac")
    assert meta["env"] == "occluded_reach"


def test_compose_checkpoints_builds_both_kinds_of_composition(tmp_path, recwarn):
    """The one loader of composed policies: router or fixed weights, with the
    strategy it is given, and the metadata of every checkpoint it read."""
    _, written = trained_paths(tmp_path)
    experts = [written["expert:vis"], written["expert:tac"]]
    routed, metas = pl.compose_checkpoints(experts, router=written["router"], strategy="hard")
    assert routed.router is not None and routed.strategy == "hard"
    assert [m["kind"] for m in metas] == ["expert", "expert", "router"]
    fixed, metas = pl.compose_checkpoints(experts, weights=[0.25, 0.75], strategy="top2")
    assert fixed.router is None and fixed.strategy == "top2"
    assert np.array_equal(fixed.fixed_w, [0.25, 0.75]) and len(metas) == 2
    with pytest.raises(ContractError, match="at least one expert checkpoint"):
        pl.compose_checkpoints([], weights=[])
    for bad in ({}, dict(router=written["router"], weights=[1.0, 3.0])):
        with pytest.raises(ContractError, match="exactly one of router or weights"):
            pl.compose_checkpoints(experts, **bad)
    assert not recwarn.list   # weights beside a router are refused as given


@pytest.mark.parametrize("method", ["expert:vis", "concat"])
def test_eval_of_a_checkpoint_reads_it_once(tmp_path, monkeypatch, method):
    """eval of a checkpoint reads and parses the file once, also when an
    expert becomes its one-expert composition."""
    _, written = trained_paths(tmp_path, methods=(method,))
    calls = []
    load = cpt.load_checkpoint
    monkeypatch.setattr(cpt, "load_checkpoint", lambda path: calls.append(path) or load(path))
    pl.run_eval(written[method], 1, seed=0)
    assert calls == [written[method]]


def test_manifest_paths_may_contain_hash(tmp_path):
    """Only whole-line comments are stripped, so a '#' in a checkpoint path
    survives the round trip."""
    _, written = trained_paths(tmp_path / "run#1")
    man = tmp_path / "composed.txt"
    args = ["compose", "--experts", f"{written['expert:vis']},{written['expert:tac']}",
            "--router", str(written["router"]), "--out", str(man)]
    assert cli_dispatch(args) == 0
    assert "run#1/" in man.read_text()
    policy, _ = pl.load_manifest(man)
    assert policy.router is not None
    assert policy.modality_order == ("vis", "tac")


def test_manifest_with_fixed_weights(tmp_path):
    cfg, written = trained_paths(tmp_path, methods=("expert:vis", "expert:tac"))
    man = tmp_path / "equal.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name,
                                    written["expert:tac"].name],
                      weights=[0.5, 0.5])
    policy, _ = pl.load_manifest(man)
    assert policy.router is None
    assert np.allclose(policy.fixed_w, [0.5, 0.5])


@pytest.mark.parametrize("command", [("eval",), ("robust", "--scenario", "reposition")])
def test_eval_and_robust_read_the_run_section_of_config(tmp_path, command):
    """Without --seed and --n, both commands take [run] seed (and eval
    [run] eval_n) from --config; without --config, seed 0."""
    _, written = trained_paths(tmp_path, methods=("expert:vis",))
    man = tmp_path / "vis.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name], weights=[1.0])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nseed = 5\neval_n = 2\n")
    n = [] if command[0] == "eval" else ["--n", "2"]
    csvs = []
    for extra in (["--config", str(cfg), *n], ["--seed", "5", "--n", "2"], ["--n", "2"]):
        out = tmp_path / f"{len(csvs)}.csv"
        assert cli_dispatch([*command, "--manifest", str(man), "--out", str(out), *extra]) == 0
        csvs.append(out)
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    assert {row["seed"] for row in read_metrics_csv(csvs[2])} == {0}


def test_analyze_takes_a_checkpoint_as_eval_does(tmp_path):
    """A checkpoint traces as the one-expert manifest that wraps it."""
    cfg, written = trained_paths(tmp_path, methods=("expert:vis",))
    man = tmp_path / "vis.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name], weights=[1.0])
    conf = tmp_path / "run.cfg"
    conf.write_text(f"[run]\ndataset = {pl.default_dataset_path(cfg, tmp_path)}\n")
    for target, out in ((written["expert:vis"], "ck"), (man, "man")):
        assert cli_dispatch(["analyze", "--manifest", str(target), "--config", str(conf),
                             "--n", "1", "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "ck" / "trace_ep0.csv").read_bytes()
            == (tmp_path / "man" / "trace_ep0.csv").read_bytes())


def test_analyze_refuses_fewer_than_one_trace_and_writes_nothing(tmp_path, capsys):
    cfg, written = trained_paths(tmp_path, methods=("expert:vis",))
    conf = tmp_path / "run.cfg"
    conf.write_text(f"[run]\ndataset = {pl.default_dataset_path(cfg, tmp_path)}\n")
    out = tmp_path / "traces"
    assert cli_dispatch(["analyze", "--manifest", str(written["expert:vis"]), "--config",
                         str(conf), "--n", "-2", "--out", str(out)]) == 1
    assert "error: --n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_robust_takes_a_checkpoint_and_labels_manifests_composed(tmp_path):
    _, written = trained_paths(tmp_path, methods=("expert:vis",))
    man = tmp_path / "vis.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name], weights=[1.0])
    rows = {}
    for target, label in ((written["expert:vis"], "expert:vis"), (man, "composed")):
        out = tmp_path / f"{target.name}.csv"
        assert cli_dispatch(["robust", "--manifest", str(target), "--n", "2",
                             "--scenario", "teleport@5", "--out", str(out)]) == 0
        rows[label] = read_metrics_csv(out)
        assert [row["method"] for row in rows[label]] == [label, label]
    strip = lambda rs: [{k: v for k, v in row.items() if k != "method"} for row in rs]
    assert strip(rows["expert:vis"]) == strip(rows["composed"])


def test_robust_refuses_an_unknown_corruption_modality_before_the_baseline(
        tmp_path, capsys, monkeypatch):
    _, written = trained_paths(tmp_path, methods=("expert:vis",))

    def no_step(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr("modalcompose.rollout.env_step", no_step)
    out = tmp_path / "r.csv"
    assert cli_dispatch(["robust", "--manifest", str(written["expert:vis"]), "--n", "20",
                         "--scenario", "corrupt:zero:vsi", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'vsi'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [("eval",), ("analyze",),
                                     ("robust", "--scenario", "reposition")])
def test_policy_commands_refuse_a_manifest_that_is_not_utf8(tmp_path, command, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"env = occluded_reach\nexpert = \xff\xfe.mcpf\n")
    with pytest.raises(FormatError, match="UTF-8"):
        pl.load_manifest(bad)
    assert cli_dispatch([*command, "--manifest", str(bad), "--n", "1"]) == 1
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("weights, error", [("half,0.5", FormatError), ("0.5,", FormatError),
                                            ("nan,0.5", ContractError)])
def test_manifest_rejects_bad_weights(tmp_path, weights, error):
    cfg, written = trained_paths(tmp_path, methods=("expert:vis", "expert:tac"))
    man = tmp_path / "bad.txt"
    man.write_text(f"env = occluded_reach\nexpert = {written['expert:vis'].name}\n"
                   f"expert = {written['expert:tac'].name}\nweights = {weights}\n")
    with pytest.raises(error):
        pl.load_manifest(man)
    assert cli_dispatch(["eval", "--manifest", str(man), "--n", "1"]) == 1


def test_manifest_refuses_an_unknown_strategy_at_load(tmp_path):
    _, written = trained_paths(tmp_path, methods=("expert:vis",))
    man = tmp_path / "bogus.txt"
    man.write_text(f"env = occluded_reach\nstrategy = bogus\n"
                   f"expert = {written['expert:vis'].name}\nweights = 1.0\n")
    with pytest.raises(FormatError, match="strategy"):
        pl.load_manifest(man)


@pytest.mark.parametrize("lines, error", [
    ("stratgey = hard\nweights = 0.5,0.5", "unknown key 'stratgey'"),
    ("strategy = hard\nstrategy = soft\nweights = 0.5,0.5", "repeated key 'strategy'"),
    ("router = {router}\nweights = 0.5,0.5", "both router and weights"),
    ("env = phase_reach\nweights = 0.5,0.5", "env 'phase_reach' is not"),
])
def test_manifest_refuses_lines_it_would_misread(tmp_path, lines, error):
    """A misspelt or repeated key, a weights line beside a router, and an env
    other than the checkpoints' are refused at load, not read some other way."""
    _, written = trained_paths(tmp_path)
    man = tmp_path / "m.txt"
    man.write_text(f"expert = {written['expert:vis'].name}\n"
                   f"expert = {written['expert:tac'].name}\n"
                   + lines.format(router=written["router"].name) + "\n")
    with pytest.raises(FormatError, match=error):
        pl.load_manifest(man)


@pytest.mark.parametrize("flags", [
    ["--experts", "a.mcpf,b.mcpf"],
    ["--experts", "a.mcpf,b.mcpf", "--weights", "1,3", "--router", "r.mcpf"],
    ["--experts", " , ", "--weights", "1"],
])
def test_compose_usage_errors_come_before_any_file_is_read(tmp_path, flags, capsys, recwarn):
    """Neither or both of --weights and --router, or no expert, is refused as
    a usage error before any checkpoint is read (none of these files exist)."""
    assert cli_dispatch(["compose", *flags, "--out", str(tmp_path / "m.txt")]) == 1
    assert "--weights or --router" in capsys.readouterr().err
    assert not recwarn.list and not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("weights", ["0", "nan", "half", "0.5,0.5"])
def test_failed_compose_writes_no_manifest(tmp_path, weights, capsys):
    _, written = trained_paths(tmp_path, methods=("expert:vis",))
    man = tmp_path / "m.txt"
    assert cli_dispatch(["compose", "--experts", str(written["expert:vis"]),
                         "--weights", weights, "--out", str(man)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not man.exists()


def test_manifest_validation(tmp_path):
    """write_manifest writes the lines it is given, for a policy already built
    from them; a manifest no policy could be built from is refused at load."""
    _, written = trained_paths(tmp_path, methods=("expert:vis",))
    for weighting, error in ((dict(router_path="r", weights=[1.0]), "both router and weights"),
                             ({}, "neither router nor weights"),
                             (dict(weights=[1.0], strategy="fuzzy"), "strategy 'fuzzy'")):
        man = tmp_path / "m.txt"
        pl.write_manifest(man, env_name="occluded_reach",
                          expert_paths=[written["expert:vis"].name], **weighting)
        with pytest.raises(FormatError, match=error):
            pl.load_manifest(man)
    with pytest.raises(FormatError):
        pl.load_manifest(tmp_path / "missing.txt")


def test_manifest_stats_hash_mismatch(tmp_path):
    cfg, written = trained_paths(tmp_path, methods=("expert:vis", "expert:tac"))
    man = tmp_path / "bad.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name,
                                    written["expert:tac"].name],
                      weights=[0.5, 0.5], stats_hash="deadbeefdeadbeef")
    with pytest.raises(ContractError):
        pl.load_manifest(man)


def test_manifest_rejects_incompatible_checkpoints(tmp_path):
    """An expert of a run that differs only in [train] steps composes: its
    checkpoint records another config hash, but no fact the policy computes
    with differs. One of a run with another [diffusion] steps is refused,
    naming the schedule."""
    cfg, written = trained_paths(tmp_path, methods=("expert:vis",))
    for name, section, knob in (("steps", "train", dict(steps=31)),
                                ("schedule", "diffusion", dict(steps=20))):
        other = tiny_cfg(tmp_path / name, methods=("expert:tac",))
        pl.gen_data(other)
        alien = pl.run_training(other.with_section(section, **knob))["expert:tac"]
        man = tmp_path / f"{name}.txt"
        pl.write_manifest(man, env_name="occluded_reach",
                          expert_paths=[written["expert:vis"].name, str(alien)],
                          weights=[0.5, 0.5])
        if name == "steps":
            assert pl.load_manifest(man)[0].modality_order == ("vis", "tac")
        else:
            with pytest.raises(ContractError, match="schedule differs"):
                pl.load_manifest(man)


@pytest.mark.parametrize("section, knob", [("router", dict(hidden=(4,))),
                                           ("train", dict(steps=31))])
def test_experts_of_runs_that_differ_off_their_facts_compose(tmp_path, section, knob):
    """A vis expert and the tac expert of a run that differs only in [router]
    hidden or [train] steps compose through a manifest, acting bit for bit as
    manual_compose of the same experts trained in memory."""
    cfgs = [tiny_cfg(tmp_path / "a", methods=("expert:vis",)),
            tiny_cfg(tmp_path / "b", methods=("expert:tac",)).with_section(section, **knob)]
    paths, experts = [], []
    for i, (cfg, mod) in enumerate(zip(cfgs, ("vis", "tac"))):
        pl.gen_data(cfg)
        paths.append(str(pl.run_training(cfg)[f"expert:{mod}"]))
        ds = Dataset.read(pl.default_dataset_path(cfg, Path(cfg.run.out)))
        experts.append(train_expert(ds, mod, cfg, stream(cfg.run.seed, TAG_TRAIN, 1 + i)))
    assert cpt.load_checkpoint(paths[0]).metadata["config_hash"] != \
        cpt.load_checkpoint(paths[1]).metadata["config_hash"]
    man = tmp_path / "cross.txt"
    pl.write_manifest(man, env_name="occluded_reach", expert_paths=paths, weights=[0.5, 0.5])
    loaded, _ = pl.load_manifest(man)
    in_memory = manual_compose(experts, [0.5, 0.5], make_schedule(), ds.stats())
    spec = make_env_spec("occluded_reach")
    for i in range(3):
        _, obs = env_reset(spec, stream(4, TAG_EVAL, i))
        want = in_memory.act(obs, stream(4, TAG_ACT, i))
        assert loaded.act(obs, stream(4, TAG_ACT, i)).tobytes() == want.tobytes()


def test_a_beta_tilde_run_composes_with_its_own_router(tmp_path):
    """The router names no sigma_mode, so it composes beside its run's
    beta_tilde experts, and the policy samples in their mode."""
    cfg = tiny_cfg(tmp_path).with_section("diffusion", sigma_mode="beta_tilde")
    pl.gen_data(cfg)
    written = pl.run_training(cfg)
    man = tmp_path / "tilde.txt"
    pl.write_manifest(man, env_name="occluded_reach",
                      expert_paths=[written["expert:vis"].name, written["expert:tac"].name],
                      router_path=written["router"].name)
    policy, _ = pl.load_manifest(man)
    assert policy.router is not None and policy.sched.sigma_mode == "beta_tilde"


@pytest.mark.parametrize("name", ["", "x" * 300], ids=["directory", "long_name"])
def test_readers_refuse_a_path_they_cannot_read_as_a_file(tmp_path, name, capsys):
    """A directory ('' names the run directory itself) or a name longer than
    the OS takes is a FormatError from every reader, never an OSError: as the
    path given, and as a manifest's expert line."""
    path = tmp_path / name
    readers = (cpt.load_checkpoint, pl.load_manifest, Dataset.read,
               lambda p: pl.run_eval(p, 1, seed=0))
    for read in readers:
        with pytest.raises(FormatError, match="cannot read"):
            read(path)
    man = tmp_path / "m.txt"
    man.write_text(f"expert = {name}\nweights = 1\n")
    with pytest.raises(FormatError, match="cannot read checkpoint"):
        pl.load_manifest(man)
    assert cli_dispatch(["eval", "--manifest", str(man), "--n", "1"]) == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluation


def test_run_eval_validation(tmp_path):
    with pytest.raises(ContractError):
        pl.run_eval(pl.RandomPolicy(2), 0, seed=1, env_name="occluded_reach",
                    method="random")
    with pytest.raises(ContractError):
        pl.run_eval(pl.RandomPolicy(2), 4, seed=1)
    with pytest.raises(FormatError):
        pl.run_eval(tmp_path / "nothing.mcpf", 4, seed=1)


def test_scripted_oracle_beats_random_floor():
    scripted = eval_scripted("occluded_reach", 40, seed=7)[0]
    assert scripted["method"] == "scripted"
    assert scripted["success_rate"] >= 0.95
    random_row = pl.run_eval(pl.RandomPolicy(2), 40, seed=7,
                             env_name="occluded_reach", method="random")[0]
    assert random_row["success_rate"] <= 0.05
    assert random_row["param_count"] == 0


def test_eval_from_checkpoint_path(tmp_path):
    cfg, written = trained_paths(tmp_path, methods=("expert:vis",))
    rows = pl.run_eval(written["expert:vis"], 3, seed=2)
    assert rows[0]["method"] == "expert:vis"
    assert rows[0]["task"] == "occluded_reach"
    assert rows[0]["param_count"] > 0
    assert 0.0 <= rows[0]["success_rate"] <= 1.0


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        {"task": "occluded_reach", "method": "composed", "success_rate": 0.9167,
         "mean_steps": 41.25, "param_count": 123, "seed": 0},
        {"task": "occluded_reach@50", "method": "concat", "success_rate": 1.0,
         "mean_steps": 38.0, "param_count": 456, "seed": 1},
    ]
    path = tmp_path / "metrics.csv"
    pl.write_metrics_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "task,method,success_rate,mean_steps,param_count,seed"
    back = read_metrics_csv(path)
    assert back == rows


# ---------------------------------------------------------------------------
# rollout helpers


class Still:
    def act(self, obs, rng):
        return np.zeros(2)

    def n_params(self):
        return 0


def test_rollout_deterministic_and_bounded():
    spec = make_env_spec("occluded_reach")
    a = run_policy_episode(pl.RandomPolicy(2), spec, 5, 0)
    b = run_policy_episode(pl.RandomPolicy(2), spec, 5, 0)
    assert a.success == b.success and a.steps == b.steps
    assert np.asarray(a.actions).tobytes() == np.asarray(b.actions).tobytes()
    assert a.steps <= spec.t_max


def test_rollout_obs_filter_changes_view_not_env():
    spec = make_env_spec("occluded_reach")

    class EchoVis:
        def act(self, obs, rng):
            return np.tanh(obs.modalities["vis"][:2])

    def blank(obs, state, t):
        out = obs.copy()
        out.modalities["vis"] = np.zeros(5)
        return out

    plain = run_policy_episode(EchoVis(), spec, 9, 0)
    filtered = run_policy_episode(EchoVis(), spec, 9, 0, obs_filter=blank)
    assert np.asarray(filtered.actions).tobytes() != np.asarray(plain.actions).tobytes()
    # a zeroed view pins the action to zero, freezing the agent in place
    assert np.allclose(np.asarray(filtered.actions), 0.0)


def test_evaluate_policy_contract():
    spec = make_env_spec("occluded_reach")
    with pytest.raises(ContractError):
        evaluate_policy(Still(), spec, 1, 0)
    rate, steps = evaluate_policy(Still(), spec, 1, 3)
    assert rate == 0.0 and steps == spec.t_max


# ---------------------------------------------------------------------------
# sweep


def test_sweep_size_validation(tmp_path):
    cfg = tiny_cfg(tmp_path)
    with pytest.raises(ConfigError):
        pl.sweep_dataset_size(cfg, [])
    with pytest.raises(ConfigError):
        pl.sweep_dataset_size(cfg, [4, 4])
    with pytest.raises(ConfigError):
        pl.sweep_dataset_size(cfg, [6, 4])


def test_sweep_rows_shape(tmp_path):
    cfg = tiny_cfg(tmp_path, eval_n=3)
    rows = pl.sweep_dataset_size(cfg, [2, 3])
    assert len(rows) == 4
    assert [r["task"] for r in rows] == ["occluded_reach@2", "occluded_reach@2",
                                        "occluded_reach@3", "occluded_reach@3"]
    assert [r["method"] for r in rows] == ["composed", "concat"] * 2
    for r in rows:
        assert 0.0 <= r["success_rate"] <= 1.0
        assert r["param_count"] > 0
