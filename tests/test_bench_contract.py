"""The benchmark's tracer still finds, and sees called, every name it patches.

``perfbench/tracing.py`` wraps package functions and methods by name: ``act``
in each policy class's own body, ``ModalityExpert.score_rows`` and
``encode_rows``, ``Router.weights_rows``, ``ddpm_sample``, ``mlp_infer``
(whose rows it reads from axis 0 of the input) and the training, rollout and
I/O entry points. A refactor that renames or moves one of them breaks
``perfbench/run.py --trace 1``; these tests make that fail here first. The
tracer is loaded from its file as it is and uninstalled after every test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from modalcompose import analysis as an
from modalcompose import compose as cp
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose import pipeline as pl
from modalcompose import router as rt
from modalcompose.diffusion import make_schedule
from modalcompose.envs import env_reset, make_env_spec
from modalcompose.rngstream import TAG_ACT, TAG_EVAL, stream
from modalcompose.runconfig import ProbeConfig, RunConfig
from tests.conftest import constant_action_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer():
    """A fresh Tracer from perfbench/tracing.py, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module.Tracer()


@pytest.fixture
def tracer():
    tr = load_tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def tiny_cfg(steps=0):
    cfg = RunConfig().with_section("expert", enc_hidden=(8,), enc_out=4, score_hidden=(8,))
    cfg = cfg.with_section("router", hidden=(4,))
    return cfg.with_section("train", steps=steps, batch=8, router_steps=steps)


def calls(tr, name):
    return tr.total(name, "main")[0]


def test_install_patches_and_uninstall_restores():
    patched = [(cls, "act") for cls in (cp.ComposedPolicy, cp.ConcatPolicy,
                                        cp.MoEFeaturePolicy)]
    patched += [(xp.ModalityExpert, "score_rows"), (xp.ModalityExpert, "encode_rows"),
                (rt.Router, "weights_rows"), (nc, "mlp_infer"), (cp, "ddpm_sample")]
    before = [vars(owner)[attr] for owner, attr in patched]
    tr = load_tracer()
    tr.install()
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(patched, before))
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(patched, before))


def test_traced_names_see_sampling(tracer):
    g = np.random.default_rng(3)
    cfg = tiny_cfg()
    experts = [xp.init_expert("vis", 5, 2, 2, cfg, g), xp.init_expert("tac", 3, 2, 2, cfg, g)]
    router = rt.init_router(("vis", "tac"), (6, 6), (4,), g)
    stats = constant_action_dataset([0.1, 0.2]).stats()
    policy = cp.compose_policy(experts, router, "soft", make_schedule(), stats)
    _, obs = env_reset(make_env_spec("occluded_reach"), stream(1, TAG_EVAL, 0))
    policy.act(obs, stream(1, TAG_ACT, 0, 0))
    # 2 encoders, 1 router, 1 score of both experts' stacks at each of 50 steps
    assert calls(tracer, "compose.act.learned") == 1
    assert calls(tracer, "diffusion.ddpm_sample") == 1
    assert calls(tracer, "experts.encode_rows") == 2
    assert calls(tracer, "router.weights_rows") == 1
    assert calls(tracer, "experts.score_rows") == 0
    assert calls(tracer, "numcore.mlp_infer") == 53
    # the tracer reads rows from axis 0 of every mlp_infer input, which is
    # the expert axis (2) of a stacked score
    assert tracer.counts_of("main")["mlp_infer.rows"] == 3 + 2 * 50
    # B rows in one call: rows on axis 0 of the encoder and router inputs
    policy.act_rows([obs] * 3, [stream(1, TAG_ACT, 0, t) for t in range(3)])
    assert calls(tracer, "numcore.mlp_infer") == 53 + 53
    assert calls(tracer, "experts.score_rows") == 0
    assert tracer.counts_of("main")["mlp_infer.rows"] == 103 + 3 * 3 + 2 * 50
    ds = constant_action_dataset([0.1, 0.2])
    for kind, trainer in (("concat", cp.train_concat_policy), ("moe", cp.train_moe_policy)):
        trainer(ds, cfg, g).act(obs, stream(1, TAG_ACT, 0, 0))
        assert calls(tracer, f"compose.act.{kind}") == 1


def test_traced_moe_act_calls_its_gate_as_a_router(tracer):
    """The MoE gate is a Router, so router.weights_rows counts it once per
    act(); its encoders are no experts, so experts.encode_rows (and the
    repeat share read from it) stays a count of expert embeddings."""
    policy = cp.train_moe_policy(constant_action_dataset([0.1, 0.2]), tiny_cfg(),
                                 np.random.default_rng(3))
    _, obs = env_reset(make_env_spec("occluded_reach"), stream(1, TAG_EVAL, 0))
    policy.act(obs, stream(1, TAG_ACT, 0, 0))
    assert calls(tracer, "compose.act.moe") == 1
    assert calls(tracer, "router.weights_rows") == 1
    assert calls(tracer, "experts.encode_rows") == 0


def test_expert_training_step_records_two_mlp_forwards(tracer):
    """One graph forward for the encoder and one for the score net."""
    ds = constant_action_dataset([0.1, 0.2])
    xp.train_expert(ds, "vis", tiny_cfg(steps=1), np.random.default_rng(0))
    assert calls(tracer, "numcore.mlp_forward") == 2


def test_traced_run_training_sees_the_fusion_trainers(tracer, tmp_path):
    """Both fusion trainers, and the router's, whose run trains each expert once."""
    cfg = tiny_cfg(steps=1).with_section("run", methods=("concat", "moe", "router"), demos=1,
                                         out=str(tmp_path))
    pl.gen_data(cfg)
    pl.run_training(cfg)
    assert calls(tracer, "pipeline.run_training") == 1
    assert calls(tracer, "compose.train_concat_policy") == 1
    assert calls(tracer, "compose.train_moe_policy") == 1
    assert calls(tracer, "router.train_router") == 1
    assert calls(tracer, "experts.train_expert") == 2
    assert calls(tracer, "diffusion.fit_denoiser") == 5


def test_traced_names_see_training_and_probing(tracer):
    ds = constant_action_dataset([0.1, 0.2])
    xp.train_expert(ds, "vis", tiny_cfg(steps=2), np.random.default_rng(0))
    for name in ("experts.train_expert", "diffusion.fit_denoiser", "numcore.adam_step",
                 "diffusion.denoise_loss", "numcore.mlp_forward", "numcore.backward"):
        assert calls(tracer, name) >= 1, name
    spec = make_env_spec("occluded_reach")
    sigmas = {m: np.full(d, 0.1) for m, d in spec.modality_dims().items()}
    trace = an.perturb_importance(pl.RandomPolicy(2), spec, 3, ProbeConfig(), sigmas)
    assert calls(tracer, "analysis.perturb_importance") == 1
    assert calls(tracer, "rollout.run_policy_episode") == 1
    assert calls(tracer, "envs.env_step") == trace.steps
    assert tracer.counts_of("main")["probe.steps"] == trace.steps
    assert tracer.counts_of("main")["rollout.episode_steps"] == trace.steps
    assert calls(tracer, "rngstream.stream") > trace.steps
