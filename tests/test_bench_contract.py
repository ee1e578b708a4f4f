"""The benchmark's tracer still finds, and sees called, every name it patches.

``perfbench/tracing.py`` wraps package functions and methods by name: ``act``
in each policy class's own body, ``ModalityExpert.score_rows`` and
``encode_rows``, ``Router.weights_rows``, ``ddpm_sample``, ``mlp_infer``
(whose rows it reads from axis 0 of the input) and the training, rollout and
I/O entry points. A refactor that renames or moves one of them breaks
``perfbench/run.py --trace 1``; these tests make that fail here first. The
tracer is loaded from its file as it is and uninstalled after every test.
Every other package name a perfbench file reads is resolved from its source,
so cutting one fails here too, not first in a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
import types
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _dotted(node) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def package_names(path: Path) -> set[tuple[int, str]]:
    """(line, full dotted name) of every package name a file reads: each
    name a ``from modalcompose... import`` takes, each attribute chain on a
    name so imported, and each (owner, "attr") pair, the form the tracer
    patches by."""
    tree = ast.parse(path.read_text(), str(path))
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modalcompose"):
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                found.add((node.lineno, f"{node.module}.{a.name}"))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("modalcompose"):
                    aliases[a.asname or "modalcompose"] = a.name if a.asname else "modalcompose"

    def full(node):
        name = _dotted(node)
        head, _, rest = (name or "").partition(".")
        if head in aliases:
            return aliases[head] + (f".{rest}" if rest else "")
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (name := full(node)):
            found.add((node.lineno, name))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and (owner := full(node.elts[0])) and isinstance(node.elts[1], ast.Constant)
              and isinstance(node.elts[1].value, str)):
            found.add((node.lineno, f"{owner}.{node.elts[1].value}"))
    return found


def resolves(name: str) -> bool:
    """Whether a dotted package name exists. Past a value that is neither a
    module nor a class, the rest names an instance's attributes, unchecked."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not isinstance(obj, (types.ModuleType, type)):
            return True
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_perfbench_reads_exists():
    """The benchmark's files, parsed as they are: a cut of a name they call
    (a module, function, class, method or constant) fails here."""
    seen, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for line, name in sorted(package_names(path)):
            seen.add(name)
            if not resolves(name):
                missing.append(f"perfbench/{path.name}:{line}: {name}")
    assert not missing, missing
    # the walk finds what the benchmark calls, in each form it calls it
    assert {"modalcompose.compose.single_expert_policy", "modalcompose.pipeline.RandomPolicy",
            "modalcompose.analysis.CorruptionMode", "modalcompose.runconfig.RunConfig",
            "modalcompose.envs.Dataset.read",
            "modalcompose.experts.ModalityExpert.score_rows"} <= seen


def test_a_cut_package_name_does_not_resolve(monkeypatch):
    assert resolves("modalcompose.compose.single_expert_policy")
    monkeypatch.delattr(cp, "single_expert_policy")
    assert not resolves("modalcompose.compose.single_expert_policy")
    assert not resolves("modalcompose.no_such_module.name")
    assert not resolves("modalcompose.experts.ModalityExpert.no_such_method")
