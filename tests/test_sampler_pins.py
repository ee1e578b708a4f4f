"""Sampler pins and invariants of the scoring path.

The action hashes were recorded with one MLP call per score net and one noise
draw per denoising step; stacked scoring, the feature tables, the per-sample
step constants and the block noise draw must reproduce them bit for bit. The
expert-based pins (``vis``, ``tac``, ``equal``, ``learned`` and their probes)
were re-recorded with one score net per expert when the averaged sub-policy
stack was retired. ``three``, a fixed (0.2, 0.3, 0.5) mix of [vis, tac,
vis], was recorded while every mix still ran through ``np.add.reduce``; the
one-row mix in Python floats must reproduce it. Sampling B rows in one
act_rows call must reproduce B act() calls bit for bit too.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from modalcompose import analysis as an
from modalcompose import compose as cp
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose.diffusion import make_schedule
from modalcompose.envs import env_reset, env_step, generate_dataset, make_env_spec
from modalcompose.errors import ContractError, NumericError
from modalcompose.rngstream import TAG_ACT, TAG_EVAL, TAG_TRAIN, stream
from modalcompose.rollout import run_policy_episode
from modalcompose.router import init_router, train_router
from modalcompose.runconfig import ProbeConfig, RunConfig

# sha256 of the act() outputs of each policy over the observations and
# action streams of `act_digest`
PINNED = {
    "vis":
        "b0a01d37f6a9a653fbfa865c95f10d9d7910c3541213fb1a208c0baea0787b1b",
    "tac":
        "a1055564fd46dc01028c09ec719dcf1830641980af31726346cb3a9cea094aba",
    "equal":
        "a50ee41eebc632429973b8119e210c6b30b6fade6500ade363cc34f309dad7b0",
    "learned":
        "895aed6328fa5eadbbfef48da6846aaceb632d6bf77dbccbd0c1b1dd59ce9295",
    "concat":
        "6409a91fa8877da542229920044d52a1152cf10b86ae2a743148af034785065c",
    "moe":
        "b935a4afb8748c6e68da23889b4eb78ffe306b6a67bdb60565fe21085eb08c06",
    "concat_beta_tilde":
        "5036066275571f67b3c9baaac68e14b70673e8fa2180a6f7829715cd6ebc2b48",
    "three":
        "1abc4366474647593c93d289cb3f4a48dc47ccfff0386ddff6fc3a749a9987af",
}


def pin_cfg(**expert):
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,),
                           **expert)
    cfg = cfg.with_section("router", hidden=(8,))
    return cfg.with_section("train", steps=40, batch=16, lr=2e-3, router_steps=20)


@pytest.fixture(scope="module")
def policies():
    spec = make_env_spec("occluded_reach")
    ds = generate_dataset(spec, 4, seed=11)
    stats = ds.stats()
    cfg = pin_cfg()
    sched = make_schedule(cfg.diffusion.steps)
    vis = xp.train_expert(ds, "vis", cfg, stream(11, TAG_TRAIN, 1))
    tac = xp.train_expert(ds, "tac", cfg, stream(11, TAG_TRAIN, 2))
    router = train_router([vis, tac], ds, cfg, stream(11, TAG_TRAIN, 3))
    tilde_cfg = cfg.with_section("diffusion", sigma_mode="beta_tilde")
    return {
        "vis": cp.single_expert_policy(vis, sched, stats),
        "tac": cp.single_expert_policy(tac, sched, stats),
        "equal": cp.manual_compose([vis, tac], [0.5, 0.5], sched, stats),
        "learned": cp.compose_policy([vis, tac], router, "soft", sched, stats),
        "concat": cp.train_concat_policy(ds, cfg, stream(11, TAG_TRAIN, 5)),
        "moe": cp.train_moe_policy(ds, cfg, stream(11, TAG_TRAIN, 6)),
        "concat_beta_tilde": cp.train_concat_policy(ds, tilde_cfg,
                                                    stream(11, TAG_TRAIN, 7)),
        "three": cp.manual_compose([vis, tac, vis], [0.2, 0.3, 0.5], sched, stats),
    }


def act_digest(policy) -> str:
    spec = make_env_spec("occluded_reach")
    h = hashlib.sha256()
    for i in range(3):
        _, obs = env_reset(spec, stream(5, TAG_EVAL, i))
        for j in range(2):
            h.update(policy.act(obs, stream(5, TAG_ACT, i, j)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_act_outputs_are_pinned(policies, kind):
    assert act_digest(policies[kind]) == PINNED[kind]


# ---------------------------------------------------------------------------
# the row path: act_rows over B observations is B act() calls


def mixed_observations(n):
    """n observations from different episodes, steps and contact states, every
    third one with a perturbed vision reading."""
    spec = make_env_spec("occluded_reach")
    g = np.random.default_rng(3)
    out = []
    for i in range(n):
        state, obs = env_reset(spec, stream(9, TAG_EVAL, i))
        for _ in range(3 * i):
            state, obs, _, _ = env_step(state, np.array([1.0, 0.5 - 0.2 * i]))
        if i % 3 == 2:
            obs = obs.copy()
            obs.modalities["vis"] = obs.modalities["vis"] + 0.1 * g.standard_normal(5)
        out.append(obs)
    return out


def assert_rows_match_acts(policy, obs_rows):
    """One act_rows call equals per-row act(), on distinct streams per row and
    on one stream repeated across rows."""
    n = len(obs_rows)
    for make_rngs in (lambda: [stream(5, TAG_ACT, r, 1) for r in range(n)],
                      lambda: [stream(5, TAG_ACT, 0, 0) for _ in range(n)]):
        got = policy.act_rows(obs_rows, make_rngs())
        want = np.array([policy.act(obs, g) for obs, g in zip(obs_rows, make_rngs())])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B", [1, 3, 7])
@pytest.mark.parametrize("kind", sorted(PINNED))
def test_act_rows_equal_per_row_act(policies, kind, B):
    assert_rows_match_acts(policies[kind], mixed_observations(B))


def test_act_rows_with_rows_on_different_experts(policies):
    """Hard routing zeroes a different expert on different rows; each row must
    still be its own expert's sample bit for bit."""
    learned = policies["learned"]
    router = init_router(learned.router.modality_order, learned.router.emb_dims, (8,),
                         np.random.default_rng(0))
    router.params["W1"].data *= 20.0   # weights that swing from row to row
    hard = dataclasses.replace(learned, router=router, strategy="hard")
    obs = mixed_observations(7)
    chosen = {int(np.argmax(hard.weights_for(o))) for o in obs}
    assert chosen == {0, 1}
    assert_rows_match_acts(hard, obs)
    one_off = cp.manual_compose(learned.experts, [0.0, 1.0], learned.sched, learned.stats)
    assert_rows_match_acts(one_off, obs)


def test_act_rows_needs_one_generator_per_row(policies):
    obs = mixed_observations(2)
    with pytest.raises(ContractError):
        policies["equal"].act_rows(obs, [stream(5, TAG_ACT, 0, 0)])
    with pytest.raises(ContractError):
        policies["concat"].act_rows([], [])


def test_probe_of_a_trained_policy(policies):
    """Probing a trained composed policy drives the plain rollout's episode,
    and zero perturbations give exactly zero importance."""
    policy = policies["learned"]
    spec = make_env_spec("occluded_reach")
    rec = run_policy_episode(policy, spec, 4, 1)
    dims = spec.modality_dims()
    for scale in (0.0, 0.1):
        sigmas = {m: np.full(d, scale) for m, d in dims.items()}
        trace = an.perturb_importance(policy, spec, 4, ProbeConfig(draws=2), sigmas,
                                      episode=1)
        assert trace.steps == rec.steps and trace.success == rec.success
        assert trace.positions.tobytes() == np.asarray(rec.positions).tobytes()
        for m in trace.modalities:
            assert np.array_equal(trace.raw[m], np.zeros(trace.steps)) == (scale == 0.0)


# sha256 of the raw then the EMA importance of every probed modality, for one
# probed episode of each policy at draws = 2
PINNED_PROBES = {
    "vis":
        "3f5f22ee44811ae36741bd5b5d90584b9d5efe7c672345e94adfdc1c0b5b4113",
    "tac":
        "852772d4b25b0e04fd26ffd55d22c74734ae805e7d18baf2bd664155489eb4f4",
    "equal":
        "8138f4ddc0e7026f5e712a4c0942d76244b6a5bd8d49ed8f1cfd7e33f51fac3f",
    "learned":
        "0e3440ae7946ceb6ff912edcda3ce07eb53270f3c49c85d32d42c9a3fd864104",
    "concat":
        "bc9a24ac26f9f4f01fdbd7b0ce985b77bef3939afedef9ab86752b5957d57f8f",
    "moe":
        "4f444fa7f30467deeea863df97ca15298ac422ecb164534a3555781737677f6c",
}


@pytest.mark.parametrize("kind", sorted(PINNED_PROBES))
def test_probe_importance_is_pinned(policies, kind):
    spec = make_env_spec("occluded_reach")
    sigmas = {m: np.full(d, 0.1) for m, d in spec.modality_dims().items()}
    trace = an.perturb_importance(policies[kind], spec, 4, ProbeConfig(draws=2), sigmas,
                                  episode=1)
    h = hashlib.sha256()
    for series in (trace.raw, trace.ema):
        for m in trace.modalities:
            h.update(series[m].tobytes())
    assert h.hexdigest() == PINNED_PROBES[kind]


# ---------------------------------------------------------------------------
# timestep features


def formula(k, K):
    """The feature formula, written out: sin/cos of (k/K) * f for 8
    geometric frequencies f from 1 to K."""
    t = np.asarray(k, dtype=np.float64) / K
    freqs = float(K) ** (np.arange(8) / 7) if K > 1 else np.ones(8)
    angles = t[..., None] * freqs
    out = np.empty(t.shape + (16,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


@pytest.mark.parametrize("K", [1, 2, 7, 50])
def test_feature_table_equals_formula(K):
    ks = np.arange(1, K + 1)
    for k in ks:
        assert np.array_equal(xp.timestep_features(int(k), K), formula(k, K))
    assert np.array_equal(xp.timestep_features(ks, K), formula(ks, K))
    rev = ks[::-1].copy()
    assert np.array_equal(xp.timestep_features(rev, K), formula(rev, K))


@pytest.mark.parametrize("K", [1, 2, 7, 50])
def test_feature_index_outside_range_raises(K):
    """Never a wrapped-around row of the table."""
    for bad in (0, -1, K + 1, np.array([1, 0]), np.array([K + 1])):
        with pytest.raises(ContractError):
            xp.timestep_features(bad, K)


# ---------------------------------------------------------------------------
# an expert's one score net


def fresh_expert():
    cfg = pin_cfg().with_section("train", steps=0)
    return xp.init_expert("vis", 5, 2, 2, cfg, np.random.default_rng(8))


def test_in_place_edit_of_the_score_net_is_seen(rng):
    ex = fresh_expert()
    emb = ex.encode_rows(rng.normal(size=(3, 5)), rng.normal(size=(3, 2)))
    a = rng.normal(size=(3, 2))
    before = ex.score_rows(a, emb, 17)
    ex.score_params["W0"].data[1] = 0.0
    after = ex.score_rows(a, emb, 17)
    assert not np.array_equal(before, after)
    x = np.concatenate([a, emb, xp.timestep_features(np.full(3, 17), ex.n_steps)],
                       axis=1)
    assert np.array_equal(after, nc.mlp_infer(ex.score_params, ex.score_spec, x))


def test_nonfinite_output_of_the_score_net_raises(rng):
    ex = fresh_expert()
    emb = ex.encode_rows(rng.normal(size=(1, 5)), rng.normal(size=(1, 2)))
    ex.score_params["b1"].data[0] = np.inf
    with pytest.raises(NumericError, match="mlp_infer"):
        ex.score_rows(rng.normal(size=(1, 2)), emb, 3)
