"""Sampler pins and invariants of the scoring path.

The action hashes were recorded with one sub-policy MLP call per sub-policy
and one noise draw per denoising step; stacked scoring, the feature tables, the
per-sample step constants and the block noise draw must reproduce them bit
for bit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from modalcompose import compose as cp
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose.diffusion import make_schedule
from modalcompose.envs import env_reset, generate_dataset, make_env_spec
from modalcompose.errors import ContractError, NumericError
from modalcompose.rngstream import TAG_ACT, TAG_EVAL, TAG_TRAIN, stream
from modalcompose.router import train_router
from modalcompose.runconfig import RunConfig

# sha256 of the act() outputs of each policy over the observations and
# action streams of `act_digest`
PINNED = {
    "vis":
        "6248d6c2959a41f5ca9c61f335255704cda09884bfeb5d06037246f650352112",
    "tac":
        "6893df72c0879ff00a4854dcf5254275120ab0532c7f1855e4e1b17f1b40cfd2",
    "equal":
        "e08d46d828b2a727f1695c2715e3e50a6d186449704fab5931fe9ec087ec8cf9",
    "learned":
        "5c3707de202e2bf6347432aab694cb07a42fcf6206c2eb6aff173b3aafeada59",
    "concat":
        "6409a91fa8877da542229920044d52a1152cf10b86ae2a743148af034785065c",
    "moe":
        "b935a4afb8748c6e68da23889b4eb78ffe306b6a67bdb60565fe21085eb08c06",
    "band":
        "3bd39650611c46777e593c7faa6d2a576fd85efdc3491ff1dc06d827239f738e",
    "concat_beta_tilde":
        "5036066275571f67b3c9baaac68e14b70673e8fa2180a6f7829715cd6ebc2b48",
}


def pin_cfg(**expert):
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, sub_hidden=(32,),
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
    band_cfg = pin_cfg(n_sub=3, noise_band_split=True)
    band = xp.train_expert(ds, "vis", band_cfg, stream(11, TAG_TRAIN, 4))
    tilde_cfg = cfg.with_section("diffusion", sigma_mode="beta_tilde")
    return {
        "vis": cp.single_expert_policy(vis, sched, stats),
        "tac": cp.single_expert_policy(tac, sched, stats),
        "equal": cp.manual_compose([vis, tac], [0.5, 0.5], sched, stats),
        "learned": cp.compose_policy([vis, tac], router, "soft", sched, stats),
        "concat": cp.train_concat_policy(ds, cfg, stream(11, TAG_TRAIN, 5)),
        "moe": cp.train_moe_policy(ds, cfg, stream(11, TAG_TRAIN, 6)),
        "band": cp.single_expert_policy(band, sched, stats),
        "concat_beta_tilde": cp.train_concat_policy(ds, tilde_cfg,
                                                    stream(11, TAG_TRAIN, 7)),
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
# the stacked sub-policies


def fresh_expert(n_sub=3):
    cfg = pin_cfg(n_sub=n_sub).with_section("train", steps=0)
    return xp.init_expert("vis", 5, 2, 2, cfg, np.random.default_rng(8))


def test_in_place_edit_of_one_subpolicy_is_seen(rng):
    ex = fresh_expert()
    emb = ex.encode_rows(rng.normal(size=(3, 5)), rng.normal(size=(3, 2)))
    a = rng.normal(size=(3, 2))
    before = ex.score_rows(a, emb, 17)
    ex.subs[1].params["W0"].data[...] = 0.0
    after = ex.score_rows(a, emb, 17)
    assert not np.array_equal(before, after)
    x = np.concatenate([a, emb, xp.timestep_features(np.full(3, 17), ex.n_steps)],
                       axis=1)
    per_sub = [nc.mlp_infer(sp.params, sp.spec, x) for sp in ex.subs]
    assert np.array_equal(after, (per_sub[0] + per_sub[1] + per_sub[2]) / 3)


def test_experts_never_share_subpolicies(rng):
    ex = fresh_expert()
    emb = ex.encode_rows(rng.normal(size=(3, 5)), rng.normal(size=(3, 2)))
    a = rng.normal(size=(3, 2))
    before = ex.score_rows(a, emb, 17)
    twin = dataclasses.replace(ex)   # built from ex.subs
    assert all(t is not s for t, s in zip(twin.subs, ex.subs))
    ex.subs[1].params["W0"].data[...] = 0.0
    assert np.array_equal(twin.score_rows(a, emb, 17), before)
    x = np.concatenate([a, emb, xp.timestep_features(np.full(3, 17), ex.n_steps)],
                       axis=1)
    per_sub = [nc.mlp_infer(sp.params, sp.spec, x) for sp in ex.subs]
    assert np.array_equal(ex.score_rows(a, emb, 17),
                          (per_sub[0] + per_sub[1] + per_sub[2]) / 3)


def test_nonfinite_output_of_one_subpolicy_raises(rng):
    ex = fresh_expert()
    emb = ex.encode_rows(rng.normal(size=(1, 5)), rng.normal(size=(1, 2)))
    ex.subs[2].params["b1"].data[0] = np.inf
    with pytest.raises(NumericError, match="mlp_infer"):
        ex.score_rows(rng.normal(size=(1, 2)), emb, 3)
