"""Per-modality expert tests: features, scoring, training."""

import numpy as np
import pytest

from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose.compose import single_expert_policy
from modalcompose.diffusion import make_schedule
from modalcompose.errors import ConfigError, ContractError, ShapeError
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset
from tests.oracles import expert_checksum


def small_cfg(steps=0, depth=1):
    """Small shapes; the score net has ``depth`` hidden layers of 32."""
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,) * depth)
    return cfg.with_section("train", steps=steps, batch=16, lr=1e-3)


# ---------------------------------------------------------------------------
# timestep features


def test_timestep_features_shape_and_range():
    f = xp.timestep_features(7, 50)
    assert f.shape == (16,)
    assert np.all(np.abs(f) <= 1.0)
    fb = xp.timestep_features(np.array([1, 2, 3]), 50)
    assert fb.shape == (3, 16)
    assert np.array_equal(fb[1], xp.timestep_features(2, 50))


def test_timestep_features_distinct_for_every_step():
    rows = xp.timestep_features(np.arange(1, 51), 50)
    assert len({r.tobytes() for r in rows}) == 50
    # the base-frequency cosine decreases strictly in k
    base_cos = rows[:, 1]
    assert np.all(np.diff(base_cos) < 0)


def test_timestep_features_manual_formula():
    k, K = 13, 50
    t = k / K
    freqs = 50.0 ** (np.arange(8) / 7)
    f = xp.timestep_features(k, K)
    assert np.allclose(f[0::2], np.sin(t * freqs), atol=1e-15)
    assert np.allclose(f[1::2], np.cos(t * freqs), atol=1e-15)


# ---------------------------------------------------------------------------
# wiring, encode, scoring


def make_expert(rng):
    return xp.init_expert("vis", 5, 2, 2, small_cfg(), rng)


def encode(ex, m, rs):
    return ex.encode_rows(m[None, :], rs[None, :])


def score(ex, a_k, e, k):
    return ex.score_rows(a_k[None, :], e, k)[0]


def test_encode_shape_and_validation(rng):
    ex = make_expert(rng)
    e = encode(ex, rng.normal(size=5), rng.normal(size=2))
    assert e.shape == (1, 8 + 2)
    assert np.array_equal(e[0, -2:], e[0, -2:])  # robot state present at the tail
    with pytest.raises(ShapeError):
        encode(ex, rng.normal(size=4), rng.normal(size=2))
    with pytest.raises(ShapeError):
        encode(ex, rng.normal(size=5), rng.normal(size=3))


def test_encode_appends_robot_state_verbatim(rng):
    ex = make_expert(rng)
    rs = np.array([0.25, -0.75])
    e = encode(ex, rng.normal(size=5), rs)
    assert np.array_equal(e[0, -2:], rs)


def test_score_rows_validates_k_and_dims(rng):
    ex = make_expert(rng)
    e = encode(ex, rng.normal(size=5), rng.normal(size=2))
    with pytest.raises(ContractError):
        score(ex, np.zeros(2), e, 0)
    with pytest.raises(ContractError):
        score(ex, np.zeros(2), e, 51)
    with pytest.raises(ShapeError):
        score(ex, np.zeros(3), e, 1)


def test_score_rows_matches_single_calls(rng):
    ex = make_expert(rng)
    m = rng.normal(size=(4, 5))
    rs = rng.normal(size=(4, 2))
    a = rng.normal(size=(4, 2))
    ks = np.array([1, 10, 30, 50])
    emb = ex.encode_rows(m, rs)
    batched = ex.score_rows(a, emb, ks)
    for r in range(4):
        single = score(ex, a[r], encode(ex, m[r], rs[r]), int(ks[r]))
        assert np.allclose(batched[r], single, atol=1e-12)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_training_graph_scores_as_score_rows(rng, depth, relu):
    """Training and inference compute the same function: the graph's score
    equals score_rows on the same 2-D rows bit for bit, tanh or relu, with a
    score net of 1 to 3 hidden layers."""
    cfg = small_cfg(depth=depth).with_section("expert", activation="relu" if relu else "tanh")
    ex = xp.init_expert("vis", 5, 2, 2, cfg, rng)
    m, rs, a = rng.normal(size=(64, 5)), rng.normal(size=(64, 2)), rng.normal(size=(64, 2))
    ks = rng.integers(1, ex.n_steps + 1, size=64)
    graph, emb = xp._expert_score_graph(ex, a, m, rs, ks)
    assert np.array_equal(emb.data, ex.encode_rows(m, rs))
    assert np.array_equal(graph.data, ex.score_rows(a, emb.data, ks))


def net_oracle(ex, a, e, ks):
    """score_rows written out: the expert's net on concatenated
    [a, e, features] rows."""
    n = a.shape[0]
    feats = xp.timestep_features(np.broadcast_to(ks, (n,)), ex.n_steps)
    x = np.concatenate([a, e, feats.reshape(a.shape[:-1] + (-1,))], axis=-1)
    return nc.mlp_infer(ex.score_params, ex.score_spec, x)


@pytest.mark.parametrize("act", ["tanh", "relu"])
@pytest.mark.parametrize("row_stacked", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
@pytest.mark.parametrize("n_exp", [1, 2, 3])
def test_stacked_scores_are_each_expert_alone(rng, n_exp, depth, row_stacked, act):
    """Each expert's checked score_rows is its net alone, bit for bit; the
    sampler's bound mixed_score, one stacked call over E experts, gives each
    of them alone under a one-hot weight and their weighted sum in expert
    order. On 2-D rows (64 of them, with a k per row or one k) or on B
    row-stacked rows at one k of either half of the schedule, with score
    nets of ``depth`` hidden layers."""
    cfg = small_cfg(depth=depth).with_section("expert", activation=act)
    experts = [xp.init_expert(m, d, 2, 2, cfg, rng)
               for m, d in (("vis", 5), ("tac", 3), ("aud", 4))[:n_exp]]
    lay = nc.row_layout if row_stacked else np.asarray
    cases = [(b, k) for b in ((1, 3, 7) if row_stacked else (64,)) for k in (50, 25)]
    if not row_stacked:
        cases.append((64, rng.integers(1, 51, size=64)))
    for n, ks in cases:
        a = lay(rng.normal(size=(n, 2)))
        embs = [ex.encode_rows(lay(rng.normal(size=(n, ex.enc.spec.input_dim))),
                               lay(rng.normal(size=(n, 2)))) for ex in experts]
        alone = np.array([ex.score_rows(a, e, ks) for ex, e in zip(experts, embs)])
        assert alone.shape == (n_exp,) + a.shape
        for ex, e, got in zip(experts, embs, alone):
            assert np.array_equal(got, net_oracle(ex, a, e, ks))
        if not isinstance(ks, int):
            continue
        for i in range(n_exp):
            hot = lay(np.eye(n_exp)[i][:, None, None] * np.ones((n_exp, n, 1)))
            assert np.array_equal(xp.mixed_score(experts, embs, hot)(a, ks), alone[i])
        w = rng.dirichlet(np.ones(n_exp), size=n).T if n_exp > 1 else np.ones((1, n))
        w = lay(w[:, :, None])
        mixed = xp.mixed_score(experts, embs, w)(a, ks)
        assert np.array_equal(mixed, np.add.reduce(alone * w, axis=0))


def test_expert_param_count(rng):
    ex = make_expert(rng)
    # encoder 5->16->8 plus the score net (2+10+16)->32->2
    enc = 5 * 16 + 16 + 16 * 8 + 8
    score = 28 * 32 + 32 + 32 * 2 + 2
    assert ex.n_params() == enc + score
    assert ex.enc.emb_dim == 10


def test_expert_needs_a_score_net_of_its_spec(rng):
    """No net, a one-net stack (an old sub-policy stack's shapes) and a net
    of another spec are shape errors when the expert is built."""
    ex = make_expert(rng)
    one_stack = nc.ParamSet()
    for name, t in ex.score_params.items():
        one_stack.add(name, t.data[None])
    odd = nc.init_mlp(nc.MlpSpec(28, (16,), 2), rng)
    for params in (nc.ParamSet(), one_stack, odd):
        with pytest.raises(ShapeError):
            xp.ModalityExpert(ex.enc, params, ex.score_spec, 50)


def test_init_expert_deterministic():
    a = make_expert(np.random.default_rng(21))
    b = make_expert(np.random.default_rng(21))
    assert expert_checksum(a) == expert_checksum(b)
    c = make_expert(np.random.default_rng(22))
    assert expert_checksum(c) != expert_checksum(a)


# ---------------------------------------------------------------------------
# training


def test_train_expert_unknown_modality(const_dataset):
    with pytest.raises(ConfigError):
        xp.train_expert(const_dataset, "audio", small_cfg(), np.random.default_rng(0))


def test_train_expert_zero_steps_keeps_init(const_dataset):
    trained = xp.train_expert(const_dataset, "vis", small_cfg(steps=0),
                              np.random.default_rng(5))
    fresh = xp.init_expert("vis", 5, 2, 2, small_cfg(), np.random.default_rng(5))
    assert trained.loss_history == []
    assert expert_checksum(trained) == expert_checksum(fresh)


def test_train_expert_reproducible(const_dataset):
    one = xp.train_expert(const_dataset, "vis", small_cfg(steps=40),
                          np.random.default_rng(9))
    two = xp.train_expert(const_dataset, "vis", small_cfg(steps=40),
                          np.random.default_rng(9))
    assert expert_checksum(one) == expert_checksum(two)
    assert one.loss_history == two.loss_history


def test_train_expert_recovers_constant_action():
    """Sampled actions should center on the dataset's constant action."""
    ds = constant_action_dataset(np.array([0.3, -0.4]))
    cfg = small_cfg(steps=1500).with_section("train", steps=1500, batch=32, lr=2e-3)
    ex = xp.train_expert(ds, "vis", cfg, np.random.default_rng(2))
    assert len(ex.loss_history) == 1500
    assert np.mean(ex.loss_history[-50:]) < np.mean(ex.loss_history[:50])
    policy = single_expert_policy(ex, make_schedule(), ds.stats())
    rng = np.random.default_rng(77)
    obs_rng = np.random.default_rng(3)
    from modalcompose.envs import Observation
    for _ in range(3):
        obs = Observation(modalities={"vis": obs_rng.normal(size=5),
                                      "tac": obs_rng.normal(size=3)},
                          robot_state=obs_rng.normal(size=2))
        mean = np.mean([policy.act(obs, rng) for _ in range(8)], axis=0)
        assert np.allclose(mean, [0.3, -0.4], atol=0.1), mean
