"""Consensus-weight network and routing-strategy tests."""

import numpy as np
import pytest

from modalcompose import experts as xp
from modalcompose import router as rt
from modalcompose.compose import compose_policy
from modalcompose.diffusion import make_schedule
from modalcompose.envs import Observation
from modalcompose.errors import ConfigError, ContractError
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset
from tests.oracles import checksum, expert_checksum


def small_cfg(router_steps=0, joint=False):
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,))
    cfg = cfg.with_section("router", hidden=(8,), joint=joint)
    return cfg.with_section("train", steps=0, batch=16, lr=1e-3,
                            router_steps=router_steps)


# ---------------------------------------------------------------------------
# weight validity and strategies


def test_random_routers_emit_valid_weights(rng):
    """Softmax output is positive and sums to 1 for arbitrary routers."""
    for trial in range(100):
        n = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 7)) for _ in range(n))
        router = rt.init_router(tuple(f"m{i}" for i in range(n)), dims, (6,), rng)
        embs = [rng.normal(size=d) * 3 for d in dims]
        w = router.weights_rows(np.concatenate(embs)[None, :])[0]
        assert w.shape == (n,)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_zero_logit_router_is_uniform(rng):
    router = rt.init_router(("a", "b", "c"), (2, 2, 2), (4,), rng)
    for _, t in router.params.items():
        t.data[...] = 0.0
    w = router.weights_rows(np.ones((1, 6)))[0]
    assert np.allclose(w, 1 / 3, atol=1e-15)


def test_soft_strategy_is_bitwise_identity(rng):
    raw = rng.random(4)
    w = raw / raw.sum()
    out = rt.apply_strategy(w, "soft")
    assert out.tobytes() == w.tobytes()


def test_hard_strategy_one_hot_and_ties():
    assert np.array_equal(rt.apply_strategy(np.array([0.2, 0.5, 0.3]), "hard"),
                          [0.0, 1.0, 0.0])
    # tie broken toward the lowest index
    assert np.array_equal(rt.apply_strategy(np.array([0.4, 0.4, 0.2]), "hard"),
                          [1.0, 0.0, 0.0])


def test_top2_hand_oracle():
    out = rt.apply_strategy(np.array([0.2, 0.5, 0.3]), "top2")
    assert np.allclose(out, [0.0, 0.625, 0.375], atol=1e-15)
    tie = rt.apply_strategy(np.array([0.4, 0.4, 0.2]), "top2")
    assert np.allclose(tie, [0.5, 0.5, 0.0], atol=1e-15)


def test_top2_equals_soft_for_two_modalities(rng):
    raw = rng.random(2)
    w = raw / raw.sum()
    assert rt.apply_strategy(w, "top2").tobytes() == w.tobytes()


def test_strategies_idempotent_bitwise(rng):
    raw = rng.random(5)
    w = raw / raw.sum()
    for strategy in rt.STRATEGIES:
        once = rt.apply_strategy(w, strategy)
        twice = rt.apply_strategy(once, strategy)
        assert twice.tobytes() == once.tobytes(), strategy


def strategy_one_row(w, strategy):
    """apply_strategy as it was written for one vector at a time: the
    reference the row-wise version must match bit for bit."""
    if strategy == "soft":
        return w
    out = np.zeros_like(w)
    if strategy == "hard":
        out[int(np.argmax(w))] = 1.0
        return out
    if w.shape[0] <= 2 or np.count_nonzero(w) <= 2:
        return w
    keep = np.argsort(-w, kind="stable")[:2]
    out[keep] = w[keep] / w[keep].sum()
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strategies_over_rows_equal_one_row_at_a_time(rng, n):
    """Rows with ties, one-hot rows, rows with two nonzero weights and
    random rows, all in one call, each bit for bit as alone."""
    raw = rng.random((6, n))
    ties = {2: [[0.5, 0.5]],
            3: [[0.4, 0.4, 0.2], [0.5, 0.25, 0.25], [0.5, 0.0, 0.5]],
            4: [[0.3, 0.3, 0.2, 0.2], [0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5]]}[n]
    w = np.vstack([raw / raw.sum(axis=1, keepdims=True), np.eye(n), ties])
    for strategy in rt.STRATEGIES:
        got = rt.apply_strategy(w, strategy)
        assert got.shape == w.shape
        for r, row in enumerate(w):
            want = strategy_one_row(row, strategy)
            assert got[r].tobytes() == want.tobytes(), (strategy, row)
            assert rt.apply_strategy(row, strategy).tobytes() == want.tobytes()
    with pytest.raises(ContractError):
        rt.apply_strategy(np.vstack([w[0], [0.6] * n]), "hard")


def test_strategy_and_weight_validation():
    w = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        rt.apply_strategy(w, "softmax")
    with pytest.raises(ContractError):
        rt.apply_strategy(np.array([0.5, 0.6]), "soft")
    with pytest.raises(ContractError):
        rt.check_weights(np.array([-0.1, 1.1]))
    # NaN compares false with everything, so its sum check alone would pass
    for bad in ([np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ContractError, match="finite"):
            rt.check_weights(np.array(bad))
    with pytest.raises(ContractError):
        rt.check_weights(w, 3)
    with pytest.raises(ContractError):
        rt.check_weights(np.array([[0.5, 0.5]]))


def test_router_weights_validates_embeddings(rng):
    """A router is only composed with experts of its modality count and
    embedding widths."""
    cfg = small_cfg()
    experts = [xp.init_expert("a", 3, 2, 2, cfg, rng), xp.init_expert("b", 4, 2, 2, cfg, rng)]
    stats = constant_action_dataset([0.1, 0.2]).stats()
    sched = make_schedule()
    one = rt.init_router(("a",), (10,), (5,), rng)
    with pytest.raises(ContractError):
        compose_policy(experts, one, "soft", sched, stats)
    narrow = rt.init_router(("a", "b"), (10, 9), (5,), rng)
    with pytest.raises(ContractError):
        compose_policy(experts, narrow, "soft", sched, stats)


def test_weights_rows_matches_single(rng):
    router = rt.init_router(("a", "b"), (3, 4), (5,), rng)
    embs = [(rng.normal(size=3), rng.normal(size=4)) for _ in range(6)]
    cat = np.stack([np.concatenate(p) for p in embs])
    batch = router.weights_rows(cat)
    for r in range(len(embs)):
        assert np.allclose(batch[r], router.weights_rows(cat[r:r + 1])[0], atol=1e-14)


# ---------------------------------------------------------------------------
# training


def two_experts(const_dataset, cfg, seed=5):
    rng = np.random.default_rng(seed)
    return [xp.train_expert(const_dataset, m, cfg, rng) for m in ("vis", "tac")]


def test_train_router_validation(const_dataset):
    cfg = small_cfg()
    experts = two_experts(const_dataset, cfg)
    with pytest.raises(ContractError):
        rt.train_router([], const_dataset, cfg, np.random.default_rng(0))
    with pytest.raises(ContractError):
        rt.train_router([experts[0], experts[0]], const_dataset, cfg,
                        np.random.default_rng(0))
    stranger = xp.init_expert("audio", 5, 2, 2, cfg, np.random.default_rng(1))
    with pytest.raises(ConfigError):   # the dataset refuses a stream it lacks
        rt.train_router([stranger], const_dataset, cfg, np.random.default_rng(0))


def test_train_router_freezes_experts(const_dataset):
    cfg = small_cfg(router_steps=30)
    experts = two_experts(const_dataset, cfg)
    before = [expert_checksum(ex) for ex in experts]
    router = rt.train_router(experts, const_dataset, cfg, np.random.default_rng(3))
    assert [expert_checksum(ex) for ex in experts] == before
    assert len(router.loss_history) == 30
    assert router.modality_order == ("vis", "tac")
    assert router.emb_dims == (10, 10)


def test_train_router_joint_updates_experts(const_dataset):
    cfg = small_cfg(router_steps=10, joint=True)
    experts = two_experts(const_dataset, cfg)
    before = [expert_checksum(ex) for ex in experts]
    rt.train_router(experts, const_dataset, cfg, np.random.default_rng(3))
    assert [expert_checksum(ex) for ex in experts] != before


def test_train_router_reproducible(const_dataset):
    cfg = small_cfg(router_steps=25)
    runs = []
    for _ in range(2):
        experts = two_experts(const_dataset, cfg)
        router = rt.train_router(experts, const_dataset, cfg, np.random.default_rng(8))
        runs.append((checksum(router.params), tuple(router.loss_history)))
    assert runs[0] == runs[1]


def test_joint_training_score_matches_inference(rng):
    """The joint-mode training score is the composed policy's sampling score."""
    cfg = small_cfg(joint=True)
    experts = [xp.init_expert("vis", 5, 2, 2, cfg, rng),
               xp.init_expert("tac", 3, 2, 2, cfg, rng)]
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), rng)
    policy = compose_policy(experts, router, "soft", make_schedule(),
                            constant_action_dataset([0.1, 0.2]).stats())
    n = 12
    vis, tac, rs = rng.normal(size=(n, 5)), rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
    a_k = rng.normal(size=(n, 2))
    ks = rng.integers(1, 51, size=n)
    trained = rt._router_score_graph(router, experts, a_k, [vis, tac, rs], ks, True).data
    for r in range(n):
        obs = Observation({"vis": vis[r], "tac": tac[r]}, rs[r])
        served = policy.score_provider([obs])(a_k[r:r + 1], int(ks[r]))[0]
        assert np.max(np.abs(trained[r] - served)) <= 1e-12, r
