"""Composition-layer tests: weighted score mixing, fixed weights, baselines."""

import dataclasses

import numpy as np
import pytest

from modalcompose import compose as cp
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose import router as rt
from modalcompose.checkpoint import save_expert
from modalcompose.diffusion import ddpm_sample, make_schedule
from modalcompose.envs import Observation
from modalcompose.errors import ConfigError, ContractError, NumericError
from modalcompose.pipeline import compose_checkpoints
from modalcompose.runconfig import RunConfig, model_hash
from tests.conftest import constant_action_dataset


def small_cfg(steps=0):
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,))
    cfg = cfg.with_section("router", hidden=(8,))
    return cfg.with_section("train", steps=steps, batch=32, lr=2e-3,
                            router_steps=0)


def fresh_experts(seed=4, n=2):
    rng = np.random.default_rng(seed)
    names = ("vis", "tac", "aud")[:n]
    dims = (5, 3, 4)[:n]
    return [xp.init_expert(m, d, 2, 2, small_cfg(), rng)
            for m, d in zip(names, dims)]


def random_obs(rng, n=2):
    names = ("vis", "tac", "aud")[:n]
    dims = (5, 3, 4)[:n]
    return Observation(
        modalities={m: rng.normal(size=d) for m, d in zip(names, dims)},
        robot_state=rng.normal(size=2),
    )


# ---------------------------------------------------------------------------
# inter-modality composition: the composed policy's score


def mixed_score(experts, w, a_k, obs, k):
    """The score a fixed-weight composition samples with at (a_k, obs, k)."""
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    policy = cp.manual_compose(experts, w, make_schedule(), stats)
    return policy.score_provider([obs])(a_k[None, :], k)[0]


def expert_score(ex, a_k, obs, k):
    e = ex.encode_rows(obs.modalities[ex.modality][None, :], obs.robot_state[None, :])
    return ex.score_rows(a_k[None, :], e, k)[0]


def test_one_hot_weight_reproduces_expert_bitwise(rng):
    experts = fresh_experts()
    obs = random_obs(rng)
    a_k = rng.normal(size=2)
    got = mixed_score(experts, np.array([1.0, 0.0]), a_k, obs, 12)
    want = expert_score(experts[0], a_k, obs, 12)
    assert got.tobytes() == want.tobytes()


def test_inter_compose_is_weighted_sum(rng):
    experts = fresh_experts()
    obs = random_obs(rng)
    a_k = rng.normal(size=2)
    w = np.array([0.3, 0.7])
    got = mixed_score(experts, w, a_k, obs, 30)
    scores = [expert_score(ex, a_k, obs, 30) for ex in experts]
    assert np.allclose(got, 0.3 * scores[0] + 0.7 * scores[1], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rows", [1, 4])
def test_inter_compose_sums_weighted_scores_in_expert_order(rng, n, rows):
    experts = fresh_experts(n=n)
    obs = [random_obs(rng, n=n) for _ in range(rows)]
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    policy = cp.manual_compose(experts, {2: [0.3, 0.7], 3: [0.2, 0.5, 0.3]}[n],
                               make_schedule(), stats)
    a_k = cp.nc.row_layout(rng.normal(size=(rows, 2)))
    got = policy.score_provider(obs)(a_k, 30)
    want = None
    for ex, wi in zip(experts, policy.fixed_w):
        rs, m = cp._rows(obs, [ex.modality])
        e = ex.encode_rows(m, rs)
        term = wi * ex.score_rows(a_k, e, 30)
        want = term if want is None else want + term
    assert np.array_equal(got, want)


def test_zero_weight_third_expert_changes_nothing(rng):
    """Adding a modality at weight 0 must not perturb the composite score."""
    pair = fresh_experts(n=2)
    trio = pair + [fresh_experts(n=3)[2]]
    obs3 = random_obs(rng, n=3)
    obs2 = Observation(modalities={k: v for k, v in obs3.modalities.items()
                                   if k != "aud"},
                       robot_state=obs3.robot_state)
    a_k = rng.normal(size=2)
    two = mixed_score(pair, np.array([0.4, 0.6]), a_k, obs2, 9)
    three = mixed_score(trio, np.array([0.4, 0.6, 0.0]), a_k, obs3, 9)
    assert three.tobytes() == two.tobytes()


def test_inter_compose_requires_matching_modalities(rng):
    experts = fresh_experts()
    obs = Observation(modalities={"vis": rng.normal(size=5)},
                      robot_state=rng.normal(size=2))
    with pytest.raises(ContractError):
        mixed_score(experts, np.array([0.5, 0.5]), np.zeros(2), obs, 1)
    # weights that do not match the experts are refused when the policy is built
    policy = cp.manual_compose(experts, [0.5, 0.5], make_schedule(),
                               constant_action_dataset(np.array([0.1, 0.2])).stats())
    with pytest.raises(ContractError):
        dataclasses.replace(policy, fixed_w=np.array([0.2, 0.3, 0.5]))


def test_composed_policy_samples_with_its_experts_sigma_mode(rng, tmp_path):
    """Experts saved by a beta_tilde run compose into a policy that samples
    with its schedule's sigma_k. A beta expert beside them is refused on its
    sigma_mode, which decides the reverse step's noise."""
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    paths = {}
    for mode in ("beta", "beta_tilde"):
        cfg = small_cfg().with_section("diffusion", sigma_mode=mode)
        g = np.random.default_rng(4)
        for m, d in (("vis", 5), ("tac", 3)):
            paths[mode, m] = tmp_path / f"{m}-{mode}.mcpf"
            save_expert(xp.init_expert(m, d, 2, 2, cfg, g), stats,
                        make_schedule(sigma_mode=mode), paths[mode, m],
                        env_name="occluded_reach", seed=0, config_hash=model_hash(cfg))
    policy, _ = compose_checkpoints([paths["beta_tilde", "vis"], paths["beta_tilde", "tac"]],
                                    weights=[0.5, 0.5])
    assert policy.sched.sigma_mode == "beta_tilde"
    obs = random_obs(rng)
    want = stats.denormalize_chunk(ddpm_sample(
        policy.score_provider([obs]), make_schedule(sigma_mode="beta_tilde"),
        [np.random.default_rng(6)], 2)[0])
    assert policy.act(obs, np.random.default_rng(6)).tobytes() == want.tobytes()
    with pytest.raises(ContractError, match="sigma_mode differs"):
        compose_checkpoints([paths["beta_tilde", "vis"], paths["beta", "tac"]],
                            weights=[0.5, 0.5])


# ---------------------------------------------------------------------------
# policy construction


def test_manual_compose_renormalizes_with_warning(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    with pytest.warns(UserWarning, match="renormalizing"):
        policy = cp.manual_compose(experts, [1.0, 3.0], sched, stats)
    assert np.allclose(policy.fixed_w, [0.25, 0.75], atol=1e-15)


def test_manual_compose_validation(rng, recwarn):
    """Bad weights are refused as given: only weights whose sum is all that is
    off are renormalized, so none of these warns first."""
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    with pytest.raises(ContractError):
        cp.manual_compose(experts, [0.5, -0.5], sched, stats)
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]):
        with pytest.raises(ContractError, match="finite"):
            cp.manual_compose(experts, bad, sched, stats)
    with pytest.raises(ContractError):
        cp.manual_compose(experts, [0.0, 0.0], sched, stats)
    for bad in ([1.0], [2.0], [1.0, 3.0, 1.0], [1.5, -0.5]):
        with pytest.raises(ContractError):
            cp.manual_compose(experts, bad, sched, stats)
    assert not recwarn.list


def test_compose_policy_order_and_dim_checks(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    backwards = rt.init_router(("tac", "vis"), (10, 10), (8,), rng)
    with pytest.raises(ContractError):
        cp.compose_policy(experts, backwards, "soft", sched, stats)
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), rng)
    wide = constant_action_dataset(np.array([0.1, 0.2, 0.3]),
                                   modality_dims={"vis": 5, "tac": 3}).stats()
    with pytest.raises(ContractError):
        cp.compose_policy(experts, router, "soft", sched, wide)


@pytest.mark.parametrize("order, emb_dims", [(("tac", "vis"), (10, 10)),
                                              (("vis", "tac"), (10, 9))])
def test_composed_policy_built_directly_refuses_a_router_that_does_not_fit(
        rng, order, emb_dims):
    """A router over the experts' streams in another order (same widths), or
    over other embedding widths, would weight the wrong expert or fail at
    act(); the policy refuses it when it is built, not only through
    compose_policy."""
    router = rt.init_router(order, emb_dims, (8,), rng)
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    with pytest.raises(ContractError, match="router takes"):
        cp.ComposedPolicy(experts=fresh_experts(), sched=make_schedule(), stats=stats,
                          router=router)


@pytest.mark.parametrize("key, knobs", [("score_spec", dict(score_hidden=(16,))),
                                         ("score_spec", dict(activation="relu"))])
def test_composed_policy_refuses_experts_that_do_not_stack(rng, key, knobs):
    """Every expert's score net scores in one stack, so they share one spec."""
    cfg = small_cfg().with_section("expert", **knobs)
    odd = xp.init_expert("tac", 3, 2, 2, cfg, rng)
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    with pytest.raises(ContractError, match=f"experts differ in {key}"):
        cp.manual_compose([fresh_experts()[0], odd], [0.5, 0.5], make_schedule(), stats)


def test_composed_policy_refuses_other_schedule_or_action_width(rng):
    """An expert trained for 50 steps would sample a 10-step schedule with the
    wrong timestep features, and a wider chunk would fail only at act()."""
    ex = fresh_experts()[0]
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    with pytest.raises(ContractError, match=r"\(50, 2\), not \(10, 2\)"):
        cp.single_expert_policy(ex, make_schedule(10), stats)
    wide = constant_action_dataset(np.array([0.1, 0.2, 0.3])).stats()
    with pytest.raises(ContractError, match=r"\(50, 2\), not \(50, 3\)"):
        cp.single_expert_policy(ex, make_schedule(), wide)


def _composed(**weighting):
    return cp.ComposedPolicy(experts=fresh_experts(), sched=make_schedule(),
                             stats=constant_action_dataset(np.array([0.1, 0.2])).stats(),
                             **weighting)


def _fusion(train):
    return train(constant_action_dataset(np.array([0.1, 0.2])), small_cfg(),
                 np.random.default_rng(3))


def _router():
    return rt.init_router(("vis", "tac"), (10, 10), (8,), np.random.default_rng(2))


BAD_SETTINGS = {
    "unknown strategy": (ConfigError, lambda: _composed(fixed_w=[0.5, 0.5], strategy="bogus")),
    "router and fixed weights": (ContractError,
                                 lambda: _composed(router=_router(), fixed_w=[0.5, 0.5])),
    "neither router nor fixed weights": (ContractError, lambda: _composed()),
    "fixed weights of another length": (ContractError, lambda: _composed(fixed_w=[1.0])),
    "negative fixed weight": (ContractError, lambda: _composed(fixed_w=[1.5, -0.5])),
    "NaN fixed weight": (ContractError, lambda: _composed(fixed_w=[np.nan, 1.0])),
    "fixed weights not summing to 1": (ContractError, lambda: _composed(fixed_w=[0.5, 0.6])),
    "replaced by an unknown strategy": (ConfigError, lambda: dataclasses.replace(
        _composed(fixed_w=[0.5, 0.5]), strategy="bogus")),
    "expert with no denoising steps": (ConfigError, lambda: dataclasses.replace(
        fresh_experts()[0], n_steps=0)),
}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_settings_are_refused_when_built(case):
    """A policy or expert checks its own settings in its constructor, so a
    bad one is refused at once instead of failing at its first act()."""
    error, build = BAD_SETTINGS[case]
    with pytest.raises(error):
        build()


def test_composed_policy_cannot_be_changed_after_it_is_built():
    policy = _composed(fixed_w=np.array([0.5, 0.5]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.strategy = "hard"
    with pytest.raises(ValueError):
        policy.fixed_w[0] = 1.0
    with pytest.raises((TypeError, AttributeError)):   # experts are kept as a tuple
        policy.experts[0] = policy.experts[1]
    with pytest.raises(AttributeError):
        policy.experts.append(policy.experts[0])

def _six_kinds():
    """The six policy kinds, each with the one score net whose bias a test
    poisons: one expert's, or the fusion baseline's."""
    experts = fresh_experts()
    sched, stats = make_schedule(), constant_action_dataset(np.array([0.1, 0.2])).stats()
    concat, moe = _fusion(cp.train_concat_policy), _fusion(cp.train_moe_policy)
    return {
        "vis": (cp.single_expert_policy(experts[0], sched, stats), experts[0].score_params),
        "tac": (cp.single_expert_policy(experts[1], sched, stats), experts[1].score_params),
        "equal": (cp.manual_compose(experts, [0.5, 0.5], sched, stats),
                  experts[1].score_params),
        "learned": (cp.compose_policy(experts, _router(), "soft", sched, stats),
                    experts[0].score_params),
        "concat": (concat, concat.score_params),
        "moe": (moe, moe.score_params),
    }


@pytest.mark.parametrize("kind", ["vis", "tac", "equal", "learned", "concat", "moe"])
@pytest.mark.parametrize("bias, bad", [("b1", np.inf), ("b1", -np.inf), ("b1", np.nan),
                                       ("b0", np.nan)])
def test_a_nonfinite_score_net_bias_refuses_the_sample(rng, kind, bias, bad):
    """The sampler's score nets run unchecked at every step; a non-finite
    output bias (b1) or a NaN hidden bias (b0) of one expert's score net, or
    of the fusion score net, still makes act() and act_rows() raise, with no
    sample returned."""
    policy, params = _six_kinds()[kind]
    obs = [random_obs(rng) for _ in range(3)]
    assert np.isfinite(policy.act(obs[0], np.random.default_rng(0))).all()
    data = params[bias].data
    data[0] = bad
    with pytest.raises(NumericError):
        policy.act(obs[0], np.random.default_rng(0))
    with pytest.raises(NumericError):
        policy.act_rows(obs, [np.random.default_rng(r) for r in range(3)])


@pytest.mark.parametrize("train", [cp.train_concat_policy, cp.train_moe_policy])
@pytest.mark.parametrize("B", [1, 3])
def test_fusion_score_provider_is_a_checked_call_of_its_score_net(rng, train, B):
    """A baseline's bound provider equals a checked mlp_infer of its score net
    over rows [a_k, cond, timestep_features(k)], bit for bit, at every k."""
    policy = _fusion(train)
    obs = [random_obs(rng) for _ in range(B)]
    cond = policy._cond(policy.embed(obs))
    score = policy.score_provider(obs)
    for k in (50, 7):
        a_k = nc.row_layout(rng.normal(size=(B, 2)))
        feats = np.broadcast_to(xp.timestep_features(k, 50), cond.shape[:-1] + (16,))
        rows = np.concatenate([a_k, cond, feats], axis=-1)
        want = nc.mlp_infer(policy.score_params, policy.score_spec, rows)
        assert np.array_equal(score(a_k, k), want)


def test_weights_for_applies_strategy(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    policy = dataclasses.replace(cp.manual_compose(experts, [0.3, 0.7], sched, stats),
                                 strategy="hard")
    obs = random_obs(rng)
    assert np.array_equal(policy.weights_for(obs), [0.0, 1.0])
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), rng)
    routed = cp.compose_policy(experts, router, "soft", sched, stats)
    w = routed.weights_for(obs)
    assert abs(w.sum() - 1.0) < 1e-12 and np.all(w > 0)


def test_one_hot_policy_act_matches_single_expert(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    combo = cp.manual_compose(experts, [1.0, 0.0], sched, stats)
    solo = cp.single_expert_policy(experts[0], sched, stats)
    obs = random_obs(rng)
    a = combo.act(obs, np.random.default_rng(42))
    b = solo.act(obs, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()


def test_act_deterministic_given_seed(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    policy = cp.manual_compose(experts, [0.5, 0.5], sched, stats)
    obs = random_obs(rng)
    one = policy.act(obs, np.random.default_rng(6))
    two = policy.act(obs, np.random.default_rng(6))
    assert np.array_equal(one, two)


def test_composed_param_count(rng):
    experts = fresh_experts()
    sched = make_schedule()
    stats = constant_action_dataset(np.array([0.1, 0.2])).stats()
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), rng)
    policy = cp.compose_policy(experts, router, "soft", sched, stats)
    assert policy.n_params() == sum(e.n_params() for e in experts) + router.n_params()
    fixed = cp.manual_compose(experts, [0.5, 0.5], sched, stats)
    assert fixed.n_params() == sum(e.n_params() for e in experts)


# ---------------------------------------------------------------------------
# fusion baselines


def test_concat_policy_recovers_constant_action():
    ds = constant_action_dataset(np.array([-0.2, 0.5]))
    policy = cp.train_concat_policy(ds, small_cfg(steps=1500), np.random.default_rng(1))
    assert np.mean(policy.loss_history[-50:]) < np.mean(policy.loss_history[:50])
    assert policy.modality_order == ("vis", "tac")
    assert policy.n_params() == (sum(enc.params.n_params() for enc in policy.encoders)
                                 + policy.score_params.n_params())
    rng = np.random.default_rng(55)
    obs = random_obs(np.random.default_rng(13))
    mean = np.mean([policy.act(obs, rng) for _ in range(8)], axis=0)
    assert np.allclose(mean, [-0.2, 0.5], atol=0.1), mean


def test_moe_gate_starts_uniform():
    ds = constant_action_dataset(np.array([0.1, -0.1]))
    policy = cp.train_moe_policy(ds, small_cfg(steps=0), np.random.default_rng(2))
    for trial in range(5):
        r = np.random.default_rng(trial)
        embs = [r.normal(size=(1, 10)) * 4, r.normal(size=(1, 10)) * 4]
        g = policy.gate.weights_rows(np.concatenate(embs, axis=-1))[0]
        assert np.array_equal(g, [0.5, 0.5])


def test_moe_policy_recovers_constant_action():
    ds = constant_action_dataset(np.array([0.4, 0.0]))
    policy = cp.train_moe_policy(ds, small_cfg(steps=1500), np.random.default_rng(3))
    assert np.mean(policy.loss_history[-50:]) < np.mean(policy.loss_history[:50])
    obs = random_obs(np.random.default_rng(14))
    g = policy.gate.weights_rows(np.concatenate(policy.embed([obs]), axis=-1))[0]
    assert abs(g.sum() - 1.0) < 1e-12
    rng = np.random.default_rng(66)
    mean = np.mean([policy.act(obs, rng) for _ in range(8)], axis=0)
    assert np.allclose(mean, [0.4, 0.0], atol=0.1), mean
