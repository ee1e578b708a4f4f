"""Schedule, forward-noising, sampler, and loss tests."""

import numpy as np
import pytest

from modalcompose import compose as cp
from modalcompose import diffusion as df
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose import router as rt
from modalcompose.errors import ConfigError, ContractError, NumericError
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset
from tests.oracles import effective_eps

# Frozen from an exact-fraction product over the default linear schedule
# (computed independently of numpy's cumprod).
AB_25 = 0.8827129294402375
AB_50 = 0.6029515973297149
BETA_25 = 0.009846938775510204


def test_default_schedule_values():
    s = df.make_schedule()
    assert s.K == 50
    assert s.betas.shape == (50,)
    assert s.betas[0] == 1e-4
    assert s.betas[-1] == 0.02
    steps = np.diff(s.betas)
    assert np.allclose(steps, steps[0])
    assert np.allclose(s.alphas, 1.0 - s.betas)
    assert abs(s.betas[24] - BETA_25) < 1e-15


def test_alpha_bar_matches_exact_fraction_oracle():
    s = df.make_schedule()
    assert abs(s.alpha_bars[24] - AB_25) < 1e-13
    assert abs(s.alpha_bars[-1] - AB_50) < 1e-13
    # spot-check the square-root tables at k=25 (array index 24)
    assert abs(s.sqrt_abs[24] - np.sqrt(AB_25)) < 1e-13
    assert abs(s.sqrt_one_minus_abs[24] - np.sqrt(1.0 - AB_25)) < 1e-13


def test_schedule_validation():
    with pytest.raises(ConfigError):
        df.make_schedule(K=0)
    with pytest.raises(ConfigError):
        df.make_schedule(beta_start=0.0)
    with pytest.raises(ConfigError):
        df.make_schedule(beta_start=0.03, beta_end=0.02)
    with pytest.raises(ConfigError):
        df.make_schedule(beta_end=1.0)


def test_forward_noise_closed_form(rng):
    s = df.make_schedule()
    a0 = rng.normal(size=(1, 4))
    probe = np.random.default_rng(7)
    a_k, eps = df._noised(a0, np.array([29]), s, probe)
    replay = np.random.default_rng(7).standard_normal((1, 4))
    assert np.array_equal(eps, replay)
    expect = np.sqrt(s.alpha_bars[29]) * a0 + np.sqrt(1 - s.alpha_bars[29]) * eps
    assert np.allclose(a_k, expect, atol=1e-15)


def test_forward_noise_batched_per_row_k(rng):
    s = df.make_schedule()
    a0 = rng.normal(size=(3, 2))
    ks = np.array([1, 25, 50])
    a_k, eps = df._noised(a0, ks - 1, s, np.random.default_rng(0))
    for r in range(3):
        i = ks[r] - 1
        expect = np.sqrt(s.alpha_bars[i]) * a0[r] + np.sqrt(1 - s.alpha_bars[i]) * eps[r]
        assert np.allclose(a_k[r], expect, atol=1e-15)


def test_effective_eps_inverts_forward(rng):
    s = df.make_schedule()
    a0 = rng.normal(size=(1, 5))
    a_k, eps = df._noised(a0, np.array([16]), s, np.random.default_rng(3))
    back = effective_eps(a_k, a0, 17, s)
    assert np.allclose(back, eps, atol=1e-12)


def test_perfect_denoiser_reconstructs_exactly():
    """With the oracle score the sampler lands on a0: the last step injects
    no noise and maps any state to a0. Run it from several noise streams,
    in both sigma modes."""
    a0 = np.array([0.31, -0.62, 0.05])
    for mode in df.SIGMA_MODES:
        s = df.make_schedule(sigma_mode=mode)

        def oracle(a, k):
            return effective_eps(a, a0, k, s)

        for trial in range(3):
            out = df.ddpm_sample(oracle, s, [np.random.default_rng(trial)], 3)
            assert np.allclose(out[0], a0, atol=1e-10)


def test_sampler_clamps_to_unit_box():
    s = df.make_schedule()
    a0 = np.array([1.7, -2.0])

    def oracle(a, k):
        return effective_eps(a, a0, k, s)

    out = df.ddpm_sample(oracle, s, [np.random.default_rng(0)], 2)
    assert np.allclose(out[0], [1.0, -1.0], atol=1e-10)


def test_sampler_deterministic_given_seed():
    s = df.make_schedule()

    def score(a, k):
        return 0.1 * a

    one = df.ddpm_sample(score, s, [np.random.default_rng(9)], 4)
    two = df.ddpm_sample(score, s, [np.random.default_rng(9)], 4)
    assert np.array_equal(one, two)


def test_sampler_updates_its_own_state_buffer():
    """The state is updated in place in a buffer of the sampler's own, so a
    score that returns its input still sees each step's state: replaying
    every row's noise block one step at a time gives the same states and
    result, on the one-row path and the batched one."""
    s = df.make_schedule(K=5)
    for seeds in ((3,), (3, 4)):
        seen = []

        def score(a, k):
            seen.append(a.copy())
            return a

        out = df.ddpm_sample(score, s, [np.random.default_rng(r) for r in seeds], 2)
        noise = nc.row_layout(np.stack(
            [np.random.default_rng(r).standard_normal((5, 2)) for r in seeds], axis=1))
        a = noise[0]
        for k in range(5, 0, -1):
            assert np.array_equal(seen[5 - k], a)
            a = (a - s.betas[k - 1] / np.sqrt(1.0 - s.alpha_bars[k - 1]) * a) / np.sqrt(
                s.alphas[k - 1])
            if k > 1:
                a = a + np.sqrt(s.betas[k - 1]) * noise[6 - k]
        assert np.array_equal(out, np.clip(a, -1.0, 1.0).reshape(-1, 2))


def test_sampler_flags_nonfinite_scores():
    s = df.make_schedule()

    def bad(a, k):
        return np.full_like(a, np.inf)

    with pytest.raises(NumericError):
        df.ddpm_sample(bad, s, [np.random.default_rng(0)], 2)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_sampler_flags_a_nonfinite_score_at_one_middle_step(bad_value):
    """The state is checked once, after the loop: a score that is non-finite
    at one step only still leaves a non-finite state, and is refused, on the
    one-row path and the batched one."""
    s = df.make_schedule()

    def once(a, k):
        return np.full_like(a, bad_value) if k == 25 else np.zeros_like(a)

    for rows in (1, 2):
        with pytest.raises(NumericError):
            df.ddpm_sample(once, s, [np.random.default_rng(r) for r in range(rows)], 2)


@pytest.mark.parametrize("sigma_mode", df.SIGMA_MODES)
@pytest.mark.parametrize("score", [lambda a, k: 0.1 * a, lambda a, k: np.zeros_like(a),
                                   lambda a, k: np.full_like(a, -0.0)],
                         ids=["scaled", "zeros", "negative_zeros"])
def test_one_row_sample_is_row_zero_of_a_batched_one(score, sigma_mode):
    """The one-row path, in Python floats, samples the bytes the batched
    numpy path gives the same row, exact zeros of either sign included."""
    s = df.make_schedule(sigma_mode=sigma_mode)
    for seed in range(3):
        one = df.ddpm_sample(score, s, [np.random.default_rng(seed)], 3)
        two = df.ddpm_sample(score, s, [np.random.default_rng(seed),
                                        np.random.default_rng(seed + 10)], 3)
        assert one.shape == (1, 3)
        assert one.tobytes() == two[:1].tobytes()


def test_posterior_sigma_modes():
    """The schedule tables sigma_k of its mode: sqrt(beta_k), or the
    posterior's sqrt(beta~_k); an unknown mode is refused."""
    s = df.make_schedule()
    assert s.sigma_mode == "beta"
    assert np.array_equal(s.sigmas, np.sqrt(s.betas))
    tilde = df.make_schedule(sigma_mode="beta_tilde").sigmas
    assert tilde[0] == 0.0
    # independent elementwise recomputation
    for k in range(2, s.K + 1):
        i = k - 1
        expect = np.sqrt((1 - s.alpha_bars[i - 1]) / (1 - s.alpha_bars[i]) * s.betas[i])
        assert abs(tilde[i] - expect) < 1e-15
    assert np.all(tilde <= np.sqrt(s.betas) + 1e-15)
    with pytest.raises(ConfigError):
        df.make_schedule(sigma_mode="ddim")


def test_denoise_loss_perfect_score_is_zero(rng):
    s = df.make_schedule()
    a0, cond = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))

    def oracle(a_k, cond, ks):
        sab = np.sqrt(s.alpha_bars[ks - 1])[:, None]
        somab = np.sqrt(1 - s.alpha_bars[ks - 1])[:, None]
        return nc.Tensor((a_k - sab * a0) / somab)

    loss = df.denoise_loss(oracle, a0, cond, s, np.random.default_rng(4))
    assert float(loss.data) < 1e-20


def test_denoise_loss_empty_batch_rejected(rng):
    s = df.make_schedule()
    with pytest.raises(ContractError):
        df.denoise_loss(lambda a, c, k: a, np.zeros((0, 2)), np.zeros((0, 3)), s, rng)


def test_fit_denoiser_reduces_loss(rng):
    """A one-layer linear denoiser trained on a constant dataset improves."""
    s = df.make_schedule()
    spec = nc.MlpSpec(2, (), 2)
    ps = nc.ParamSet()
    ps.add("W0", np.zeros((2, 2)))
    ps.add("b0", np.zeros(2))

    def score(a_k, blocks, ks):
        return nc.mlp_forward(ps, spec, a_k)

    a_rows = np.tile([0.5, -0.5], (32, 1))
    cfg = RunConfig().with_section("train", steps=200, batch=8, lr=1e-2)
    hist = df.fit_denoiser(score, [("lin", ps)], a_rows, [np.zeros((32, 1))], cfg,
                           np.random.default_rng(11))
    assert len(hist) == 200
    assert np.all(np.isfinite(hist))
    assert np.mean(hist[-20:]) < np.mean(hist[:20])


def test_fit_denoiser_keeps_an_out_of_group_paramset_on_the_graph_frozen(rng):
    """An encoder's graph output feeds the score net, and only the score
    net's params are in the groups: the encoder keeps its bytes, and the
    score net takes, bit for bit, the grads, weights and losses of a run fed
    the same encoder output as data rows."""
    a_rows, cond = rng.uniform(-1.0, 1.0, size=(16, 2)), rng.normal(size=(16, 4))
    enc_spec, score_spec = nc.MlpSpec(4, (5,), 3), nc.MlpSpec(5, (6,), 2)
    enc = nc.init_mlp(enc_spec, rng)
    enc_bytes = [t.data.tobytes() for _, t in enc.items()]
    cfg = RunConfig().with_section("train", steps=4, batch=8)
    runs = []
    for embed in (nc.mlp_infer, nc.mlp_forward):
        ps = nc.init_mlp(score_spec, np.random.default_rng(3))

        def score(a_k, blocks, ks):
            return nc.mlp_forward(ps, score_spec,
                                  nc.concat_cols([a_k, embed(enc, enc_spec, blocks[0])]))

        hist = df.fit_denoiser(score, [("score", ps)], a_rows, [cond], cfg,
                               np.random.default_rng(5))
        runs.append((hist, [(t.grad.tobytes(), t.data.tobytes()) for _, t in ps.items()]))
        assert [t.data.tobytes() for _, t in enc.items()] == enc_bytes
        # the graph run reaches the encoder: its params take adjoints, unread
        assert all((t.grad is None) == (embed is nc.mlp_infer) for _, t in enc.items())
    assert runs[0] == runs[1]


def test_fit_denoiser_rejects_misaligned_rows(rng):
    ps = nc.ParamSet()
    ps.add("W", np.zeros((2, 2)))
    cfg = RunConfig().with_section("train", steps=1, batch=1)
    for blocks in ([np.zeros((2, 1))], [np.zeros((3, 1)), np.zeros((2, 1))]):
        with pytest.raises(ContractError):
            df.fit_denoiser(lambda a, b, k: nc.Tensor(a), [("lin", ps)],
                            np.zeros((3, 2)), blocks, cfg, rng)


# ---------------------------------------------------------------------------
# non-finite values in training, through every trainer's fit_denoiser


def _trainer(kind: str):
    """A small config and a call that runs one trainer through its module's
    ``fit_denoiser``: (module, call)."""
    cfg = (RunConfig()
           .with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,))
           .with_section("router", hidden=(8,), joint=kind == "router_joint")
           .with_section("train", steps=3, router_steps=3, batch=16))
    data, rng = constant_action_dataset([0.3, -0.4]), np.random.default_rng(3)
    if kind == "expert":
        return xp, lambda: xp.train_expert(data, "vis", cfg, rng)
    if kind.startswith("router"):
        experts = [xp.init_expert(m, d, 2, 2, cfg, rng) for m, d in (("vis", 5), ("tac", 3))]
        return rt, lambda: rt.train_router(experts, data, cfg, rng)
    train = {"concat": cp.train_concat_policy, "moe": cp.train_moe_policy}[kind]
    return cp, lambda: train(data, cfg, rng)


class _Refused(Exception):
    """fit_denoiser refused the planted value before any weight changed."""


def _refused_before_adam(monkeypatch, kind: str, plant) -> None:
    """Run the trainer with ``plant(groups, blocks)`` applied to what it
    hands fit_denoiser; the real fit_denoiser must raise NumericError in the
    first step's forward pass, before ``backward`` runs, with every weight of
    every group as it was given."""
    module, train = _trainer(kind)
    real = module.fit_denoiser
    monkeypatch.setattr(nc, "backward", lambda loss, groups: pytest.fail("backward ran"))

    def fit(score, groups, a_rows, blocks, cfg, rng, steps=None):
        plant(dict(groups), blocks)
        before = [t.data.copy() for _, ps in groups for _, t in ps.items()]
        with pytest.raises(NumericError):
            real(score, groups, a_rows, blocks, cfg, rng, steps)
        after = [t.data for _, ps in groups for _, t in ps.items()]
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(after, before))
        raise _Refused

    monkeypatch.setattr(module, "fit_denoiser", fit)
    with pytest.raises(_Refused):
        train()


GROUPS = {"expert": ("enc", "score"), "router_frozen": ("router",),
          "router_joint": ("router", "vis.enc", "vis.score", "tac.enc", "tac.score"),
          "concat": ("enc_vis", "enc_tac", "score"),
          "moe": ("enc_vis", "enc_tac", "gate", "score")}


@pytest.mark.parametrize("kind,group", [(k, g) for k, gs in GROUPS.items() for g in gs])
def test_an_inf_weight_is_refused_before_adam(monkeypatch, kind, group):
    """An Inf in the output layer's weights of any parameter group, of every
    trainer, raises NumericError in the first step, before Adam moves a
    weight."""
    def plant(groups, blocks):
        ps = groups[group]
        ps[max(n for n in ps.names() if n[0] == "W")].data[0, 0] = np.inf

    _refused_before_adam(monkeypatch, kind, plant)


@pytest.mark.parametrize("block", ["modality", "robot_state"])
@pytest.mark.parametrize("kind", list(GROUPS))
def test_a_nan_training_row_is_refused_before_adam(monkeypatch, kind, block):
    """A NaN column in an in-memory training block, the first modality's or
    the robot state's, raises NumericError in the first step of every
    trainer, before Adam moves a weight."""
    def plant(groups, blocks):
        blocks[0 if block == "modality" else -1][:, 0] = np.nan

    _refused_before_adam(monkeypatch, kind, plant)
