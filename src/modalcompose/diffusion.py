"""DDPM machinery: schedules, forward noising, the eps-MSE loss, sampling.

A score provider predicts the noise in a_k, over rows, in one of two forms.
Training: ``(a_k, blocks, ks) -> Tensor``, where a_k is (B, action_dim),
blocks is the batch's list of (B, width) condition row blocks, ks is an int
array of B step indices, and the result is a (B, action_dim) graph
``Tensor``; ``fit_denoiser``, the one training loop, takes its schedule,
batch, lr and steps from the run config. Sampling: ``(a_k, k) -> ndarray``,
where a_k holds the B sampled rows in the layout of ``numcore.row_layout``,
k is an int, and the result has a_k's shape; a policy's provider closes over
its observations. Denoising step indices k run 1..K; array index k-1 holds
the step-k coefficients, which ``make_schedule`` tables once for the whole
reverse step, sigma_k included; ``ddpm_sample`` only reads them. It updates
one row in Python floats and B > 1 rows in numpy, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError, NumericError


SIGMA_MODES = ("beta", "beta_tilde")
MAX_STEPS = 10_000   # the largest K, 200x the default: a larger one is refused, not tabled


@dataclass(frozen=True)
class NoiseSchedule:
    K: int
    betas: np.ndarray        # (K,) beta_k at index k-1
    alphas: np.ndarray       # 1 - beta
    alpha_bars: np.ndarray   # cumprod of alphas
    sqrt_abs: np.ndarray     # sqrt(alpha_bars)
    sqrt_one_minus_abs: np.ndarray
    sigma_mode: str          # one of SIGMA_MODES: which sigma_k the reverse step adds
    sigmas: np.ndarray       # sigma_k: sqrt(beta_k), or sqrt(beta~_k) under beta_tilde
    eps_coefs: np.ndarray    # beta_k / sqrt(1 - ab_k)
    sqrt_alphas: np.ndarray  # sqrt(alpha_k)


def make_schedule(K: int = 50, beta_start: float = 1e-4, beta_end: float = 0.02,
                  sigma_mode: str = "beta") -> NoiseSchedule:
    """Linear beta schedule over k = 1..K with exact cumulative products, and its
    reverse step: sigma_k = sqrt(beta_k) ("beta") or sqrt(beta~_k) ("beta_tilde")."""
    if not 1 <= K <= MAX_STEPS:
        raise ConfigError(f"schedule needs 1 <= K <= {MAX_STEPS}, got {K}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if sigma_mode not in SIGMA_MODES:
        raise ConfigError(f"unknown sigma_mode {sigma_mode!r}, not one of {SIGMA_MODES}")
    betas = np.linspace(beta_start, beta_end, K)
    alphas = 1.0 - betas
    ab = np.cumprod(alphas)
    sqrt_one_minus_abs = np.sqrt(1.0 - ab)
    # beta~_k = (1 - ab_{k-1}) / (1 - ab_k) * beta_k, with ab_0 = 1
    tilde = (1.0 - np.concatenate([[1.0], ab[:-1]])) / (1.0 - ab) * betas
    sigmas = np.sqrt(betas if sigma_mode == "beta" else tilde)
    return NoiseSchedule(K, betas, alphas, ab, np.sqrt(ab), sqrt_one_minus_abs, sigma_mode,
                         sigmas, betas / sqrt_one_minus_abs, np.sqrt(alphas))


def _noised(a0: np.ndarray, idx: np.ndarray, sched: NoiseSchedule, rng: np.random.Generator):
    """Noise action rows (B, dim) to their steps, unchecked, at table indices
    idx = ks - 1: a^k = sqrt(ab_k) a0 + sqrt(1-ab_k) eps. Returns (a_k, eps)
    with eps drawn from rng."""
    eps = rng.standard_normal(a0.shape)
    return sched.sqrt_abs[idx][:, None] * a0 + sched.sqrt_one_minus_abs[idx][:, None] * eps, eps


def denoise_loss(score, a0: np.ndarray, blocks: list[np.ndarray], sched: NoiseSchedule,
                 rng: np.random.Generator) -> nc.Tensor:
    """Mean over the batch of ||eps - eps_hat||^2 with k uniform in 1..K.

    ``a0`` and ``blocks`` are the batch's action rows and condition row
    blocks; the training provider is called once on them. The loss is
    checked for NaN/Inf (``nc.mse_rows``); ks, drawn in range, is not.
    """
    if len(a0) == 0:
        raise ContractError("denoise_loss needs a nonempty batch")
    ks = rng.integers(1, sched.K + 1, size=len(a0))
    a_k, eps = _noised(a0, ks - 1, sched, rng)
    return nc.mse_rows(score(a_k, blocks, ks), eps)


def fit_denoiser(score, groups, a_rows: np.ndarray, blocks: list[np.ndarray], cfg,
                 rng: np.random.Generator, steps: int | None = None) -> list[float]:
    """Minibatch Adam on denoise_loss with the run config's schedule, batch
    and lr, for its [train] steps unless ``steps`` is given; returns the
    per-step loss history. Each batch takes the same rows of ``a_rows`` and
    of every block. ``score`` must record a graph through every ParamSet in
    ``groups``; anything else it touches stays frozen.
    """
    n = a_rows.shape[0]
    if n == 0 or any(b.shape[0] != n for b in blocks):
        raise ContractError("training rows empty or misaligned")
    sched = cfg.diffusion.schedule()
    opt = nc.adam_init(groups, lr=cfg.train.lr)
    history = []
    for _ in range(cfg.train.steps if steps is None else steps):
        idx = rng.integers(0, n, size=cfg.train.batch)
        loss = denoise_loss(score, a_rows[idx], [b[idx] for b in blocks], sched, rng)
        nc.backward(loss, groups)
        nc.adam_step(groups, opt)
        history.append(float(loss.data))
    return history


def ddpm_sample(score, sched: NoiseSchedule, rngs, dim: int) -> np.ndarray:
    """Ancestral sampling of B rows from a^K down to a^0, clamped to [-1, 1].

    Row r draws its noise from ``rngs[r]`` alone, as one (K, dim) block: the
    initial state, then one vector per step k = K..2, in the order sequential
    draws would fill it. The state keeps the layout of ``nc.row_layout``,
    which the sampling provider ``score(a_k, k)`` sees and returns; the
    result is (B, dim). The step constants and sigma_k come from the
    schedule's tables, and every sigma_k z is computed for all k at once, by
    the same elementwise operations as one step at a time. The state is
    updated in place in a buffer of its own, so a provider must not keep a_k
    across steps. One row (B = 1) is updated in Python floats
    (``_sample_row``), B > 1 rows by numpy ufuncs; both round every
    operation once to binary64, so a row's bytes do not depend on B.
    """
    steps = zip(range(sched.K, 0, -1), sched.eps_coefs[::-1].tolist(),
                sched.sqrt_alphas[::-1].tolist())
    sigmas = sched.sigmas[:0:-1]   # sigma_K .. sigma_2
    if len(rngs) == 1:
        a = _sample_row(score, steps, sigmas, rngs[0].standard_normal((sched.K, dim)))
    else:
        # (K, B, dim) in row layout: noise[j] holds every row's j-th draw
        noise = nc.row_layout(np.stack([g.standard_normal((sched.K, dim)) for g in rngs],
                                       axis=1))
        a, sz = noise[0], noise[1:] * sigmas.reshape((-1,) + (1,) * (noise.ndim - 1))
        step = np.empty_like(a)
        for k, eps_coef, sqrt_alpha in steps:
            eps_hat = _checked(score(a, k), a)
            a -= np.multiply(eps_hat, eps_coef, out=step)
            a /= sqrt_alpha
            if k > 1:
                a += sz[sched.K - k]
    # a NaN or Inf stays non-finite through every later update, so one check
    # before the clip catches a non-finite score at any step
    if not np.isfinite(a).all():
        raise NumericError("non-finite sample state")
    return np.clip(a, -1.0, 1.0).reshape(-1, dim)


def _sample_row(score, steps, sigmas: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One row's loop over its (K, dim) noise block in Python floats: x =
    (x - eps_hat * c_k) / sqrt(alpha_k) + sigma_k z, each operation rounded
    once (CPython fuses no multiply-add). Step 1 adds -0.0, the exact
    identity of +. Returns the (1, dim) state buffer the provider reads. An
    index loop: before Python 3.12 a list comprehension costs a call frame."""
    sz = (noise[1:] * sigmas[:, None]).tolist() + [[-0.0] * noise.shape[1]]
    a = noise[:1]
    x = a[0].tolist()
    dims = range(len(x))
    for (k, c, s), z in zip(steps, sz):
        e = _checked(score(a, k), a).tolist()[0]
        for j in dims:
            x[j] = (x[j] - e[j] * c) / s + z[j]
        a[0] = x
    return a


def _checked(eps_hat: np.ndarray, a: np.ndarray) -> np.ndarray:
    if eps_hat.shape != a.shape:
        raise ContractError(f"score rows {eps_hat.shape} for sample rows {a.shape}")
    return eps_hat
