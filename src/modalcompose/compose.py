"""Policy-level composition and the fusion baselines.

The composed policy runs one denoising loop whose score is the consensus-
weighted sum of per-expert scores; weights come from a router or a fixed
vector and are post-processed by a routing strategy. The baselines fuse at
the feature level instead: one score network conditioned on concatenated
embeddings (ConcatPolicy) or on a gated weighted sum of embeddings
(MoEFeaturePolicy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .diffusion import NoiseSchedule, ddpm_sample, fit_denoiser, make_schedule
from .envs import ActionStats, Observation
from .errors import ConfigError, ContractError
from .experts import TIMESTEP_DIM, ModalityExpert, timestep_features
from .router import Router, apply_strategy, check_weights


def _sample(policy, score, cond, rng: np.random.Generator) -> np.ndarray:
    """The sampling step every policy shares: one denoising loop over
    score(a_k, cond, k), then back to the action units."""
    a_hat = ddpm_sample(score, cond, policy.sched, rng, policy.stats.chunk_dim,
                        sigma_mode=policy.sigma_mode)
    return policy.stats.denormalize_chunk(a_hat)


@dataclass
class ComposedPolicy:
    experts: list[ModalityExpert]
    sched: NoiseSchedule
    stats: ActionStats
    router: Router | None = None
    fixed_w: np.ndarray | None = None
    strategy: str = "soft"

    def __post_init__(self):
        modes = {ex.sigma_mode for ex in self.experts}
        if len(modes) > 1:
            raise ContractError(f"experts differ in sigma_mode: {sorted(modes)}")

    @property
    def sigma_mode(self) -> str:
        """The experts' reverse-step noise mode, which they all share."""
        return self.experts[0].sigma_mode

    @property
    def modality_order(self) -> tuple[str, ...]:
        return tuple(ex.modality for ex in self.experts)

    def n_params(self) -> int:
        total = sum(ex.n_params() for ex in self.experts)
        if self.router is not None:
            total += self.router.n_params()
        return total

    def _consensus(self, obs: Observation) -> tuple[np.ndarray, list[np.ndarray]]:
        """Post-strategy consensus weights and the experts' embedding rows."""
        rs = np.asarray(obs.robot_state, dtype=np.float64)[None, :]
        embs = []
        for ex in self.experts:
            if ex.modality not in obs.modalities:
                raise ContractError(f"observation lacks modality '{ex.modality}'")
            m = np.asarray(obs.modalities[ex.modality], dtype=np.float64)
            embs.append(ex.encode_rows(m[None, :], rs))
        if self.router is not None:
            w = self.router.weights_rows(np.concatenate(embs, axis=1))[0]
        else:
            w = self.fixed_w
        return apply_strategy(check_weights(w, len(self.experts)), self.strategy), embs

    def weights_for(self, obs: Observation) -> np.ndarray:
        """Post-strategy consensus weights at this state."""
        return self._consensus(obs)[0]

    def score_for(self, obs: Observation):
        """The consensus score provider (a_k, cond, k) -> eps at this state:
        the weighted sum of the expert scores. Zero-weight experts are
        skipped, so a one-hot weight reproduces one expert bit for bit."""
        w, embs = self._consensus(obs)
        active = [(wi, ex, e) for wi, ex, e in zip(w, self.experts, embs) if wi != 0.0]

        def score(a_k, _cond, k):
            total = None
            for wi, ex, e in active:
                term = wi * ex.score_rows(a_k[None, :], e, k)[0]
                total = term if total is None else total + term
            return total

        return score

    def act(self, obs: Observation, rng: np.random.Generator) -> np.ndarray:
        """One denoised, denormalized action chunk for this observation."""
        return _sample(self, self.score_for(obs), None, rng)


def compose_policy(experts: list[ModalityExpert], router: Router, strategy: str,
                   sched: NoiseSchedule, stats: ActionStats) -> ComposedPolicy:
    """Router-weighted composition of trained experts."""
    order = tuple(ex.modality for ex in experts)
    if router.modality_order != order:
        raise ContractError(
            f"router order {router.modality_order} != expert order {order}"
        )
    emb_dims = tuple(ex.emb_dim for ex in experts)
    if router.emb_dims != emb_dims:
        raise ContractError(f"router embedding dims {router.emb_dims} != expert "
                            f"embedding dims {emb_dims}")
    for ex in experts:
        if ex.action_dim != stats.chunk_dim:
            raise ContractError(
                f"expert '{ex.modality}' action dim {ex.action_dim} != {stats.chunk_dim}"
            )
    return ComposedPolicy(experts=experts, sched=sched, stats=stats,
                          router=router, strategy=strategy)


def manual_compose(experts: list[ModalityExpert], fixed_weights, sched: NoiseSchedule,
                   stats: ActionStats) -> ComposedPolicy:
    """Fixed-weight composition, e.g. (0.5, 0.5) over independently trained
    experts; weights are renormalized to sum 1 with a warning if needed."""
    w = np.asarray(fixed_weights, dtype=np.float64)
    if w.shape != (len(experts),):
        raise ContractError(f"{len(experts)} experts but weight shape {w.shape}")
    if np.any(w < 0.0):
        raise ContractError(f"negative manual weight in {w}")
    s = w.sum()
    if s <= 0.0:
        raise ContractError("manual weights must not be all zero")
    if abs(s - 1.0) > 1e-12:
        warnings.warn(f"manual weights sum to {s}; renormalizing")
        w = w / s
    return ComposedPolicy(experts=experts, sched=sched, stats=stats,
                          fixed_w=w, strategy="soft")


def single_expert_policy(expert: ModalityExpert, sched: NoiseSchedule,
                         stats: ActionStats) -> ComposedPolicy:
    return manual_compose([expert], [1.0], sched, stats)


# ---------------------------------------------------------------------------
# feature-fusion baselines


@dataclass
class _EncoderBank:
    """Per-modality encoders shared by both baselines."""

    modality_order: tuple[str, ...]
    modality_dims: tuple[int, ...]
    robot_dim: int
    encoders: list[tuple[nc.ParamSet, nc.MlpSpec]]

    def emb_dims(self) -> tuple[int, ...]:
        return tuple(spec.output_dim + self.robot_dim for _, spec in self.encoders)

    def encode_obs(self, obs: Observation) -> list[np.ndarray]:
        embs = []
        for name, dim, (params, spec) in zip(self.modality_order, self.modality_dims,
                                             self.encoders):
            if name not in obs.modalities:
                raise ContractError(f"observation lacks modality '{name}'")
            m = obs.modalities[name]
            code = nc.mlp_infer(params, spec, np.asarray(m, dtype=np.float64)[None, :])[0]
            embs.append(np.concatenate([code, obs.robot_state]))
        return embs

    def encode_rows_graph(self, cond: np.ndarray, slices: list[slice]) -> list[nc.Tensor]:
        rs = cond[:, slices[-1]]
        embs = []
        for (params, spec), sl in zip(self.encoders, slices[:-1]):
            code = nc.mlp_forward(params, spec, nc.const(cond[:, sl]))
            embs.append(nc.concat_cols([code, nc.const(rs)]))
        return embs

    def n_params(self) -> int:
        return sum(p.n_params() for p, _ in self.encoders)

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return [(f"enc_{name}", p) for name, (p, _) in
                zip(self.modality_order, self.encoders)]


@dataclass
class ConcatPolicy:
    bank: _EncoderBank
    score_params: nc.ParamSet
    score_spec: nc.MlpSpec
    sched: NoiseSchedule
    stats: ActionStats
    sigma_mode: str = "beta"
    loss_history: list[float] = field(default_factory=list, repr=False)

    @property
    def modality_order(self) -> tuple[str, ...]:
        return self.bank.modality_order

    def n_params(self) -> int:
        return self.bank.n_params() + self.score_params.n_params()

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return self.bank.param_groups() + [("score", self.score_params)]

    def act(self, obs: Observation, rng: np.random.Generator) -> np.ndarray:
        return _fusion_sample(self, np.concatenate(self.bank.encode_obs(obs)), rng)


@dataclass
class MoEFeaturePolicy:
    bank: _EncoderBank
    gate_params: nc.ParamSet
    gate_spec: nc.MlpSpec
    score_params: nc.ParamSet
    score_spec: nc.MlpSpec
    sched: NoiseSchedule
    stats: ActionStats
    sigma_mode: str = "beta"
    loss_history: list[float] = field(default_factory=list, repr=False)

    @property
    def modality_order(self) -> tuple[str, ...]:
        return self.bank.modality_order

    def n_params(self) -> int:
        return (self.bank.n_params() + self.gate_params.n_params()
                + self.score_params.n_params())

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return (self.bank.param_groups()
                + [("gate", self.gate_params), ("score", self.score_params)])

    def gate_weights(self, embs: list[np.ndarray]) -> np.ndarray:
        logits = nc.mlp_infer(self.gate_params, self.gate_spec,
                              np.concatenate(embs)[None, :])[0]
        z = logits - logits.max()
        e = np.exp(z)
        return e / e.sum()

    def act(self, obs: Observation, rng: np.random.Generator) -> np.ndarray:
        embs = self.bank.encode_obs(obs)
        g = self.gate_weights(embs)
        return _fusion_sample(self, sum(gi * e for gi, e in zip(g, embs)), rng)


def _fusion_sample(policy, cond: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sampling shared by the fusion baselines: one score net over
    [a_k, cond, timestep features]; they differ only in how cond is built."""

    def score(a_k, c, k):
        x = np.concatenate([a_k, c, timestep_features(k, policy.sched.K)])
        return nc.mlp_infer(policy.score_params, policy.score_spec, x[None, :])[0]

    return _sample(policy, score, cond, rng)


def _make_bank(dataset, cfg, rng: np.random.Generator) -> _EncoderBank:
    ex = cfg.expert
    encoders = []
    for dim in dataset.modality_dims.values():
        spec = nc.MlpSpec(dim, tuple(ex.enc_hidden), ex.enc_out, activation=ex.activation)
        encoders.append((nc.init_mlp(spec, rng), spec))
    return _EncoderBank(
        modality_order=tuple(dataset.modality_dims),
        modality_dims=tuple(dataset.modality_dims.values()),
        robot_dim=dataset.robot_dim, encoders=encoders,
    )


def _score_net(dataset, cond_dim: int, cfg, rng: np.random.Generator):
    """A fusion baseline's score net over [a_k, cond, timestep features]."""
    spec = nc.MlpSpec(dataset.chunk_dim + cond_dim + TIMESTEP_DIM,
                      tuple(cfg.expert.sub_hidden), dataset.chunk_dim,
                      activation=cfg.expert.activation)
    return nc.init_mlp(spec, rng), spec


def _fit_fusion(policy, dataset, cfg, rng: np.random.Generator, cond_graph):
    """Train a fusion baseline end to end; cond_graph(embedding tensors) is
    the graph twin of how its act() builds the condition."""
    a_rows, cond_rows, slices = dataset.training_cond_rows(policy.bank.modality_order)

    def score(a_k, c, ks):
        cond = cond_graph(policy.bank.encode_rows_graph(c, slices))
        feats = timestep_features(ks, policy.sched.K)
        x = nc.concat_cols([nc.const(a_k), cond, nc.const(feats)])
        return nc.mlp_forward(policy.score_params, policy.score_spec, x)

    policy.loss_history = fit_denoiser(
        score, policy.param_groups(), a_rows, cond_rows, policy.sched,
        steps=cfg.train.steps, batch=cfg.train.batch, lr=cfg.train.lr, rng=rng)
    return policy


def train_concat_policy(dataset, cfg, rng: np.random.Generator) -> ConcatPolicy:
    """All-modality baseline: one score net over concatenated embeddings."""
    bank = _make_bank(dataset, cfg, rng)
    score_params, score_spec = _score_net(dataset, int(sum(bank.emb_dims())), cfg, rng)
    sched = make_schedule(cfg.diffusion.steps, cfg.diffusion.beta_start,
                          cfg.diffusion.beta_end)
    policy = ConcatPolicy(bank=bank, score_params=score_params, score_spec=score_spec,
                          sched=sched, stats=dataset.stats(),
                          sigma_mode=cfg.diffusion.sigma_mode)
    return _fit_fusion(policy, dataset, cfg, rng, nc.concat_cols)


def train_moe_policy(dataset, cfg, rng: np.random.Generator) -> MoEFeaturePolicy:
    """Feature-level MoE baseline: gated weighted sum of embeddings feeds one
    score net; the gate trains jointly with everything else."""
    bank = _make_bank(dataset, cfg, rng)
    emb_dims = bank.emb_dims()
    if len(set(emb_dims)) != 1:
        raise ConfigError(f"feature MoE needs equal embedding dims, got {emb_dims}")
    n = len(bank.modality_order)
    gate_spec = nc.MlpSpec(int(sum(emb_dims)), tuple(cfg.router.hidden), n)
    gate_params = nc.init_mlp(gate_spec, rng)
    # Zero the gate's output layer: the gate starts exactly uniform, so the
    # score net first learns on the plain mean of the embeddings and the
    # gate only sharpens once that helps the objective.
    last = len(gate_spec.layer_dims()) - 1
    gate_params[f"W{last}"].data[...] = 0.0
    score_params, score_spec = _score_net(dataset, emb_dims[0], cfg, rng)
    sched = make_schedule(cfg.diffusion.steps, cfg.diffusion.beta_start,
                          cfg.diffusion.beta_end)
    policy = MoEFeaturePolicy(bank=bank, gate_params=gate_params, gate_spec=gate_spec,
                              score_params=score_params, score_spec=score_spec,
                              sched=sched, stats=dataset.stats(),
                              sigma_mode=cfg.diffusion.sigma_mode)

    def gated(embs):
        g = nc.softmax_rows(nc.mlp_forward(gate_params, gate_spec, nc.concat_cols(embs)))
        cond = None
        for i, e in enumerate(embs):
            term = nc.mul(nc.col(g, i), e)
            cond = term if cond is None else nc.add(cond, term)
        return cond

    return _fit_fusion(policy, dataset, cfg, rng, gated)
