"""Policy-level composition and the fusion baselines.

The composed policy runs one denoising loop whose score is the consensus-
weighted sum of per-expert scores; weights come from a router or a fixed
vector and are post-processed by a routing strategy. The baselines fuse at
the feature level instead, from the same parts: one ``experts.Encoder`` per
stream and one score net conditioned on the concatenated embeddings
(ConcatPolicy) or on their sum weighted by a ``router.Router`` gate
(MoEFeaturePolicy). Every policy samples B observations at once with
``act_rows``, each row bit for bit its own one-row ``act``, over a score
bound once per call through ``experts.bind_score`` (``mixed_score`` for the
composed policy); its ``sched`` holds the whole reverse step, its noise
scale included.
Every policy checks its settings when built. ``ComposedPolicy`` holds every
composition check (a known strategy; a fitting router or valid fixed weights;
experts that stack on its schedule and width) and is frozen, experts included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .diffusion import NoiseSchedule, ddpm_sample, fit_denoiser
from .envs import ActionStats, Observation
from .errors import ConfigError, ContractError, ShapeError
from .experts import (Encoder, ModalityExpert, _check_score_net, bind_score, init_encoder,
                      mixed_score, score_graph, score_net_spec)
from .router import STRATEGIES, Router, apply_strategy, check_weights, gated_sum, init_router


def _rows(obs_rows, names) -> list[np.ndarray]:
    """Every observation's robot state, then its reading of each named
    modality, as sampling rows."""
    try:
        cols = [[o.robot_state for o in obs_rows]]
        cols += [[o.modalities[n] for o in obs_rows] for n in names]
    except KeyError as e:
        raise ContractError(f"observation lacks modality '{e.args[0]}'") from None
    return [nc.row_layout(np.array(c, dtype=np.float64)) for c in cols]


class _RowSampler:
    """The one sampler of every policy: a denoising loop over the rows of its
    ``score_provider(obs_rows)``, then back to action units. ``act(obs,
    rng)`` is its one-row case."""

    def act_rows(self, obs_rows, rngs) -> np.ndarray:
        """(B, chunk_dim) action chunks, row r bit for bit act(obs_rows[r], rngs[r])."""
        if not obs_rows or len(obs_rows) != len(rngs):
            raise ContractError(f"{len(rngs)} generators for {len(obs_rows)} observations")
        a_hat = ddpm_sample(self.score_provider(obs_rows), self.sched, rngs,
                            self.stats.chunk_dim)
        return self.stats.denormalize_chunk(a_hat)

    def act(self, obs: Observation, rng: np.random.Generator) -> np.ndarray:
        """One denoised, denormalized action chunk for this observation."""
        return self.act_rows([obs], [rng])[0]


@dataclass(frozen=True)
class ComposedPolicy(_RowSampler):
    experts: tuple[ModalityExpert, ...]   # any sequence, kept as a tuple
    sched: NoiseSchedule
    stats: ActionStats
    router: Router | None = None
    fixed_w: np.ndarray | None = None
    strategy: str = "soft"

    def __post_init__(self):
        """A known strategy over a router that fits these experts or valid fixed
        weights (kept read-only); the experts stack on this schedule and width."""
        object.__setattr__(self, "experts", tuple(self.experts))
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown routing strategy '{self.strategy}'")
        if (self.router is None) == (self.fixed_w is None):
            raise ContractError("a composed policy needs exactly one of router or weights")
        if self.fixed_w is not None:
            w = check_weights(self.fixed_w, len(self.experts)).copy()
            w.flags.writeable = False
            object.__setattr__(self, "fixed_w", w)
        else:
            have = (self.modality_order, tuple(ex.enc.emb_dim for ex in self.experts))
            want = (self.router.modality_order, self.router.emb_dims)
            if want != have:
                raise ContractError(f"router takes (modality order, embedding dims) "
                                    f"{want}, the experts give {have}")
        specs = [ex.score_spec for ex in self.experts]
        if any(spec != specs[0] for spec in specs):
            raise ContractError(f"experts differ in score_spec: {specs}")
        want = (self.sched.K, self.stats.chunk_dim)
        for ex in self.experts:
            if (ex.n_steps, ex.action_dim) != want:
                raise ContractError(f"expert '{ex.modality}' has (denoising steps, action "
                                    f"dim) {(ex.n_steps, ex.action_dim)}, not {want}")

    @property
    def modality_order(self) -> tuple[str, ...]:
        return tuple(ex.modality for ex in self.experts)

    def n_params(self) -> int:
        total = sum(ex.n_params() for ex in self.experts)
        if self.router is not None:
            total += self.router.n_params()
        return total

    def _consensus(self, obs_rows) -> tuple[np.ndarray, list[np.ndarray]]:
        """Post-strategy consensus weights, one row per observation, and the
        experts' embedding rows."""
        rs, *m_rows = _rows(obs_rows, self.modality_order)
        embs = [ex.encode_rows(m, rs) for ex, m in zip(self.experts, m_rows)]
        if self.router is None:
            w = np.tile(self.fixed_w, (len(obs_rows), 1))
        else:
            w = self.router.weights_rows(np.concatenate(embs, axis=-1)).reshape(len(obs_rows), -1)
        if self.strategy != "soft":   # soft is the identity
            w = apply_strategy(w, self.strategy)
        return w, embs

    def weights_for(self, obs: Observation) -> np.ndarray:
        """Post-strategy consensus weights at this state."""
        return self._consensus([obs])[0][0]

    def score_provider(self, obs_rows):
        """The consensus score provider over these observations' rows: the
        weighted sum of the expert scores, one stacked score per step, bound
        once (``mixed_score``). An expert no row weights is left out, so a
        one-hot weight reproduces one expert bit for bit; on a row that
        weights it zero among others, its term is a zero that changes no sum
        but the sign of an exact zero."""
        w, embs = self._consensus(obs_rows)
        keep = w.any(axis=0).nonzero()[0]
        return mixed_score([self.experts[i] for i in keep], [embs[i] for i in keep],
                           nc.row_layout(w.T[keep, :, None]))

    act = _RowSampler.act   # each class's own: the benchmark's tracer wraps it there


def compose_policy(experts: list[ModalityExpert], router: Router, strategy: str,
                   sched: NoiseSchedule, stats: ActionStats) -> ComposedPolicy:
    """Router-weighted composition of trained experts."""
    return ComposedPolicy(experts=experts, sched=sched, stats=stats,
                          router=router, strategy=strategy)


def manual_compose(experts: list[ModalityExpert], fixed_weights, sched: NoiseSchedule,
                   stats: ActionStats) -> ComposedPolicy:
    """Fixed-weight composition, e.g. (0.5, 0.5), through ``manual_weights``."""
    return ComposedPolicy(experts=experts, sched=sched, stats=stats,
                          fixed_w=manual_weights(fixed_weights, len(experts)))


def manual_weights(fixed_weights, n: int) -> np.ndarray:
    """Fixed weights for n experts, renormalized with a warning if their sum is
    all that is off; ``ComposedPolicy`` refuses any other fault as given."""
    w = np.asarray(fixed_weights, dtype=np.float64)
    if not w.any():
        raise ContractError("manual weights must not be all zero")
    s = w.sum()
    if w.shape == (n,) and np.all(w >= 0.0) and np.isfinite(s) and abs(s - 1.0) > 1e-12:
        warnings.warn(f"manual weights sum to {s}; renormalizing")
        w = w / s
    return w


def single_expert_policy(expert: ModalityExpert, sched: NoiseSchedule,
                         stats: ActionStats) -> ComposedPolicy:
    return manual_compose([expert], [1.0], sched, stats)


# ---------------------------------------------------------------------------
# feature-fusion baselines


@dataclass(kw_only=True)
class _FusionPolicy(_RowSampler):
    """What both baselines share: per-modality encoders and one score net
    over [a_k, cond rows, timestep features]. They differ only in how
    ``_cond`` builds cond from the embedding rows."""

    encoders: list[Encoder]
    score_params: nc.ParamSet
    score_spec: nc.MlpSpec
    sched: NoiseSchedule
    stats: ActionStats
    loss_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        _check_score_net(self.score_spec, self.stats.chunk_dim, self._cond_dim(),
                         type(self).__name__)

    @property
    def modality_order(self) -> tuple[str, ...]:
        return tuple(enc.modality for enc in self.encoders)

    def n_params(self) -> int:
        return sum(ps.n_params() for _, ps in self.param_groups())

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return ([(f"enc_{enc.modality}", enc.params) for enc in self.encoders]
                + [("score", self.score_params)])

    def embed(self, obs_rows) -> list[np.ndarray]:
        """Each encoder's embedding rows of these observations."""
        rs, *m_rows = _rows(obs_rows, self.modality_order)
        return [enc.rows(m, rs) for enc, m in zip(self.encoders, m_rows)]

    def score_provider(self, obs_rows):
        """The score net bound once to these observations' cond rows
        (``bind_score``); ``ddpm_sample`` checks its state once."""
        return bind_score(self.score_params, self.score_spec,
                          self._cond(self.embed(obs_rows)), self.sched.K)


class ConcatPolicy(_FusionPolicy):
    def _cond_dim(self) -> int:
        return sum(enc.emb_dim for enc in self.encoders)

    def _cond(self, embs: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(embs, axis=-1)

    act = _RowSampler.act   # each class's own: the benchmark's tracer wraps it there


@dataclass(kw_only=True)
class MoEFeaturePolicy(_FusionPolicy):
    gate: Router

    def _cond_dim(self) -> int:
        dims = tuple(enc.emb_dim for enc in self.encoders)
        if len(set(dims)) != 1:
            raise ShapeError(f"feature MoE needs equal embedding dims, got {dims}")
        return dims[0]

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        *encs, score = super().param_groups()
        return encs + [("gate", self.gate.params), score]

    def _cond(self, embs: list[np.ndarray]) -> np.ndarray:
        g = self.gate.weights_rows(np.concatenate(embs, axis=-1))
        return sum(g[..., i:i + 1] * e for i, e in enumerate(embs))

    act = _RowSampler.act   # each class's own: the benchmark's tracer wraps it there


def _fit_fusion(cls, dataset, cfg, rng: np.random.Generator, encoders: list[Encoder],
                cond_dim: int, cond_graph, **gate):
    """Build a fusion baseline over these encoders with a fresh score net of
    cond_dim wide conditions, and train it end to end; cond_graph(embedding
    tensors) is the graph twin of how its act() builds the condition."""
    stats = dataset.stats()
    spec = score_net_spec(stats.chunk_dim, cond_dim, cfg)
    policy = cls(encoders=encoders, score_params=nc.init_mlp(spec, rng), score_spec=spec,
                 sched=cfg.diffusion.schedule(), stats=stats, **gate)
    a_rows, blocks = dataset.training_rows(policy.modality_order)

    def score(a_k, b, ks):
        *m_blocks, rs = b
        embs = [enc.graph(m_rows, rs) for enc, m_rows in zip(encoders, m_blocks)]
        return score_graph(policy.score_params, spec, a_k, cond_graph(embs), ks, policy.sched.K)

    policy.loss_history = fit_denoiser(score, policy.param_groups(), a_rows, blocks, cfg, rng)
    return policy


def train_concat_policy(dataset, cfg, rng: np.random.Generator) -> ConcatPolicy:
    """All-modality baseline: one score net over concatenated embeddings."""
    encoders = [init_encoder(name, dim, dataset.robot_dim, cfg, rng)
                for name, dim in dataset.modality_dims.items()]
    return _fit_fusion(ConcatPolicy, dataset, cfg, rng, encoders,
                       sum(enc.emb_dim for enc in encoders), nc.concat_cols)


def train_moe_policy(dataset, cfg, rng: np.random.Generator) -> MoEFeaturePolicy:
    """Feature-level MoE baseline: gated weighted sum of embeddings feeds one
    score net; the gate trains jointly with everything else."""
    encoders = [init_encoder(name, dim, dataset.robot_dim, cfg, rng)
                for name, dim in dataset.modality_dims.items()]
    emb_dims = tuple(enc.emb_dim for enc in encoders)
    gate = init_router(tuple(dataset.modality_dims), emb_dims, tuple(cfg.router.hidden), rng)
    # Zero the gate's output layer: the gate starts exactly uniform, so the
    # score net first learns on the plain mean of the embeddings and the
    # gate only sharpens once that helps the objective.
    gate.params[f"W{len(gate.spec.layer_dims()) - 1}"].data[...] = 0.0
    return _fit_fusion(MoEFeaturePolicy, dataset, cfg, rng, encoders, emb_dims[0],
                       lambda embs: gated_sum(gate, embs, embs), gate=gate)
