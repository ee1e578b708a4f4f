"""Per-modality experts and the two parts every policy is built from.

An ``Encoder`` maps one stream's reading to an embedding, MLP(reading)
followed by the robot state; experts and both fusion baselines hold it. A
score net maps rows [noised action, cond, timestep features] to predicted
noise; an expert's cond is its own embedding, a baseline's its fused ones.
Every numpy scoring path binds its score net, or a stack of them, through
``bind_score``: ``score_rows`` (one expert, checked), ``mixed_score`` (a
composed policy's weighted experts) and the baselines' ``score_provider``.
``score_graph`` is its training twin.

Each expert owns one encoder and one score net, ``score_params`` under
``score_spec``, shaped as ``init_mlp`` makes it; the paper factorizes the
policy into one diffusion model per stream and nothing within one. Training,
Adam, joint router fine-tuning, checkpoints and ``score_rows`` use that one
net. ``mixed_score`` copies E experts' nets into one stack, weights of shape
(E, in, out), and scores them all with one ``mlp_infer`` call per step; each
slice is bit-identical to that expert's own call, and a lone expert at
weight 1 is bound alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import numcore as nc
from .diffusion import fit_denoiser, make_schedule
from .errors import ConfigError, ContractError, ShapeError

TIMESTEP_DIM = 16
_N_FREQ = TIMESTEP_DIM // 2


@lru_cache(maxsize=16)
def _feature_table(n_steps: int) -> np.ndarray:
    """Read-only features of k = 1..n_steps, row k-1 (see timestep_features)."""
    t = np.arange(1, n_steps + 1, dtype=np.float64) / n_steps
    if n_steps > 1:
        freqs = float(n_steps) ** (np.arange(_N_FREQ) / (_N_FREQ - 1))
    else:
        freqs = np.ones(_N_FREQ)
    angles = t[..., None] * freqs
    out = np.empty(t.shape + (TIMESTEP_DIM,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    out.flags.writeable = False
    return out


def timestep_features(k, n_steps: int) -> np.ndarray:
    """Sinusoidal features of the denoising index.

    8 geometric frequencies spanning 1..n_steps applied to t = k/n_steps;
    the f=1 cosine is strictly monotone on (0, 1], so distinct k never
    collide. Accepts an int (returns a read-only (16,) row) or an int array
    (returns (B,16)); rows come from one table per n_steps, so they equal
    the formula bit for bit. k outside 1..n_steps raises ContractError.
    """
    table = _feature_table(n_steps)
    # a Python int k costs no numpy call
    if isinstance(k, int):
        if not 1 <= k <= n_steps:
            raise ContractError(f"denoising index outside 1..{n_steps}: {k}")
        return table[k - 1]
    karr = np.asarray(k)
    if karr.dtype.kind not in "iu" or (
            karr.size and not (1 <= karr.min() and karr.max() <= n_steps)):
        raise ContractError(f"denoising index outside 1..{n_steps}: {k}")
    return table[karr - 1]


def bind_score(params, spec: nc.MlpSpec, cond: np.ndarray, n_steps: int):
    """A score net, or a stack of them (a ``ParamSet`` or a dict of stacked
    arrays), bound to its cond rows in their layout: one buffer of rows
    [a_k, cond, timestep features] with cond written once, and the layers
    ``nc.mlp_layers`` fits to its rows. ``score(a_k, k)`` writes a_k and step
    k's feature rows (k an int in 1..n_steps, or an int array, one per row)
    and runs the bound layers. It checks nothing: ``ddpm_sample`` checks its
    state once, ``score_rows`` every call."""
    ad = spec.output_dim
    buf = np.empty(cond.shape[:-1] + (ad + cond.shape[-1] + TIMESTEP_DIM,))
    buf[..., ad:-TIMESTEP_DIM] = cond
    layers = nc.mlp_layers(params, spec, buf)
    a_in, t_in, table = buf[..., :ad], buf[..., -TIMESTEP_DIM:], _feature_table(n_steps)

    def score(a_k: np.ndarray, k) -> np.ndarray:
        a_in[...] = a_k
        t_in[...] = table[k - 1]
        return nc.mlp_infer(layers, spec, buf)

    return score


@dataclass
class Encoder:
    """One stream's encoder: an embedding is MLP(modality reading) followed
    by the robot state. Experts and both fusion baselines hold these."""

    modality: str
    params: nc.ParamSet
    spec: nc.MlpSpec
    robot_dim: int

    @property
    def emb_dim(self) -> int:
        return self.spec.output_dim + self.robot_dim

    def rows(self, m_rows: np.ndarray, rs_rows: np.ndarray) -> np.ndarray:
        """Embedding rows in the layout given (see ``nc.mlp_infer``)."""
        if m_rows.shape[-1:] != (self.spec.input_dim,) or rs_rows.shape[-1:] != (self.robot_dim,):
            raise ShapeError(
                f"encoder '{self.modality}' expects modality rows of width "
                f"{self.spec.input_dim} and robot-state rows of width {self.robot_dim}, "
                f"got {m_rows.shape} and {rs_rows.shape}")
        code = nc.mlp_infer(self.params, self.spec, m_rows)
        return np.concatenate([code, rs_rows], axis=-1)

    def graph(self, m_rows: np.ndarray, rs_rows: np.ndarray) -> nc.Tensor:
        """The training twin of ``rows``: gradients flow into the MLP."""
        code = nc.mlp_forward(self.params, self.spec, nc.const(m_rows))
        return nc.concat_cols([code, nc.const(rs_rows)])


def init_encoder(modality: str, modality_dim: int, robot_dim: int, cfg,
                 rng: np.random.Generator) -> Encoder:
    """Fresh encoder with random weights from cfg's [expert] shapes."""
    ex = cfg.expert
    spec = nc.MlpSpec(modality_dim, tuple(ex.enc_hidden), ex.enc_out, activation=ex.activation)
    return Encoder(modality, nc.init_mlp(spec, rng), spec, robot_dim)


def score_net_spec(action_dim: int, cond_dim: int, cfg) -> nc.MlpSpec:
    """A score net over [a_k, cond, timestep features], from cfg's [expert]
    shapes: an expert's or a fusion baseline's one net."""
    ex = cfg.expert
    return nc.MlpSpec(action_dim + cond_dim + TIMESTEP_DIM, tuple(ex.score_hidden),
                      action_dim, activation=ex.activation)


def _check_score_net(spec: nc.MlpSpec, action_dim: int, cond_dim: int, owner: str) -> None:
    """A score net maps rows [a_k, cond, timestep features] to a_k's width."""
    fits = (action_dim + cond_dim + TIMESTEP_DIM, action_dim)
    if (spec.input_dim, spec.output_dim) != fits:
        raise ShapeError(f"the score net of {owner} maps {spec.input_dim} inputs to "
                         f"{spec.output_dim}; its parts need {fits[0]} to {fits[1]}")


def score_graph(params: nc.ParamSet, spec: nc.MlpSpec, a_k: np.ndarray, cond: nc.Tensor,
                ks: np.ndarray, n_steps: int) -> nc.Tensor:
    """The training twin of ``bind_score``: one graph forward of a score
    net over rows [a_k, cond, timestep features]."""
    feats = timestep_features(ks, n_steps)
    x = nc.concat_cols([nc.const(a_k), cond, nc.const(feats)])
    return nc.mlp_forward(params, spec, x)


@dataclass
class ModalityExpert:
    enc: Encoder
    action_dim: int
    score_params: nc.ParamSet
    score_spec: nc.MlpSpec
    n_steps: int
    loss_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"expert '{self.modality}' needs n_steps >= 1, got {self.n_steps}")
        got = {name: t.shape for name, t in self.score_params.items()}
        want = {}
        for i, (fan_in, fan_out) in enumerate(self.score_spec.layer_dims()):
            want.update({f"W{i}": (fan_in, fan_out), f"b{i}": (fan_out,)})
        if got != want:
            raise ShapeError(f"expert '{self.modality}' needs a score net of its spec, "
                             f"{want}, got {got}")
        _check_score_net(self.score_spec, self.action_dim, self.enc.emb_dim,
                         f"expert '{self.modality}'")

    @property
    def modality(self) -> str:
        return self.enc.modality

    def n_params(self) -> int:
        return self.enc.params.n_params() + self.score_params.n_params()

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return [("enc", self.enc.params), ("score", self.score_params)]

    def checksum(self) -> str:
        return self.enc.params.checksum() + self.score_params.checksum()

    # -- frozen (numpy) paths used by sampling, routing, and analysis --

    def encode_rows(self, m_rows: np.ndarray, rs_rows: np.ndarray) -> np.ndarray:
        """This expert's embedding rows, ``enc.rows``."""
        return self.enc.rows(m_rows, rs_rows)

    def score_rows(self, a_rows: np.ndarray, emb_rows: np.ndarray, ks) -> np.ndarray:
        """This expert's score on rows [a_k, embedding, timestep features],
        its net's ``bind_score`` output. Checked: a_k must fit the rows, ks (an
        int or int array) lie in 1..n_steps, and the output be finite."""
        if a_rows.shape != emb_rows.shape[:-1] + (self.action_dim,):
            raise ShapeError(f"action rows {a_rows.shape} do not fit score rows "
                             f"{emb_rows.shape[:-1]}")
        timestep_features(ks, self.n_steps)   # refuses k outside 1..n_steps
        out = bind_score(self.score_params, self.score_spec, emb_rows, self.n_steps)(a_rows, ks)
        nc.check_finite(out, "mlp_infer")
        return out


def mixed_score(experts: list[ModalityExpert], embs: list[np.ndarray], weights: np.ndarray):
    """A sampler's score provider ``(a_k, k)``, k an int in 1..n_steps: E
    experts' scores, as ``score_rows`` gives them, weighted by ``weights``
    (E, rows..., 1) and summed in expert order. Their nets, copied into one
    (E, in, out) stack so a later weight edit is seen only by the next
    binding, are bound once to their embedding rows ``embs`` (``bind_score``):
    a call runs the layer ops and the mix. One expert at weight 1, whose mix
    is the exact identity, is its own net bound to ``embs[0]``, uncopied.
    The weights are broadcast to the scores' shape once, so the per-step
    multiply has operands of equal shape (see ``numcore``). Nothing is checked
    per call; ``ddpm_sample`` checks its state once. The experts share one
    score_spec and n_steps."""
    ex = experts[0]
    if len(experts) == 1 and bool((weights == 1.0).all()):
        return bind_score(ex.score_params, ex.score_spec, embs[0], ex.n_steps)
    params = {}
    for name in ex.score_params.names():
        stack = np.array([e.score_params[name].data for e in experts])
        params[name] = stack[:, None] if stack.ndim == 2 else stack   # biases (E, 1, out)
    score = bind_score(params, ex.score_spec, np.array(embs), ex.n_steps)
    w = np.ascontiguousarray(np.broadcast_to(weights, weights.shape[:-1] + (ex.action_dim,)))
    return lambda a_k, k: np.add.reduce(score(a_k, k) * w, axis=0)


def init_expert(modality: str, modality_dim: int, robot_dim: int, action_dim: int,
                cfg, rng: np.random.Generator) -> ModalityExpert:
    """Fresh expert with random encoder and score-net weights from cfg shapes."""
    enc = init_encoder(modality, modality_dim, robot_dim, cfg, rng)
    spec = score_net_spec(action_dim, enc.emb_dim, cfg)
    return ModalityExpert(
        enc=enc, action_dim=action_dim, score_params=nc.init_mlp(spec, rng), score_spec=spec,
        n_steps=cfg.diffusion.steps,
    )


def _expert_score_graph(expert: ModalityExpert, a_k: np.ndarray, m_rows: np.ndarray,
                        rs_rows: np.ndarray, ks: np.ndarray) -> tuple[nc.Tensor, nc.Tensor]:
    """Training-time (score, embedding): the graph twin of encode_rows then
    score_rows, so gradients flow into the encoder and the score net."""
    emb = expert.enc.graph(m_rows, rs_rows)
    return score_graph(expert.score_params, expert.score_spec, a_k, emb, ks,
                       expert.n_steps), emb


def train_expert(dataset, modality: str, cfg, rng: np.random.Generator) -> ModalityExpert:
    """Fit one modality's expert on the dataset by the eps-MSE objective.

    The encoder and the score net train jointly; only the named modality's
    stream and the robot state are ever read. Deterministic given rng.
    """
    if modality not in dataset.modality_dims:
        raise ConfigError(
            f"dataset has modalities {list(dataset.modality_dims)}, not '{modality}'"
        )
    a_rows, cond_rows, (m_cols, rs_cols) = dataset.training_cond_rows((modality,))
    expert = init_expert(modality, dataset.modality_dims[modality],
                         dataset.robot_dim, a_rows.shape[1], cfg, rng)
    sched = make_schedule(cfg.diffusion.steps, cfg.diffusion.beta_start,
                          cfg.diffusion.beta_end)
    score = lambda ak, c, ks: _expert_score_graph(
        expert, ak, c[:, m_cols], c[:, rs_cols], ks)[0]
    expert.loss_history = fit_denoiser(
        score, expert.param_groups(), a_rows, cond_rows, sched,
        steps=cfg.train.steps, batch=cfg.train.batch, lr=cfg.train.lr, rng=rng)
    return expert
