"""Per-modality experts and the two parts every policy is built from.

An ``Encoder`` maps one stream's reading to an embedding, MLP(reading)
followed by the robot state; experts and both fusion baselines hold it. A
score net maps rows [noised action, cond, timestep features] to predicted
noise (``score_input`` builds the rows, ``score_graph`` is its training
twin); an expert's cond is its own embedding, a baseline's its fused ones.

Each expert owns one encoder and ``n_sub`` sub-policy score nets. Its score
is the mean of its sub-policies (or, with the band-split option, the single
sub-policy responsible for the current denoising band). The score has one
numpy form, ``encode_rows`` then ``stacked_scores`` of one or more experts
(``score_rows`` for one; ``mixed_score`` is its weighted sum bound once for
a sampler), and one graph form for training, ``_expert_score_graph``, which
the expert and the joint router both use.

Storage: an expert keeps its sub-policies as one stacked ``ParamSet``, one
array per tensor name with the sub-policy on the leading axis (``W_i`` of
shape (n_sub, in, out), ``b_i`` of shape (n_sub, 1, out)), and one spec they
share. Training, Adam, joint router fine-tuning, checkpoints and inference
all use that one form. ``stacked_scores`` scores every sub-policy of E
experts with one ``mlp_infer`` call, ``_expert_score_graph`` one expert's with
one ``mlp_forward`` call; each slice is bit-identical to that sub-policy's own
call, and both average the slices in sub-policy order (``np.add.reduce``
adds them in order: the action axis after them is longer than 1), dividing
the sum by ``n_sub``, or take each row's band owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import numcore as nc
from .diffusion import SIGMA_MODES, fit_denoiser, make_schedule
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


def score_input(cond: np.ndarray, action_dim: int) -> np.ndarray:
    """One buffer of score-net rows [a_k, cond, timestep features] with cond
    written once; each call of a scorer writes a_k and step k's features."""
    buf = np.empty(cond.shape[:-1] + (action_dim + cond.shape[-1] + TIMESTEP_DIM,))
    buf[..., action_dim:-TIMESTEP_DIM] = cond
    return buf


def step_inputs(buf: np.ndarray, action_dim: int, n_steps: int):
    """What a sampler's scorer writes into ``buf`` at step k: the views
    ``a_in`` and ``t_in`` of its a_k and feature columns, and the list of
    feature rows, k = 1..n_steps at index k-1."""
    return buf[..., :action_dim], buf[..., -TIMESTEP_DIM:], list(_feature_table(n_steps))


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
    shapes: an expert's sub-policy or a fusion baseline's one net."""
    ex = cfg.expert
    return nc.MlpSpec(action_dim + cond_dim + TIMESTEP_DIM, tuple(ex.sub_hidden),
                      action_dim, activation=ex.activation)


def _check_score_net(spec: nc.MlpSpec, action_dim: int, cond_dim: int, sigma_mode: str,
                     owner: str) -> None:
    """A score net maps rows [a_k, cond, timestep features] to a_k's width and
    samples with a known reverse-step noise mode."""
    if sigma_mode not in SIGMA_MODES:
        raise ConfigError(f"{owner} has sigma_mode {sigma_mode!r}, not one of {SIGMA_MODES}")
    fits = (action_dim + cond_dim + TIMESTEP_DIM, action_dim)
    if (spec.input_dim, spec.output_dim) != fits:
        raise ShapeError(f"the score net of {owner} maps {spec.input_dim} inputs to "
                         f"{spec.output_dim}; its parts need {fits[0]} to {fits[1]}")


def score_graph(params: nc.ParamSet, spec: nc.MlpSpec, a_k: np.ndarray, cond: nc.Tensor,
                ks: np.ndarray, n_steps: int) -> nc.Tensor:
    """The training twin of ``score_input``: one graph forward of a score
    net (or stack of them) over rows [a_k, cond, timestep features]."""
    feats = timestep_features(ks, n_steps)
    x = nc.concat_cols([nc.const(a_k), cond, nc.const(feats)])
    return nc.mlp_forward(params, spec, x)


@dataclass
class ModalityExpert:
    enc: Encoder
    action_dim: int
    subs: nc.ParamSet          # the stacked sub-policies, see the module docstring
    sub_spec: nc.MlpSpec
    n_steps: int
    noise_band_split: bool = False
    sigma_mode: str = "beta"
    loss_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"expert '{self.modality}' needs n_steps >= 1, got {self.n_steps}")
        got = {name: t.shape for name, t in self.subs.items()}
        n = got.get("W0", (0,))[0]
        want = {}
        for i, (fan_in, fan_out) in enumerate(self.sub_spec.layer_dims()):
            want.update({f"W{i}": (n, fan_in, fan_out), f"b{i}": (n, 1, fan_out)})
        if n < 1 or got != want:
            raise ShapeError(f"expert '{self.modality}' needs one or more stacked "
                             f"sub-policies of one spec, {want}, got {got}")
        _check_score_net(self.sub_spec, self.action_dim, self.enc.emb_dim, self.sigma_mode,
                         f"expert '{self.modality}'")

    @property
    def modality(self) -> str:
        return self.enc.modality

    @property
    def n_sub(self) -> int:
        return self.subs["W0"].shape[0]

    def n_params(self) -> int:
        return self.enc.params.n_params() + self.subs.n_params()

    def param_groups(self) -> list[tuple[str, nc.ParamSet]]:
        return [("enc", self.enc.params), ("subs", self.subs)]

    def checksum(self) -> str:
        return self.enc.params.checksum() + self.subs.checksum()

    # -- frozen (numpy) paths used by sampling, routing, and analysis --

    def encode_rows(self, m_rows: np.ndarray, rs_rows: np.ndarray) -> np.ndarray:
        """This expert's embedding rows, ``enc.rows``."""
        return self.enc.rows(m_rows, rs_rows)

    def score_rows(self, a_rows: np.ndarray, emb_rows: np.ndarray, ks) -> np.ndarray:
        """The one-expert case of ``stacked_scores``; ks is an int or int array."""
        return stacked_scores([self], [emb_rows])(a_rows, ks)[0]


def _stack(experts: list[ModalityExpert], embs: list[np.ndarray]):
    """E experts' sub-policy stacks (E, n_sub, in, out), copied so later weight
    edits are seen only by the next call, and an (E, 1, rows..., in) score-net
    buffer of their embedding rows ``embs``."""
    subs = {name: np.array([e.subs[name].data for e in experts])
            for name in experts[0].subs.names()}
    return subs, score_input(np.array(embs)[:, None], experts[0].action_dim)


def stacked_scores(experts: list[ModalityExpert], embs: list[np.ndarray]):
    """``scores(a_k, ks)``: E experts' scores (E, rows..., action_dim) from one
    checked ``mlp_infer`` of their stacks over their embedding rows ``embs``;
    a_k's shape and ks, an int or int array, are checked at every call. They
    share one sub_spec, n_sub, n_steps and band split."""
    ex, n = experts[0], experts[0].n_sub
    subs, buf = _stack(experts, embs)

    def scores(a_k: np.ndarray, ks) -> np.ndarray:
        if a_k.shape != buf.shape[-a_k.ndim:-1] + (ex.action_dim,):
            raise ShapeError(f"action rows {a_k.shape} do not fit score rows {buf.shape}")
        buf[..., :ex.action_dim] = a_k
        buf[..., -TIMESTEP_DIM:] = timestep_features(ks, ex.n_steps)
        out = nc.mlp_infer(subs, ex.sub_spec, buf)
        if not ex.noise_band_split:
            return np.add.reduce(out, axis=1) / n
        owner = _band_owner(np.broadcast_to(ks, a_k.shape[:1]), ex.n_steps, n)
        return out[:, owner, np.arange(len(owner))]

    return scores


def mixed_score(experts: list[ModalityExpert], embs: list[np.ndarray], weights: np.ndarray):
    """A sampler's score provider ``(a_k, k)``, k an int in 1..n_steps: E
    experts' scores, as ``stacked_scores`` gives them, weighted by ``weights``
    (E, rows..., 1) and summed in expert order. Everything but a_k and k is
    bound once, so a call writes a_k and step k's features, runs the layer
    ops and mixes: the sub-policies, then the experts, a mix one expert at
    weight 1 skips as the exact identity it is. Nothing is checked per call;
    ``ddpm_sample`` checks its state once."""
    ex = experts[0]
    n, ad, spec, steps = ex.n_sub, ex.action_dim, ex.sub_spec, ex.n_steps
    subs, buf = _stack(experts, embs)
    layers, (a_in, t_in, feats) = nc.mlp_layers(subs, spec, buf), step_inputs(buf, ad, steps)
    owners = _band_owner(np.arange(1, steps + 1), steps, n).tolist() if ex.noise_band_split else None
    alone = len(experts) == 1 and bool((weights == 1.0).all())

    def score(a_k: np.ndarray, k: int) -> np.ndarray:
        a_in[...] = a_k
        t_in[...] = feats[k - 1]
        out = nc.mlp_infer(layers, spec, buf)
        out = np.add.reduce(out, axis=1) / n if owners is None else out[:, owners[k - 1]]
        return out[0] if alone else np.add.reduce(out * weights, axis=0)

    return score


def _band_owner(ks, n_steps: int, n_sub: int):
    """The sub-policy whose denoising band holds each k.

    Band 0 owns the coarse half k > n_steps/2, the last band owns the rest;
    with more than two subs the range splits evenly, highest k first.
    """
    edges = np.linspace(0, n_steps, n_sub + 1)
    return n_sub - np.searchsorted(edges, ks, side="left")


def init_expert(modality: str, modality_dim: int, robot_dim: int, action_dim: int,
                cfg, rng: np.random.Generator) -> ModalityExpert:
    """Fresh expert with random encoder/sub-policy weights from cfg shapes."""
    enc = init_encoder(modality, modality_dim, robot_dim, cfg, rng)
    sub_spec = score_net_spec(action_dim, enc.emb_dim, cfg)
    subs = nc.stack_params([nc.init_mlp(sub_spec, rng) for _ in range(cfg.expert.n_sub)])
    return ModalityExpert(
        enc=enc, action_dim=action_dim, subs=subs, sub_spec=sub_spec,
        n_steps=cfg.diffusion.steps, noise_band_split=cfg.expert.noise_band_split,
        sigma_mode=cfg.diffusion.sigma_mode,
    )


def _expert_score_graph(expert: ModalityExpert, a_k: np.ndarray, m_rows: np.ndarray,
                        rs_rows: np.ndarray, ks: np.ndarray) -> tuple[nc.Tensor, nc.Tensor]:
    """Training-time (score, embedding): graph-recorded encoder + sub-policies.

    The graph twin of encode_rows then score_rows: one stacked mlp_forward
    call, reduced as score_rows reduces it, so gradients flow into the
    encoder and every sub-policy active for each row.
    """
    emb = expert.enc.graph(m_rows, rs_rows)
    out = score_graph(expert.subs, expert.sub_spec, a_k, emb, ks, expert.n_steps)
    if not expert.noise_band_split:
        return nc.reduce_stack(out), emb
    owner = _band_owner(ks, expert.n_steps, expert.n_sub)
    masks = owner == np.arange(expert.n_sub)[:, None]
    return nc.reduce_stack(out, masks[..., None].astype(np.float64)), emb


def train_expert(dataset, modality: str, cfg, rng: np.random.Generator) -> ModalityExpert:
    """Fit one modality's expert on the dataset by the eps-MSE objective.

    The encoder and all sub-policies train jointly; only the named modality's
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
