"""The consensus network: maps concatenated modality embeddings to softmax
weights over modalities, plus the hard / top-2 / soft weight post-processing.

Weights depend only on the state embeddings, so they are computed once per
control step and held fixed across that step's denoising loop. Training uses
soft weights throughout; hard/top-2 are evaluation-time transforms. A router
trained apart from its experts reads their scores from ``score_rows``, which
binds each expert's score net through ``experts.bind_score``. The
feature-level MoE baseline's gate is a Router too, over its own encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .diffusion import fit_denoiser, make_schedule
from .errors import ConfigError, ContractError, ShapeError
from .experts import ModalityExpert, _expert_score_graph

STRATEGIES = ("soft", "hard", "top2")


@dataclass
class Router:
    params: nc.ParamSet
    spec: nc.MlpSpec
    modality_order: tuple[str, ...]
    emb_dims: tuple[int, ...]
    loss_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if (sum(self.emb_dims) != self.spec.input_dim or not
                len(self.modality_order) == len(self.emb_dims) == self.spec.output_dim):
            raise ShapeError(f"router over {self.modality_order} with embedding dims "
                             f"{self.emb_dims} does not fit its spec "
                             f"{self.spec.input_dim} -> {self.spec.output_dim}")

    def n_params(self) -> int:
        return self.params.n_params()

    def weights_rows(self, emb_cat: np.ndarray) -> np.ndarray:
        """Batched softmax weights from pre-concatenated embedding rows, in
        their layout (see ``nc.mlp_infer``)."""
        return softmax(nc.mlp_infer(self.params, self.spec, emb_cat))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of logit rows."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def check_weights(w: np.ndarray, n: int | None = None, *, rows: bool = False) -> np.ndarray:
    """Validate a consensus-weight vector, or with ``rows`` each row of a
    (B, N) array: finite, nonnegative, sums to 1 (1e-12)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 + rows or (n is not None and w.shape[-1] != n):
        raise ContractError(f"expected {n} weights, got shape {w.shape}")
    if not (np.isfinite(w) & (w >= 0.0)).all():
        raise ContractError(f"consensus weights must be finite and nonnegative, got {w}")
    if (np.abs(w.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ContractError(f"consensus weights sum to {w.sum(axis=-1)!r}, not 1")
    return w


def init_router(modality_order: tuple[str, ...], emb_dims: tuple[int, ...],
                hidden: tuple[int, ...], rng: np.random.Generator) -> Router:
    spec = nc.MlpSpec(int(sum(emb_dims)), tuple(hidden), len(modality_order))
    return Router(params=nc.init_mlp(spec, rng), spec=spec,
                  modality_order=tuple(modality_order), emb_dims=tuple(emb_dims))


def apply_strategy(w: np.ndarray, strategy: str) -> np.ndarray:
    """Post-process consensus weights, one vector or rows (B, N) at once,
    each row as if alone; soft is the exact identity.

    hard: one-hot at the argmax (ties broken toward the lowest index).
    top2: keep the two largest (ties toward lower index), renormalize.
    Vectors already in the target form pass through unchanged, which makes
    every strategy idempotent bit-for-bit and makes top2 on N <= 2 identical
    to soft.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown routing strategy '{strategy}'")
    shape = np.shape(w)
    rows = check_weights(np.atleast_2d(w), rows=True)
    if strategy == "soft" or strategy == "top2" and rows.shape[1] <= 2:
        return rows.reshape(shape)
    if strategy == "hard":
        hot = np.arange(rows.shape[1]) == rows.argmax(axis=1)[:, None]
        return hot.astype(np.float64).reshape(shape)
    out = np.zeros_like(rows)
    top = np.argsort(-rows, axis=1, kind="stable")[:, :2]
    kept = np.take_along_axis(rows, top, axis=1)
    np.put_along_axis(out, top, kept / kept.sum(axis=1, keepdims=True), axis=1)
    few = np.count_nonzero(rows, axis=1)[:, None] <= 2
    return np.where(few, rows, out).reshape(shape)


def _router_score_graph(router: Router, experts: list[ModalityExpert],
                        a_k: np.ndarray, cond: np.ndarray, ks: np.ndarray,
                        slices: list[slice], joint: bool) -> nc.Tensor:
    """Weighted sum of expert scores with the weights on the graph.

    Expert scores enter as constants unless ``joint`` is set, in which case
    they come from the experts' own training graph, so their encoders and
    score nets receive gradients.
    """
    rs = cond[:, slices[-1]]
    embs = []
    scores = []
    for ex, sl in zip(experts, slices[:-1]):
        m_rows = cond[:, sl]
        if joint:
            score, emb = _expert_score_graph(ex, a_k, m_rows, rs, ks)
        else:
            emb_np = ex.encode_rows(m_rows, rs)
            score, emb = nc.const(ex.score_rows(a_k, emb_np, ks)), nc.const(emb_np)
        scores.append(score)
        embs.append(emb)
    return gated_sum(router, embs, scores)


def gated_sum(gate: Router, embs: list[nc.Tensor], terms: list[nc.Tensor]) -> nc.Tensor:
    """The graph twin of weighting by ``weights_rows``: softmax(MLP(the
    concatenated embeddings)) times each term, summed in order."""
    w = nc.softmax_rows(nc.mlp_forward(gate.params, gate.spec, nc.concat_cols(embs)))
    total = None
    for i, t in enumerate(terms):
        term = nc.mul(nc.col(w, i), t)
        total = term if total is None else nc.add(total, term)
    return total


def train_router(experts: list[ModalityExpert], dataset, cfg,
                 rng: np.random.Generator) -> Router:
    """Fit consensus weights on frozen experts by the same eps-MSE objective.

    Gradients flow only into the router unless cfg.router.joint is set
    (end-to-end fine-tuning mode, which deliberately updates the experts).
    """
    if not experts:
        raise ContractError("train_router needs at least one expert")
    names = [ex.modality for ex in experts]
    if len(set(names)) != len(names):
        raise ContractError(f"duplicate expert modalities: {names}")
    for ex in experts:
        if ex.modality not in dataset.modality_dims:
            raise ContractError(f"dataset lacks modality '{ex.modality}'")
    a_rows, cond_rows, slices = dataset.training_cond_rows(names)
    router = init_router(tuple(names), tuple(ex.enc.emb_dim for ex in experts),
                         tuple(cfg.router.hidden), rng)
    sched = make_schedule(cfg.diffusion.steps, cfg.diffusion.beta_start,
                          cfg.diffusion.beta_end)
    groups = [("router", router.params)]
    if cfg.router.joint:
        for ex in experts:
            groups += [(f"{ex.modality}.{label}", ps) for label, ps in ex.param_groups()]
    score = lambda ak, c, ks: _router_score_graph(
        router, experts, ak, c, ks, slices, cfg.router.joint)
    router.loss_history = fit_denoiser(
        score, groups, a_rows, cond_rows, sched,
        steps=cfg.train.router_steps, batch=cfg.train.batch, lr=cfg.train.lr,
        rng=rng)
    return router
