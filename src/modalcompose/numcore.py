"""Dense float64 tensors with reverse-mode autodiff, MLPs, and Adam.

The graph is recorded eagerly: every op returns a new ``Tensor`` holding its
value, its parents, and a closure that routes the incoming adjoint to the
parents. Data rows enter ``concat_cols``, ``mlp_forward``, ``weighted_sum``
and ``mse_rows`` as plain arrays and take no adjoint. An MLP call is one
node, whose backward takes the adjoint steps of separate matmul, bias-add and
activation ops, layer by layer, in their order. Every op hands each input an
adjoint array that no other node reads; ``_acc`` keeps the first as the
input's grad and adds the rest to it. ``backward`` zeroes the groups'
parameter grads first, so those always add. Adam keeps all parameters' data
and grads in flat buffers.

Everything is float64 and single-threaded. A NaN/Inf raises ``NumericError``
before ``backward`` runs: leaves and the outputs of ops that can make one
(each MLP layer before its activation, ``weighted_sum``, the loss) are
checked; ``concat_cols`` and ``softmax_rows`` cannot, and a non-finite data
row fails the first MLP layer or loss it reaches. ``mlp_infer`` over layers
bound by ``mlp_layers`` is checked by its caller.

Inference keeps one rule on the one-row path a sampler runs 50 times per
action: elementwise operands have equal shapes. On a 64-wide row numpy takes
about twice as long over a broadcast add as over an equal-shape one, for the
same bits, so ``mlp_layers`` binds biases as (1, out) views of their (out,)
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

Array = np.ndarray


def check_finite(data: Array, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite value produced by op '{op}'")


class Tensor:
    """A float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "_parents", "_bw")

    def __init__(self, data, _parents=(), _op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        check_finite(arr, _op)
        self.data = arr
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._bw: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _node(data: Array, parents: tuple) -> Tensor:
    """An op's float64 output as a node, unchecked."""
    t = Tensor.__new__(Tensor)
    t.data, t.grad, t._parents, t._bw = data, None, parents, None
    return t


def _acc(t: Tensor, g: Array) -> None:
    """Take adjoint g, of t's shape, which no other node reads: the first
    becomes t's grad, later ones are added to it."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def mse_rows(a: Tensor, target: Array) -> Tensor:
    """sum((a - target)^2) * c, c = 1 / len(a), target data rows, as one node
    with the bits of the op chain ``scale(sumall(mul(d, d)), c)``,
    d = ``sub(a, target)``, which ``tests/oracles.py`` keeps as its
    reference: the adjoint of a is t + t, t = (g c) d, as mul(d, d) hands
    d t twice."""
    c, d = 1.0 / len(a.data), a.data - target
    out = Tensor((d * d).sum() * c, (a,), _op="mse_rows")

    def bw(g: Array) -> None:
        t = d * (float(g) * c)
        _acc(a, np.add(t, t, out=t))

    out._bw = bw
    return out


def concat_cols(parts: Sequence[Tensor | Array]) -> Tensor | Array:
    """Tensors or data rows side by side; data rows if no part is on the
    graph. A part gets its columns of g handed over: no node reads this
    node's own g once its backward has run."""
    datas = [p.data if isinstance(p, Tensor) else p for p in parts]
    ends = list(accumulate(d.shape[1] for d in datas))
    spans = [(p, e - d.shape[1], e) for p, d, e in zip(parts, datas, ends)
             if isinstance(p, Tensor)]
    data = np.concatenate(datas, axis=1)
    if not spans:
        return data
    out = _node(data, tuple(p for p, _, _ in spans))

    def bw(g: Array) -> None:
        for p, lo, hi in spans:
            _acc(p, g[:, lo:hi])

    out._bw = bw
    return out


def softmax_rows(a: Tensor) -> Tensor:
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = _node(y, (a,))

    def bw(g: Array) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _acc(a, y * (g - dot))

    out._bw = bw
    return out


def weighted_sum(w: Tensor, terms: Sequence[Tensor | Array]) -> Tensor:
    """sum_i w[:, i] t_i over (B, d) terms, Tensors or data rows, as one node
    with the bits, forward and back, of the op chain that sums the terms in
    order, ``add(mul(col(w, 0), t_0), mul(col(w, 1), t_1))``, ..., which
    ``tests/oracles.py`` keeps as its reference."""
    datas = [t.data if isinstance(t, Tensor) else t for t in terms]
    ws = [w.data[:, i:i + 1] for i in range(len(terms))]
    total = ws[0] * datas[0]
    for wi, d in zip(ws[1:], datas[1:]):
        total += wi * d
    check_finite(total, "weighted_sum")
    graph = [(i, t) for i, t in enumerate(terms) if isinstance(t, Tensor)]
    out = _node(total, (w, *(t for _, t in graph)))

    def bw(g: Array) -> None:
        gw = np.zeros_like(w.data)
        for i, d in enumerate(datas):
            gw[:, i] = (g * d).sum(axis=1)
        _acc(w, gw)
        for i, t in graph:
            _acc(t, g * ws[i])

    out._bw = bw
    return out


def _tanh_adjoint(y: Array, g: Array) -> Array:
    d = y * y                           # g * (1 - y*y) in one fresh array
    return np.multiply(np.subtract(1.0, d, out=d), g, out=d)


# activation, and adjoint g times its factor from the output y (relu: y > 0
# where z > 0)
ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_adjoint),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), lambda y, g: g * (y > 0.0)),
}


@dataclass(frozen=True)
class MlpSpec:
    """Shape of a fully-connected net; activation on hidden layers only."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden, self.output_dim)
        if any(d < 1 for d in dims):
            raise ShapeError(f"all MLP dims must be >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation '{self.activation}'")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


class ParamSet:
    """Named parameter tensors plus their gradient slots."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name '{name}'")
        t = Tensor(data)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._tensors.items()

    def n_params(self) -> int:
        return sum(t.size for t in self._tensors.values())


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    ps = ParamSet()
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        ps.add(f"W{i}", rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        ps.add(f"b{i}", np.zeros(fan_out))
    return ps


@lru_cache(maxsize=64)
def _mlp_plan(spec: MlpSpec) -> tuple:
    """What ``mlp_forward`` reads of a spec: per layer the weight and bias
    names, the weight's dims and check label, then activation and adjoint."""
    layers = tuple((f"W{i}", f"b{i}", dims, f"mlp layer {i}")
                   for i, dims in enumerate(spec.layer_dims()))
    return (layers, *ACTIVATIONS[spec.activation])


def mlp_forward(params: ParamSet, spec: MlpSpec, x: Tensor | Array) -> Tensor:
    """Recorded forward pass of one net as one graph node; input shape
    (batch, input_dim), a Tensor or data rows, weights as ``init_mlp`` makes
    them.

    Each layer computes ``z = h @ W; z += b`` (the bits of ``h @ W + b``) and
    checks z for NaN/Inf, then runs a hidden activation in place. The
    backward takes the separate ops' adjoint steps in their order, last layer
    first: activation factor, bias sum, ``h^T @ g``, then ``g @ W^T`` (only
    into an input on the graph)."""
    xd = x.data if isinstance(x, Tensor) else x
    if xd.ndim != 2 or xd.shape[1] != spec.input_dim:
        raise ShapeError(f"MLP input shape {xd.shape} does not match "
                         f"input_dim {spec.input_dim}")
    layers, act, dact = _mlp_plan(spec)
    tensors = params._tensors
    Ws = [tensors[w] for w, _, _, _ in layers]
    bs = [tensors[b] for _, b, _, _ in layers]
    last = len(layers) - 1
    hs = [xd]                 # each layer's input
    for i, ((_, _, dims, label), W, b) in enumerate(zip(layers, Ws, bs)):
        if W.data.shape != dims:
            raise ShapeError(f"{label}: W {W.data.shape} does not fit {dims}")
        z = hs[-1] @ W.data
        z += b.data
        check_finite(z, label)
        if i < last:
            hs.append(act(z, out=z))
    on_graph = isinstance(x, Tensor)
    out = _node(z, (x, *Ws, *bs) if on_graph else (*Ws, *bs))

    def bw(g: Array) -> None:
        for i in range(last, -1, -1):
            if i < last:
                g = dact(hs[i + 1], g)
            _acc(bs[i], g.sum(axis=0))
            _acc(Ws[i], hs[i].T @ g)
            if i or on_graph:
                g = g @ Ws[i].data.T
        if on_graph:
            _acc(x, g)

    out._bw = bw
    return out


def row_layout(x: Array) -> Array:
    """Rows on axis -2 as sampling takes them: one row as it is, B > 1 rows
    row-stacked as (..., B, 1, d), whose matmul is B one-row (1, d) @ W
    products bit for bit (a (B, d) gemm sums in other blocks)."""
    return x if x.shape[-2] == 1 else x[..., None, :]


def mlp_layers(params: ParamSet | dict[str, Array], spec: MlpSpec,
               x: Array) -> tuple[tuple[Array, Array], ...]:
    """The (W, b) pairs ``mlp_infer`` runs over rows in x's layout, with x's
    shape checked against them once: the layers of a ParamSet or a dict of
    its arrays, with an axis for the rows added after the stack axes when
    the rows are row-stacked. A net without stack axes gets its biases as
    (1, out) views, the shape of one row's activations (see the module
    docstring)."""
    get = (lambda n: params[n].data) if isinstance(params, ParamSet) else params.get
    n_stack = get("W0").ndim - 2
    row_axes = x.ndim - n_stack - 1
    if x.shape[-1] != spec.input_dim or row_axes not in (1, 2) or (
            row_axes == 2 and x.shape[-2] != 1):
        raise ShapeError(f"MLP input shape {x.shape} does not match input_dim "
                         f"{spec.input_dim} and {n_stack} stack axes")
    layers = [(get(f"W{i}"), get(f"b{i}")) for i in range(len(spec.hidden) + 1)]
    if not n_stack:
        layers = [(W, b[None]) for W, b in layers]
    elif row_axes == 2:
        layers = [(W[..., None, :, :], b[..., None, :, :]) for W, b in layers]
    return tuple(layers)


def mlp_infer(params: ParamSet | dict[str, Array] | tuple, spec: MlpSpec,
              x: Array) -> Array:
    """Forward pass of frozen parameters, a ParamSet or a dict of its arrays.

    ``x`` is (B, in) rows for one gemm, or row-stacked (B, 1, in) rows (see
    ``row_layout``), after one axis per leading stack axis of the weights,
    ``(*S, in, out)`` with biases ``(*S, 1, out)``, broadcasting against S.
    Each slice of the result is bit-identical to its net alone on its rows.
    Layers run in place, ``h = h @ W; h += b; act(h, out=h)``, which gives
    the bits of ``act(h @ W + b)`` and never writes ``x``. The input shape
    is checked and the output refused if not finite; ``params`` given as the
    layers ``mlp_layers`` bound for x's layout run with no check, as a
    sampler's score net does at every step (its state is checked once)."""
    bound = type(params) is tuple
    act = ACTIVATIONS[spec.activation][0]
    h = x
    for i, (W, b) in enumerate(params if bound else mlp_layers(params, spec, x)):
        if i:
            act(h, out=h)
        h = h @ W
        h += b
    if not bound:
        check_finite(h, "mlp_infer")
    return h


ParamGroups = Sequence[tuple[str, ParamSet]]


def backward(loss: Tensor, groups: ParamGroups) -> None:
    """Backprop a scalar loss into the groups' grads: zero them (parameters
    off the graph keep exact zeros), clear every other node reachable from
    the loss (see ``_acc``), then accumulate in reverse topological order."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    seen: set[int] = set()
    for _, ps in groups:
        for t in ps._tensors.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                t.grad.fill(0.0)
            seen.add(id(t))
    topo: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            node.grad = None
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones(loss.data.shape)
    for node in reversed(topo):
        if node._bw is not None:
            node._bw(node.grad)


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator offset


@dataclass
class OptimState:
    """Adam over flat buffers: from the first step on, each parameter's data
    and grad are its views into ``data`` and ``grad``, in group order."""

    tensors: list[Tensor]
    views: list[tuple[Array, Array]]
    data: Array
    grad: Array
    m: Array
    v: Array
    upd: Array
    den: Array
    lr: float = 1e-3
    step_count: int = 0


def adam_init(groups: ParamGroups, lr: float = 1e-3) -> OptimState:
    tensors = [t for _, ps in groups for _, t in ps.items()]
    offs = np.cumsum([0] + [t.size for t in tensors]).tolist()
    data, grad, *rest = (np.zeros(offs[-1]) for _ in range(6))
    views = [(data[o:o + t.size].reshape(t.shape), grad[o:o + t.size].reshape(t.shape))
             for t, o in zip(tensors, offs)]
    return OptimState(tensors, views, data, grad, *rest, lr=lr)


def adam_step(groups: ParamGroups, state: OptimState) -> None:
    """One bias-corrected Adam update of every parameter: the per-tensor
    formula evaluated in place over the flat buffers. Data or a grad bound
    to another array since the last step (by another optimizer, or assigned)
    is copied into its view first, and the tensor rebound to the view."""
    if [t for _, ps in groups for _, t in ps.items()] != state.tensors:
        raise ContractError("adam_step takes the parameter groups of its adam_init")
    qual = lambda i: [f"{label}/{n}" for label, ps in groups for n in ps.names()][i]
    for i, (t, (dv, gv)) in enumerate(zip(state.tensors, state.views)):
        if t.data is not dv:
            dv[...], t.data = t.data, dv
        if t.grad is not gv:
            if t.grad is None:
                raise ContractError(f"gradient not populated for '{qual(i)}'")
            gv[...], t.grad = t.grad, gv
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    g, upd, den, m, v = state.grad, state.upd, state.den, state.m, state.v
    if not np.isfinite(g).all():
        i = next(i for i, (_, gv) in enumerate(state.views) if not np.isfinite(gv).all())
        raise NumericError(f"NaN/Inf gradient for parameter '{qual(i)}'")
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=upd)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=upd)
    v += np.multiply(upd, g, out=upd)
    np.sqrt(np.divide(v, bc2, out=den), out=den)
    den += EPS
    np.divide(m, bc1, out=upd)
    upd *= state.lr
    upd /= den
    state.data -= upd
