"""Dense float64 tensors with reverse-mode autodiff, MLPs, and Adam.

The graph is recorded eagerly: every op returns a new ``Tensor`` holding its
value, its parents, and a closure that routes the incoming adjoint to the
parents. An MLP call is one node, whose backward takes the adjoint steps of
separate matmul, bias-add and activation ops, layer by layer, in their order.
``backward`` zeroes the groups' parameter grads; every other reachable node
but ``const`` leaves takes its first adjoint as a fresh array, then adds the
rest. Adam keeps all parameters' data and grads in flat buffers.

Everything is float64 and single-threaded; any NaN/Inf raises ``NumericError``
at the op that produced it instead of propagating, but for ``mlp_infer`` over
layers bound by ``mlp_layers``, whose caller checks. An MLP node checks once per
layer, on the pre-activation, not after each matmul, add and activation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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

    def __init__(self, data, _parents=(), _bw=None, _op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        check_finite(arr, _op)
        self.data = arr
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._bw: Callable[[Array], None] | None = _bw

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class _Const(Tensor):
    """A leaf whose grad ``backward`` leaves ``None``: it takes no adjoint."""

    __slots__ = ()


def _acc(t: Tensor, g: Array) -> None:
    """Add adjoint g, of t's shape; the first is a fresh array, the bits of 0 + g."""
    if t.grad is not None:
        t.grad += g
    elif type(t) is not _Const:
        t.grad = g + 0.0


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum an adjoint back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def const(data) -> Tensor:
    """A leaf tensor that never receives gradients (inputs, targets)."""
    return _Const(data, _op="const")


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b), _op="add")
    out._bw = lambda g: (_acc(a, _unbroadcast(g, a.data.shape)),
                         _acc(b, _unbroadcast(g, b.data.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, (a, b), _op="mul")
    out._bw = lambda g: (_acc(a, _unbroadcast(g * b.data, a.data.shape)),
                         _acc(b, _unbroadcast(g * a.data, b.data.shape)))
    return out


def mse_rows(a: Tensor, target: Array) -> Tensor:
    """sum((a - target)^2) * c, c = 1 / len(a), as one node, with the bits of
    the op chain ``scale(sumall(mul(d, d)), c)``, d = ``sub(a, const(target))``
    (the tests keep sub, scale and sumall as its reference): the adjoint of a
    is t + t, t = (g c) d, as mul(d, d) hands d t twice."""
    c, d = 1.0 / len(a.data), a.data - target
    out = Tensor((d * d).sum() * c, (a,), _op="mse_rows")

    def bw(g: Array) -> None:
        t = d * (float(g) * c)
        _acc(a, np.add(t, t, out=t))

    out._bw = bw
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    datas = [p.data for p in parts]
    out = Tensor(np.concatenate(datas, axis=1), tuple(parts), _op="concat")
    widths = [d.shape[1] for d in datas]

    def bw(g: Array) -> None:
        off = 0
        for p, w in zip(parts, widths):
            _acc(p, g[:, off:off + w])
            off += w

    out._bw = bw
    return out


def col(a: Tensor, j: int) -> Tensor:
    out = Tensor(a.data[:, j:j + 1], (a,), _op="col")

    def bw(g: Array) -> None:
        full = np.zeros_like(a.data)
        full[:, j:j + 1] = g
        _acc(a, full)

    out._bw = bw
    return out


def softmax_rows(a: Tensor) -> Tensor:
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, (a,), _op="softmax")

    def bw(g: Array) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _acc(a, y * (g - dot))

    out._bw = bw
    return out


def _tanh_adjoint(z: Array, y: Array, g: Array) -> Array:
    d = y * y                           # g * (1 - y*y) in one fresh array
    return np.multiply(np.subtract(1.0, d, out=d), g, out=d)


# activation, and adjoint g times its factor from pre-activation z and output y
ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_adjoint),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), lambda z, y, g: g * (z > 0.0)),
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

    def copy(self) -> "ParamSet":
        ps = ParamSet()
        for name, t in self._tensors.items():
            ps.add(name, t.data.copy())
        return ps

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self._tensors):
            h.update(name.encode("utf-8"))
            h.update(self._tensors[name].data.tobytes())
        return h.hexdigest()


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    ps = ParamSet()
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        ps.add(f"W{i}", rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        ps.add(f"b{i}", np.zeros(fan_out))
    return ps


def mlp_forward(params: ParamSet, spec: MlpSpec, x: Tensor) -> Tensor:
    """Recorded forward pass of one net as one graph node; input shape
    (batch, input_dim), weights as ``init_mlp`` makes them.

    Each layer checks its pre-activation ``h @ W + b`` for NaN/Inf. The
    backward takes the separate ops' adjoint steps in their order, last layer
    first: activation factor, bias sum, ``h^T @ g``, then ``g @ W^T`` (not
    into a ``const`` input)."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ShapeError(f"MLP input shape {x.data.shape} does not match "
                         f"input_dim {spec.input_dim}")
    act, dact = ACTIVATIONS[spec.activation]
    last = len(spec.hidden)
    Ws = [params[f"W{i}"] for i in range(last + 1)]
    bs = [params[f"b{i}"] for i in range(last + 1)]
    hs, zs = [x.data], []     # each layer's input and pre-activation
    for i, (W, dims) in enumerate(zip(Ws, spec.layer_dims())):
        if W.data.shape != dims:
            raise ShapeError(f"MLP layer {i}: W {W.data.shape} does not fit {dims}")
        zs.append(hs[-1] @ W.data + bs[i].data)
        if i < last:
            check_finite(zs[-1], f"mlp layer {i}")
            hs.append(act(zs[-1]))
    out = Tensor(zs[-1], (x, *Ws, *bs), _op=f"mlp layer {last}")

    def bw(g: Array) -> None:
        for i in range(last, -1, -1):
            if i < last:
                g = dact(zs[i], hs[i + 1], g)
            _acc(bs[i], _unbroadcast(g, bs[i].data.shape))
            _acc(Ws[i], hs[i].T @ g)
            if i or type(x) is not _Const:
                g = g @ Ws[i].data.T
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
    the rows are row-stacked."""
    get = (lambda n: params[n].data) if isinstance(params, ParamSet) else params.get
    n_stack = get("W0").ndim - 2
    row_axes = x.ndim - n_stack - 1
    if x.shape[-1] != spec.input_dim or row_axes not in (1, 2) or (
            row_axes == 2 and x.shape[-2] != 1):
        raise ShapeError(f"MLP input shape {x.shape} does not match input_dim "
                         f"{spec.input_dim} and {n_stack} stack axes")
    layers = [(get(f"W{i}"), get(f"b{i}")) for i in range(len(spec.hidden) + 1)]
    if row_axes == 2 and n_stack:
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
        for _, t in ps.items():
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
            stack.extend((p, False) for p in node._parents
                         if id(p) not in seen and type(p) is not _Const)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._bw is not None:
            node._bw(node.grad)


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    g, upd, den, m, v = state.grad, state.upd, state.den, state.m, state.v
    if not np.isfinite(g).all():
        i = next(i for i, (_, gv) in enumerate(state.views) if not np.isfinite(gv).all())
        raise NumericError(f"NaN/Inf gradient for parameter '{qual(i)}'")
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=upd)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=upd)
    v += np.multiply(upd, g, out=upd)
    np.sqrt(np.divide(v, bc2, out=den), out=den)
    den += state.eps
    np.divide(m, bc1, out=upd)
    upd *= state.lr
    upd /= den
    state.data -= upd
