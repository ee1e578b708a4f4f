"""Dense float64 tensors with reverse-mode autodiff, MLPs, and Adam.

The graph is recorded eagerly: every op returns a new ``Tensor`` holding its
value, its parents, and a closure that routes the incoming adjoint to the
parents. ``Tensor.backward`` topologically sorts the graph, zeroes the grads
of every reachable node, and accumulates adjoints in reverse order. Leaves
(parameters) keep their ``grad`` arrays for the optimizer to consume.

Everything is float64 and single-threaded; any NaN/Inf raises ``NumericError``
at the op that produced it instead of propagating.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

Array = np.ndarray


def _check_finite(data: Array, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite value produced by op '{op}'")


class Tensor:
    """A float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "_parents", "_bw")

    def __init__(self, data, _parents=(), _bw=None, _op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, _op)
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

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node.

        Grads of every node reachable from this one are overwritten (zeroed,
        then accumulated); parameters not on the graph are untouched, so
        callers that need exact zeros there should ``zero_grads`` their
        ParamSets first.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.zero_grad()
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None:
                node._bw(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _acc(t: Tensor, g: Array) -> None:
    t.grad += g


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
    return Tensor(data, _op="const")


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b), _op="add")
    out._bw = lambda g: (_acc(a, _unbroadcast(g, a.data.shape)),
                         _acc(b, _unbroadcast(g, b.data.shape)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, (a, b), _op="sub")
    out._bw = lambda g: (_acc(a, _unbroadcast(g, a.data.shape)),
                         _acc(b, _unbroadcast(-g, b.data.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, (a, b), _op="mul")
    out._bw = lambda g: (_acc(a, _unbroadcast(g * b.data, a.data.shape)),
                         _acc(b, _unbroadcast(g * a.data, b.data.shape)))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, (a,), _op="scale")
    out._bw = lambda g: _acc(a, g * c)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b of 2-D operands, or with a stack of S right operands:
    (B, in) @ (S, in, out) and (S, B, h) @ (S, h, out) give (S, B, out), each
    slice the 2-D product bit for bit. The backward takes the same per-slice
    products; a left operand shared by the stack gets their sum in slice
    order, as S separate products would accumulate it."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, bd.ndim) or bd.ndim not in (2, 3):
        raise ShapeError(f"matmul expects 2-D operands or a stacked right one, "
                         f"got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or ad.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd, (a, b), _op="matmul")
    out._bw = lambda g: (_acc(a, _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)),
                         _acc(b, ad.swapaxes(-1, -2) @ g))
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, (a,), _op="tanh")
    out._bw = lambda g: _acc(a, g * (1.0 - y * y))
    return out


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    out = Tensor(y, (a,), _op="relu")
    out._bw = lambda g: _acc(a, g * (a.data > 0.0))
    return out


def sumall(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,), _op="sumall")
    out._bw = lambda g: _acc(a, np.full(a.data.shape, float(g)))
    return out


def reduce_stack(a: Tensor, masks: Array | None = None) -> Tensor:
    """Reduce the leading (stack) axis of S slices in slice order: their sum
    divided by S, or with ``masks`` (S, B, 1) the sum of the mask-weighted
    slices."""
    n = a.data.shape[0]
    terms = a.data if masks is None else a.data * masks
    total = sum(terms[1:], terms[0])
    out = Tensor(total / n if masks is None else total, (a,), _op="reduce_stack")
    out._bw = lambda g: _acc(a, g / n if masks is None else g * masks)
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


_ACTIVATIONS = {"tanh": (tanh, np.tanh), "relu": (relu, lambda x: np.maximum(x, 0.0))}


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
        if self.activation not in _ACTIVATIONS:
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

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

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


def stack_params(nets: Sequence[ParamSet]) -> ParamSet:
    """Nets of one spec as one stacked set for ``mlp_forward`` and
    ``mlp_infer``: weights (S, in, out) and biases (S, 1, out), in net order."""
    ps = ParamSet()
    for name in nets[0].names():
        data = np.stack([net[name].data for net in nets])
        ps.add(name, data[:, None] if name.startswith("b") else data)
    return ps


def unstack_params(stack: ParamSet, s: int) -> ParamSet:
    """A copy of net s of a stacked set, shaped as ``init_mlp`` makes it."""
    ps = ParamSet()
    for name, t in stack.items():
        ps.add(name, (t.data[s, 0] if name.startswith("b") else t.data[s]).copy())
    return ps


def mlp_forward(params: ParamSet, spec: MlpSpec, x: Tensor) -> Tensor:
    """Recorded forward pass; input shape (batch, input_dim). ``params`` may
    hold S nets stacked as in ``mlp_infer``: the output is then (S, batch,
    output_dim), slice s bit-identical to net s alone, and so are the
    gradients each net receives."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ShapeError(
            f"MLP input shape {x.data.shape} does not match input_dim {spec.input_dim}"
        )
    act, _ = _ACTIVATIONS[spec.activation]
    n_layers = len(spec.layer_dims())
    h = x
    for i in range(n_layers):
        h = add(matmul(h, params[f"W{i}"]), params[f"b{i}"])
        if i < n_layers - 1:
            h = act(h)
    return h


def row_layout(x: Array) -> Array:
    """Rows on axis -2 as sampling takes them: one row as it is, B > 1 rows
    row-stacked as (..., B, 1, d), whose matmul is B one-row (1, d) @ W
    products bit for bit (a (B, d) gemm sums in other blocks)."""
    return x if x.shape[-2] == 1 else x[..., None, :]


def mlp_infer(params: ParamSet, spec: MlpSpec, x: Array) -> Array:
    """Plain numpy forward pass for frozen parameters (no graph).

    ``x`` is (B, in) rows for one gemm, or row-stacked (B, 1, in) rows (see
    ``row_layout``). ``params`` may hold S nets of one spec stacked along a
    leading axis, weights ``(S, in, out)`` and biases ``(S, 1, out)``: the
    result then gains a leading S axis, slice s bit-identical to a call with
    net s alone.
    """
    if x.shape[-1] != spec.input_dim or not (
            x.ndim == 2 or x.ndim == 3 and x.shape[1] == 1):
        raise ShapeError(
            f"MLP input shape {x.shape} does not match input_dim {spec.input_dim}"
        )
    _, act = _ACTIVATIONS[spec.activation]
    last = len(spec.hidden)
    row_stacked = x.ndim == 3
    h = x
    for i in range(last + 1):
        W, b = params[f"W{i}"].data, params[f"b{i}"].data
        if row_stacked and W.ndim == 3:
            W, b = W[:, None], b[:, None]
        h = h @ W + b
        if i < last:
            h = act(h)
    _check_finite(h, "mlp_infer")
    return h


ParamGroups = Sequence[tuple[str, ParamSet]]


def backward(loss: Tensor, groups: ParamGroups) -> None:
    """Zero the groups' grads, then backprop the loss into them."""
    for _, ps in groups:
        ps.zero_grads()
    loss.backward()


@dataclass
class OptimState:
    """Adam moments keyed by 'group/param', shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_init(groups: ParamGroups, lr: float = 1e-3) -> OptimState:
    state = OptimState(lr=lr)
    for label, ps in groups:
        for name, t in ps.items():
            qual = f"{label}/{name}"
            state.m[qual] = np.zeros_like(t.data)
            state.v[qual] = np.zeros_like(t.data)
    return state


def adam_step(groups: ParamGroups, state: OptimState) -> None:
    """One bias-corrected Adam update, in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for label, ps in groups:
        for name, tensor in ps.items():
            qual = f"{label}/{name}"
            g = tensor.grad
            if g is None:
                raise ContractError(f"gradient not populated for '{qual}'")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"NaN/Inf gradient for parameter '{qual}'")
            m = state.m[qual]
            v = state.v[qual]
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            tensor.data -= state.lr * mhat / (np.sqrt(vhat) + state.eps)


def finite_diff_grad(
    loss_fn: Callable[[], float],
    groups: ParamGroups,
    h: float = 1e-6,
) -> dict[str, Array]:
    """Central-difference gradient oracle: (f(p+h) - f(p-h)) / 2h per coordinate."""
    if h <= 0:
        raise ContractError("finite difference step h must be > 0")
    grads: dict[str, Array] = {}
    for label, ps in groups:
        for name, tensor in ps.items():
            flat = tensor.data.ravel()
            g = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(loss_fn())
                flat[i] = orig - h
                f_minus = float(loss_fn())
                flat[i] = orig
                g[i] = (f_plus - f_minus) / (2.0 * h)
            grads[f"{label}/{name}"] = g.reshape(tensor.data.shape)
    return grads
