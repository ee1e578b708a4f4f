"""Autodiff, MLP, and optimizer unit tests against independent oracles."""

import hashlib

import numpy as np
import pytest

from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose.errors import ContractError, NumericError, ShapeError
from modalcompose.router import train_router
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset
from tests.oracles import (add, checksum, col, copy_params, finite_diff_grad, mul, scale,
                           sub, sumall)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# individual ops vs numpy oracles


def test_add_mul_broadcast_backward(rng):
    x = nc.Tensor(rng.normal(size=(4, 3)))
    b = nc.Tensor(rng.normal(size=(3,)))
    y = sumall(mul(add(x, b), add(x, b)))
    nc.backward(y, [("p", _as_paramset(x=x, b=b))])
    # d/dx sum((x+b)^2) = 2(x+b); d/db sums over the broadcast rows
    expect_x = 2.0 * (x.data + b.data)
    assert np.allclose(x.grad, expect_x, atol=1e-12)
    assert np.allclose(b.grad, expect_x.sum(axis=0), atol=1e-12)


def test_matmul_backward_matches_manual(rng):
    a = nc.Tensor(rng.normal(size=(5, 4)))
    w = nc.Tensor(rng.normal(size=(4, 3)))
    ps = _as_paramset(W0=w, b0=nc.Tensor(np.zeros(3)))
    y = sumall(nc.mlp_forward(ps, nc.MlpSpec(4, (), 3), a))
    nc.backward(y, [("p", ps), ("in", _as_paramset(a=a))])
    ones = np.ones((5, 3))
    assert np.allclose(a.grad, ones @ w.data.T, atol=1e-12)
    assert np.allclose(w.grad, a.data.T @ ones, atol=1e-12)


def _unit_net(act):
    """A 1 -> 1 -> 1 net with unit weights and zero biases: act(x) per row."""
    ps = _as_paramset(W0=nc.Tensor(np.ones((1, 1))), b0=nc.Tensor(np.zeros(1)),
                      W1=nc.Tensor(np.ones((1, 1))), b1=nc.Tensor(np.zeros(1)))
    return ps, nc.MlpSpec(1, (1,), 1, activation=act)


def test_tanh_relu_values_and_grads(rng):
    ps, spec = _unit_net("tanh")
    x = nc.Tensor(rng.normal(size=(6, 1)))
    t = nc.mlp_forward(ps, spec, x)
    assert np.allclose(t.data, np.tanh(x.data))
    nc.backward(sumall(t), [("net", ps), ("p", _as_paramset(x=x))])
    assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-12)

    ps, spec = _unit_net("relu")
    x2 = nc.Tensor(np.array([[-2.0], [-0.5], [0.5], [3.0]]))
    r = nc.mlp_forward(ps, spec, x2)
    assert np.allclose(r.data[:, 0], [0.0, 0.0, 0.5, 3.0])
    nc.backward(sumall(r), [("net", ps), ("p", _as_paramset(x=x2))])
    assert np.allclose(x2.grad[:, 0], [0.0, 0.0, 1.0, 1.0])


def test_softmax_rows_is_rowwise_distribution(rng):
    x = nc.Tensor(rng.normal(size=(7, 4)) * 3.0)
    s = nc.softmax_rows(x)
    assert np.all(s.data > 0)
    assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    assert np.allclose(s.data, e / e.sum(axis=1, keepdims=True), atol=1e-15)


def test_softmax_backward_vs_finite_difference(rng):
    x0 = rng.normal(size=(3, 4))
    coeff = rng.normal(size=(3, 4))
    ps = nc.ParamSet()
    xt = ps.add("x", x0)

    def loss_tensor():
        return sumall(mul(nc.softmax_rows(xt), nc.Tensor(coeff)))

    loss = loss_tensor()
    nc.backward(loss, [("p", ps)])
    analytic = xt.grad.copy()

    num = finite_diff_grad(lambda: loss_tensor().data.item(), [("p", ps)])
    assert rel_err(analytic, num["p/x"]) < 1e-7


def test_concat_cols_and_col_roundtrip_grads(rng):
    a = nc.Tensor(rng.normal(size=(4, 2)))
    b = nc.Tensor(rng.normal(size=(4, 3)))
    cat = nc.concat_cols([a, b])
    assert cat.data.shape == (4, 5)
    picked = col(cat, 3)
    nc.backward(sumall(mul(picked, picked)), [("p", _as_paramset(a=a, b=b))])
    assert np.allclose(a.grad, 0.0)
    expect = np.zeros((4, 3))
    expect[:, 1] = 2.0 * b.data[:, 1]
    assert np.allclose(b.grad, expect, atol=1e-12)


def test_grad_accumulates_when_tensor_reused(rng):
    x = nc.Tensor(rng.normal(size=(3,)))
    y = sumall(add(mul(x, x), mul(x, x)))
    nc.backward(y, [("p", _as_paramset(x=x))])
    assert np.allclose(x.grad, 4.0 * x.data, atol=1e-12)


ADJOINT_NETS = {"feed": nc.MlpSpec(3, (5,), 3), "twice": nc.MlpSpec(9, (4,), 3, "relu"),
                "cat": nc.MlpSpec(6, (5,), 6)}


def _shared_adjoint_graphs(x, y, c, nets):
    """Interior nodes that take several adjoints: one g handed to both parents
    of ``add``, a node used twice by ``mul``, and ``concat_cols`` parts that
    get views of one g; each also reaches the loss another way. Then MLP
    nodes (``nets``, named as in ``ADJOINT_NETS``): an MLP output that feeds
    a ``concat_cols`` and a ``mul``, a part used twice in one ``concat_cols``
    that feeds an MLP, and an MLP whose input, a ``concat_cols`` node, also
    reaches the loss another way."""
    mlp = lambda name, h: nc.mlp_forward(nets[name], ADJOINT_NETS[name], h)
    a = mul(x, nc.Tensor(c))
    b = scale(x, -0.7)
    s = add(a, b)
    yield sumall(add(mul(s, s), mul(a, b)))
    a = mul(x, nc.Tensor(c))
    s = add(a, a)
    yield sumall(mul(add(s, a), s))
    p, q = scale(x, 1.3), mul(y, y)
    cat = nc.concat_cols([p, q, p])
    yield sumall(add(mul(cat, nc.concat_cols([q, p, q])), mul(cat, cat)))
    h = mlp("feed", x)
    cat = nc.concat_cols([h, y])
    yield sumall(add(mul(cat, cat), nc.concat_cols([mul(h, y), y])))
    p = mul(x, nc.Tensor(c))
    out = mlp("twice", nc.concat_cols([p, y, p]))
    yield sumall(add(mul(out, out), mul(p, out)))
    cat = nc.concat_cols([mul(x, x), y])
    yield sumall(mul(add(mlp("cat", cat), cat), cat))


N_ADJOINT_GRAPHS = 6


def _adjoint_case(rng):
    """The parameters (x, y, the nets) and the constant c of every graph of
    ``_shared_adjoint_graphs``, as groups for ``backward``."""
    ps = nc.ParamSet()
    x, y = ps.add("x", rng.normal(size=(4, 3))), ps.add("y", rng.normal(size=(4, 3)))
    c = rng.normal(size=(4, 3))
    nets = {name: stacked_nets(rng, spec, 1)[0] for name, spec in ADJOINT_NETS.items()}
    groups = [("p", ps)] + [(name, nets[name]) for name in ADJOINT_NETS]
    return groups, (x, y, c, nets)


@pytest.mark.parametrize("graph", range(N_ADJOINT_GRAPHS))
def test_shared_adjoints_sum_as_finite_differences(rng, graph):
    """An adjoint an interior node keeps is its own, so a later one added to
    it reaches no other node."""
    groups, args = _adjoint_case(rng)

    def loss_tensor():
        return list(_shared_adjoint_graphs(*args))[graph]

    nc.backward(loss_tensor(), groups)
    analytic = {f"{label}/{n}": t.grad.copy() for label, ps in groups for n, t in ps.items()}
    numeric = finite_diff_grad(lambda: loss_tensor().data.item(), groups)
    for key in analytic:
        assert rel_err(analytic[key], numeric[key]) < 1e-7, key


# sha256 over every parameter gradient of each graph of _shared_adjoint_graphs
# (group and name order), recorded while every first adjoint was copied
SHARED_ADJOINT_PINS = {
    0: "e2af6dbbf05a5c641766ba73701ce79b300da2e3f1c3dbafaef7d2b0401ca48c",
    1: "045171b2d681307736eec4e03f00a3a3cc5aa7f2813e67b050946ffb7f5ddb9e",
    2: "94bdaf3c479e653282d5040c48ffb77568f18a6b2746c294536e2d31043887c2",
    3: "62ac1d80fe962f49824893bea49a57f3518eab9b22e1a51214498ba87a2a213e",
    4: "e9f79b9e9560f5c47ddc674d09234fea7233b7a44a512ae89382a7aeed062d44",
    5: "9d88a65584d1d280d2b357c5122bef19665aa2c0079b3e586a1d25f6a2a58ba7",
}


@pytest.mark.parametrize("graph", range(N_ADJOINT_GRAPHS))
def test_shared_adjoint_grads_are_pinned(rng, graph):
    """The gradients of every shared-adjoint graph, bit for bit."""
    groups, args = _adjoint_case(rng)
    nc.backward(list(_shared_adjoint_graphs(*args))[graph], groups)
    h = hashlib.sha256()
    for label, ps in groups:
        for name, t in ps.items():
            h.update(f"{label}/{name}".encode() + t.grad.tobytes())
    assert h.hexdigest() == SHARED_ADJOINT_PINS[graph]


def test_parameters_off_the_graph_keep_exact_zero_grads(rng):
    used, unused = nc.ParamSet(), nc.ParamSet()
    x = used.add("x", rng.normal(size=(3, 2)))
    w = unused.add("w", rng.normal(size=(2, 2)))
    w.grad = np.ones((2, 2))
    groups = [("used", used), ("unused", unused)]
    state = nc.adam_init(groups)
    w0 = w.data.copy()
    for _ in range(2):
        nc.backward(sumall(mul(x, x)), groups)
        assert np.array_equal(w.grad, np.zeros((2, 2)))
        assert not np.signbit(w.grad).any()
        nc.adam_step(groups, state)
    assert np.array_equal(w.data, w0)


def test_mse_rows_has_the_bits_of_the_op_chain(rng):
    """Value and adjoint of the one eps-MSE node equal sub, mul(d, d), sumall
    and scale bit for bit, on an interior node and on a parameter."""
    target = rng.normal(size=(6, 2))
    target[0, 0], target[1, 1] = 0.0, 0.25
    for name in ("interior", "param"):
        results = []
        for fused in (False, True):
            ps = nc.ParamSet()
            p = ps.add("p", rng.normal(size=(6, 2)) if not results else results[0][2])
            p.data[0, 0], p.data[1, 1] = -0.0, 0.25     # differences -0 and +0
            pred = scale(p, 1.0) if name == "interior" else p
            if fused:
                loss = nc.mse_rows(pred, target)
            else:
                d = sub(pred, nc.Tensor(target))
                loss = scale(sumall(mul(d, d)), 1.0 / len(target))
            nc.backward(loss, [("g", ps)])
            results.append((loss.data.tobytes(), p.grad.tobytes(), p.data.copy()))
        assert results[0][:2] == results[1][:2], name


@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_weighted_sum_has_the_bits_of_the_op_chain(rng, n_terms):
    """Value and adjoints of the one weighted-sum node equal the chain
    add(mul(col(w, 0), t_0), mul(col(w, 1), t_1)), ... bit for bit, with
    terms on the graph and as data rows; exact zeros included."""
    w_data = rng.dirichlet(np.ones(n_terms), size=6)
    t_data = [rng.normal(size=(6, 4)) for _ in range(n_terms)]
    t_data[0][0] = 0.0
    adj = rng.normal(size=(6, 4))
    results = []
    for fused in (False, True):
        ps = nc.ParamSet()
        logits = ps.add("logits", np.log(w_data))
        w = nc.softmax_rows(scale(logits, 1.0))
        terms = [ps.add(f"t{i}", d.copy()) if i % 2 == 0 else d
                 for i, d in enumerate(t_data)]
        if fused:
            total = nc.weighted_sum(w, terms)
        else:
            total = None
            for i, t in enumerate(terms):
                term = mul(col(w, i), t if isinstance(t, nc.Tensor) else nc.Tensor(t))
                total = term if total is None else add(total, term)
        nc.backward(sumall(mul(total, nc.Tensor(adj))), [("p", ps)])
        results.append([total.data.tobytes()] + [t.grad.tobytes() for _, t in ps.items()])
    assert results[0] == results[1]


def test_backward_rejects_nonscalar(rng):
    x = nc.Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ContractError):
        nc.backward(add(x, x), [("p", _as_paramset(x=x))])


def test_nonfinite_raises_numeric_error():
    with pytest.raises(NumericError):
        nc.Tensor(np.array([1.0, np.inf]))
    big = nc.Tensor(np.array([1e308]))
    with pytest.raises(NumericError):
        mul(big, big)


def test_shape_mismatch_raises(rng):
    a = nc.Tensor(rng.normal(size=(3, 2)))
    w = nc.Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        nc.mlp_forward(_as_paramset(W0=w, b0=nc.Tensor(np.zeros(2))),
                       nc.MlpSpec(2, (), 2), a)


# ---------------------------------------------------------------------------
# MLPs


def _as_paramset(**named):
    ps = nc.ParamSet()
    for name, t in named.items():
        ps._tensors[name] = t
    return ps


def test_mlp_spec_validation():
    with pytest.raises(ShapeError):
        nc.MlpSpec(0, (4,), 2)
    with pytest.raises(ShapeError):
        nc.MlpSpec(3, (4,), 2, activation="sigmoid")


def test_init_mlp_ranges_and_shapes(rng):
    spec = nc.MlpSpec(6, (16, 8), 3)
    ps = nc.init_mlp(spec, rng)
    assert ps.names() == ["W0", "b0", "W1", "b1", "W2", "b2"]
    for (fan_in, fan_out), i in zip(spec.layer_dims(), range(3)):
        w = ps[f"W{i}"].data
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_in, fan_out)
        assert np.all(np.abs(w) <= lim)
        assert np.allclose(ps[f"b{i}"].data, 0.0)


def test_mlp_forward_matches_manual(rng):
    spec = nc.MlpSpec(4, (5,), 2)
    ps = nc.init_mlp(spec, rng)
    x = rng.normal(size=(3, 4))
    out = nc.mlp_forward(ps, spec, x).data
    manual = np.tanh(x @ ps["W0"].data + ps["b0"].data) @ ps["W1"].data + ps["b1"].data
    assert np.allclose(out, manual, atol=1e-14)
    assert np.allclose(nc.mlp_infer(ps, spec, x), manual, atol=1e-14)


def test_mlp_gradcheck_many_random_shapes(rng):
    """Backward vs central differences across randomized small MLPs."""
    worst = 0.0
    for trial in range(10):
        din = int(rng.integers(1, 5))
        dout = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 6))
                       for _ in range(int(rng.integers(1, 3))))
        act = ["tanh", "relu"][trial % 2]
        spec = nc.MlpSpec(din, hidden, dout, activation=act)
        ps = nc.init_mlp(spec, rng)
        # Nudge every parameter off zero.  Zero biases can leave relu
        # pre-activations exactly at the kink, where central differences
        # and the subgradient convention legitimately disagree.
        for _, t in ps.items():
            t.data += rng.normal(scale=0.05, size=t.data.shape)
        x = rng.normal(size=(4, din))
        target = rng.normal(size=(4, dout))

        def loss_tensor():
            diff = sub(nc.mlp_forward(ps, spec, x), nc.Tensor(target))
            return scale(sumall(mul(diff, diff)), 1.0 / x.shape[0])

        loss = loss_tensor()
        nc.backward(loss, [("net", ps)])
        analytic = {f"net/{n}": t.grad.copy() for n, t in ps.items()}
        numeric = finite_diff_grad(lambda: loss_tensor().data.item(),
                                      [("net", ps)])
        for key in analytic:
            worst = max(worst, rel_err(analytic[key], numeric[key]))
    assert worst < 1e-6, f"worst relative grad error {worst}"


def stacked_nets(rng, spec, n):
    nets = [nc.init_mlp(spec, rng) for _ in range(n)]
    for net in nets:
        for _, t in net.items():
            t.data += rng.normal(scale=0.05, size=t.data.shape)
    return nets


def stack(nets):
    """Nets of one spec as the dict of stacked arrays ``mlp_infer`` takes:
    weights (S, in, out) and biases (S, 1, out), in net order."""
    out = {}
    for name in nets[0].names():
        data = np.stack([net[name].data for net in nets])
        out[name] = data[:, None] if name[0] == "b" else data
    return out


@pytest.mark.parametrize("act", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
def test_mlp_infer_stack_axes_slices_and_untouched_input(rng, hidden, act):
    """Nets stacked on one or two leading axes: every slice of the result is
    that net alone on its rows, bit for bit, in the 2-D and the row-stacked
    layout, and the net alone gives the bits of act(h @ W + b) layer by
    layer. The input is never written, although the layers run in place."""
    spec = nc.MlpSpec(3, hidden, 2, activation=act)
    nets = stacked_nets(rng, spec, 6)
    flat = stack(nets)
    two = {name: a.reshape((2, 3) + a.shape[1:]) for name, a in flat.items()}
    fn = {"tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0)}[act]
    for x in (rng.normal(size=(5, 3)), nc.row_layout(rng.normal(size=(5, 3))),
              rng.normal(size=(1, 3))):
        keep = x.copy()
        alone = [nc.mlp_infer(net, spec, x) for net in nets]
        manual = x
        for i in range(len(hidden) + 1):
            manual = manual @ nets[0][f"W{i}"].data + nets[0][f"b{i}"].data
            manual = fn(manual) if i < len(hidden) else manual
        assert np.array_equal(alone[0], manual)
        per_net = np.array([x + s for s in range(6)])   # each net its own rows
        for params, lead in ((flat, (6,)), (two, (2, 3))):
            out = nc.mlp_infer(params, spec, x.reshape((1,) * len(lead) + x.shape))
            assert out.shape == lead + alone[0].shape
            assert np.array_equal(out.reshape((6,) + alone[0].shape), np.array(alone))
            out = nc.mlp_infer(params, spec, per_net.reshape(lead + x.shape))
            for s, net in enumerate(nets):
                assert np.array_equal(out.reshape((6,) + alone[0].shape)[s],
                                      nc.mlp_infer(net, spec, per_net[s]))
        assert np.array_equal(x, keep)
    for params in (flat, two):
        with pytest.raises(ShapeError):   # 2-D rows without the stack axes
            nc.mlp_infer(params, spec, rng.normal(size=(5, 3)))


# sha256 of each gradient after one backward through mlp_forward, recorded
# with one graph node per matmul, bias add and activation
GRAD_PINS = {
    ("tanh", 0): {
        "W0": "e020b78eeeec51ad4fa23e23f20a28485937ec2ace512bb969800ecdbda56bb1",
        "b0": "2e5598da01dc77b1897f4a6912c85a7289873b03e834295f75c65adafd6e55a2",
        "W1": "95197dc223a9e5a6adeade685460cfebbae4ca4960f22fe4e1ac6eb3819577a6",
        "b1": "89cb1f9e24d81717ba4cb6e7f71ff3052e984aeb85e8f36e314e0d4edfe9dab2",
        "W2": "173690200a07b4808b4291fb9945e20fc8890156d70019f67d96a82583ba32df",
        "b2": "7c4dc430bf5667bb4e09591e87cd66405f8983b6bd7a02010959e079a6a3147c",
        "x": "5680d4c277282a62e0a96491501ad6346e117b412145bac5aef3fd0867daa366",
    },
    ("relu", 0): {
        "W0": "56bb5dd5d8fc5c90a054d8173a27d558f7777c62b4c3073935247e96fff4a90f",
        "b0": "d693e17093ac7f1643aad8e620894a7226b4b398b1d425450a8f00026588a9f2",
        "W1": "93160fb0c49e666b24e3baa4978adf7b6fcfd22e499b3646de2d53c3b69f6d68",
        "b1": "a92c03c2a25c3c397ec8d811c35f64bf453bedbcd9a52152d06e0628bd111864",
        "W2": "b630aa315e47ce31aa62ed03c14ed22722ed995b9cd695786ae37e4e385be6ae",
        "b2": "7c4dc430bf5667bb4e09591e87cd66405f8983b6bd7a02010959e079a6a3147c",
        "x": "d2d771a22e62e5e4b2548ceefb7b4e5641141c5918f07f4143cc2cf06c8dac61",
    },
}


@pytest.mark.parametrize("act,n_stack", sorted(GRAD_PINS))
def test_mlp_backward_grads_are_pinned(act, n_stack):
    """Parameter and input gradients of one 2-D net (no stack axis, the only
    form ``mlp_forward`` takes), bit for bit, with the input on the graph."""
    rng = np.random.default_rng(2024)
    spec = nc.MlpSpec(5, (7, 6), 3, activation=act)
    ps = stacked_nets(rng, spec, 1)[0]
    x = nc.Tensor(rng.normal(size=(9, 5)))
    out = nc.mlp_forward(ps, spec, x)
    adj = rng.normal(size=out.shape)
    nc.backward(sumall(mul(out, nc.Tensor(adj))),
                [("net", ps), ("in", _as_paramset(x=x))])
    got = {name: hashlib.sha256(t.grad.tobytes()).hexdigest() for name, t in ps.items()}
    got["x"] = hashlib.sha256(x.grad.tobytes()).hexdigest()
    assert got == GRAD_PINS[act, n_stack]


def test_stacked_matmul_shape_errors(rng):
    """``mlp_forward`` trains one net: stacked weights, or a layer that does
    not fit its spec, are shape errors, whatever the input."""
    spec = nc.MlpSpec(3, (4,), 1)
    stacked = stack(stacked_nets(rng, spec, 2))
    for name in ("W0", "W1"):
        ps = nc.init_mlp(spec, rng)
        ps[name].data = stacked[name]
        for a in (rng.normal(size=(5, 3)), rng.normal(size=(2, 5, 3))):
            with pytest.raises(ShapeError):
                nc.mlp_forward(ps, spec, nc.Tensor(a))
    ps = nc.init_mlp(spec, rng)
    ps["W1"].data = rng.normal(size=(3, 1))   # narrower than the hidden layer
    with pytest.raises(ShapeError):
        nc.mlp_forward(ps, spec, nc.Tensor(rng.normal(size=(5, 3))))


# ---------------------------------------------------------------------------
# Adam


def test_adam_single_step_matches_hand_calculation():
    ps = nc.ParamSet()
    ps.add("w", np.array([1.0, -2.0]))
    ps["w"].grad = np.array([0.5, -1.0])
    state = nc.adam_init([("g", ps)], lr=0.1)
    nc.adam_step([("g", ps)], state)
    g = np.array([0.5, -1.0])
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(ps["w"].data, expect, atol=1e-12)


def test_adam_two_steps_match_reference_loop(rng):
    w0 = rng.normal(size=(3,))
    grads = [rng.normal(size=(3,)) for _ in range(2)]
    ps = nc.ParamSet()
    ps.add("w", w0.copy())
    state = nc.adam_init([("g", ps)], lr=0.01)
    m = np.zeros(3)
    v = np.zeros(3)
    ref = w0.copy()
    for t, g in enumerate(grads, start=1):
        ps["w"].grad = g.copy()
        nc.adam_step([("g", ps)], state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(ps["w"].data, ref, atol=1e-12)


def test_adam_missing_grad_raises(rng):
    ps = nc.ParamSet()
    ps.add("w", rng.normal(size=(2,)))
    state = nc.adam_init([("g", ps)], lr=0.01)
    with pytest.raises(ContractError):
        nc.adam_step([("g", ps)], state)


def test_adam_flat_update_matches_per_tensor_reference(rng):
    """Three steps over two groups of mixed shapes, one of them a stacked
    (S, in, out) weight, give exactly the per-tensor formula's bytes."""
    shapes = {"a": {"W0": (2, 3, 4), "b0": (2, 1, 4)}, "b": {"w": (5,), "m": (3, 2)}}
    groups = []
    for label, named in shapes.items():
        ps = nc.ParamSet()
        for name, shape in named.items():
            ps.add(name, rng.normal(size=shape))
        groups.append((label, ps))
    ref = {f"{label}/{name}": [t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)]
           for label, ps in groups for name, t in ps.items()}
    state = nc.adam_init(groups, lr=0.01)
    for step in range(1, 4):
        for label, ps in groups:
            for name, t in ps.items():
                t.grad = rng.normal(size=t.shape)
                w, m, v = ref[f"{label}/{name}"]
                m *= 0.9
                m += (1.0 - 0.9) * t.grad
                v *= 0.999
                v += (1.0 - 0.999) * t.grad * t.grad
                w -= 0.01 * (m / (1.0 - 0.9 ** step)) / (
                    np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
        nc.adam_step(groups, state)
    for label, ps in groups:
        for name, t in ps.items():
            assert np.array_equal(t.data, ref[f"{label}/{name}"][0]), name


@pytest.mark.parametrize("group,name", [(0, "b0"), (1, "W0")])
def test_adam_nonfinite_grad_names_the_parameter(rng, group, name):
    groups = [("enc", nc.ParamSet()), ("sub", nc.ParamSet())]
    for _, ps in groups:
        for pname in ("W0", "b0"):
            ps.add(pname, rng.normal(size=(2, 3)))
            ps[pname].grad = rng.normal(size=(2, 3))
    label, ps = groups[group]
    ps[name].grad[1, 2] = np.nan
    state = nc.adam_init(groups)
    with pytest.raises(NumericError, match=f"'{label}/{name}'"):
        nc.adam_step(groups, state)


class _RefAdam:
    """Adam written per tensor, as the formula reads: the reference for the
    flat-buffer optimizer."""

    def __init__(self, lr):
        self.lr, self.t, self.m, self.v = lr, 0, {}, {}

    def step(self, weights, grads):
        self.t += 1
        for key, g in grads.items():
            m = self.m.setdefault(key, np.zeros_like(g))
            v = self.v.setdefault(key, np.zeros_like(g))
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            weights[key] -= self.lr * (m / (1.0 - 0.9 ** self.t)) / (
                np.sqrt(v / (1.0 - 0.999 ** self.t)) + 1e-8)


def test_in_place_weight_edit_is_seen_by_scoring_and_the_next_adam_step(rng):
    cfg = RunConfig().with_section("expert", enc_hidden=(8,), enc_out=4, score_hidden=(8,))
    cfg = cfg.with_section("train", steps=2, batch=8)
    ex = xp.train_expert(constant_action_dataset([0.1, 0.2]), "vis", cfg, rng)
    a, ks = rng.normal(size=(5, 2)), rng.integers(1, 51, size=5)
    emb = ex.encode_rows(rng.normal(size=(5, 5)), rng.normal(size=(5, 2)))
    before = ex.score_rows(a, emb, ks)
    ex.score_params["W0"].data[2, 3] += 0.5
    fresh = xp.ModalityExpert(**{**vars(ex), "score_params": copy_params(ex.score_params)})
    assert not np.array_equal(ex.score_rows(a, emb, ks), before)
    assert np.array_equal(ex.score_rows(a, emb, ks), fresh.score_rows(a, emb, ks))

    groups = ex.param_groups()
    state, ref = nc.adam_init(groups, lr=0.01), _RefAdam(0.01)
    weights = {f"{g}/{n}": t.data.copy() for g, ps in groups for n, t in ps.items()}
    for step in range(3):
        grads = {}
        for g, ps in groups:
            for n, t in ps.items():
                t.grad = rng.normal(size=t.shape) if step != 1 else t.grad
                grads[f"{g}/{n}"] = t.grad.copy()
        if step == 1:     # grads left in place in the flat buffer, edited there
            ex.score_params["b1"].grad[1] = 3.0
            grads["score/b1"][1] = 3.0
        if step == 2:
            ex.score_params["W0"].data[1, 1] -= 0.25
            weights["score/W0"][1, 1] -= 0.25
        nc.adam_step(groups, state)
        ref.step(weights, grads)
        for g, ps in groups:
            for n, t in ps.items():
                assert np.array_equal(t.data, weights[f"{g}/{n}"]), (step, g, n)


def test_paramset_trained_by_two_optimizers_in_turn_keeps_one_copy(rng):
    """Expert training, then joint router training: the second optimizer
    takes the weights over, and the first still sees them if it steps again."""
    shared, own = nc.ParamSet(), nc.ParamSet()
    shared.add("W", rng.normal(size=(3, 2)))
    shared.add("b", rng.normal(size=(2,)))
    own.add("r", rng.normal(size=(4,)))
    first, second = [("e", shared)], [("router", own), ("e", shared)]
    weights = {f"{g}/{n}": t.data.copy() for g, ps in second for n, t in ps.items()}
    refs = {"first": _RefAdam(0.01), "second": _RefAdam(0.02)}
    opts = {"first": nc.adam_init(first, lr=0.01)}
    for name, groups in (("first", first), ("first", first), ("second", second),
                         ("second", second), ("first", first), ("second", second)):
        if name not in opts:
            opts[name] = nc.adam_init(groups, lr=0.02)
        grads = {}
        for g, ps in groups:
            for n, t in ps.items():
                t.grad = rng.normal(size=t.shape)
                grads[f"{g}/{n}"] = t.grad.copy()
        nc.adam_step(groups, opts[name])
        refs[name].step(weights, grads)
        for g, ps in second:
            for n, t in ps.items():
                assert np.array_equal(t.data, weights[f"{g}/{n}"]), (name, g, n)
    with pytest.raises(ContractError):
        nc.adam_step(second, opts["first"])


def test_joint_router_training_updates_the_experts_own_weights(rng):
    cfg = RunConfig().with_section("expert", enc_hidden=(8,), enc_out=4, score_hidden=(8,))
    cfg = cfg.with_section("router", hidden=(4,), joint=True)
    cfg = cfg.with_section("train", steps=3, batch=8, router_steps=3)
    ds = constant_action_dataset([0.1, 0.2])
    experts = [xp.train_expert(ds, m, cfg, rng) for m in ("vis", "tac")]
    copies = [(copy_params(ex.enc.params), copy_params(ex.score_params)) for ex in experts]
    train_router(experts, ds, cfg, rng)
    for ex, (enc, score) in zip(experts, copies):
        assert checksum(ex.enc.params) != checksum(enc)
        assert checksum(ex.score_params) != checksum(score)


def test_paramset_checksum_tracks_values(rng):
    ps = nc.ParamSet()
    ps.add("w", rng.normal(size=(2, 2)))
    before = checksum(ps)
    assert checksum(copy_params(ps)) == before
    ps["w"].data[0, 0] += 1e-9
    assert checksum(ps) != before
