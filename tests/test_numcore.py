"""Autodiff, MLP, and optimizer unit tests against independent oracles."""

import numpy as np
import pytest

from modalcompose import numcore as nc
from modalcompose.errors import ContractError, NumericError, ShapeError


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# individual ops vs numpy oracles


def test_add_mul_broadcast_backward(rng):
    x = nc.Tensor(rng.normal(size=(4, 3)))
    b = nc.Tensor(rng.normal(size=(3,)))
    y = nc.sumall(nc.mul(nc.add(x, b), nc.add(x, b)))
    nc.backward(y, [("p", _as_paramset(x=x, b=b))])
    # d/dx sum((x+b)^2) = 2(x+b); d/db sums over the broadcast rows
    expect_x = 2.0 * (x.data + b.data)
    assert np.allclose(x.grad, expect_x, atol=1e-12)
    assert np.allclose(b.grad, expect_x.sum(axis=0), atol=1e-12)


def test_matmul_backward_matches_manual(rng):
    a = nc.Tensor(rng.normal(size=(5, 4)))
    w = nc.Tensor(rng.normal(size=(4, 3)))
    y = nc.sumall(nc.matmul(a, w))
    nc.backward(y, [("p", _as_paramset(a=a, w=w))])
    ones = np.ones((5, 3))
    assert np.allclose(a.grad, ones @ w.data.T, atol=1e-12)
    assert np.allclose(w.grad, a.data.T @ ones, atol=1e-12)


def test_tanh_relu_values_and_grads(rng):
    x = nc.Tensor(rng.normal(size=(6,)))
    t = nc.tanh(x)
    assert np.allclose(t.data, np.tanh(x.data))
    nc.backward(nc.sumall(t), [("p", _as_paramset(x=x))])
    assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-12)

    x2 = nc.Tensor(np.array([-2.0, -0.5, 0.5, 3.0]))
    r = nc.relu(x2)
    assert np.allclose(r.data, [0.0, 0.0, 0.5, 3.0])
    nc.backward(nc.sumall(r), [("p", _as_paramset(x=x2))])
    assert np.allclose(x2.grad, [0.0, 0.0, 1.0, 1.0])


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
        return nc.sumall(nc.mul(nc.softmax_rows(xt), nc.const(coeff)))

    loss = loss_tensor()
    nc.backward(loss, [("p", ps)])
    analytic = xt.grad.copy()

    num = nc.finite_diff_grad(lambda: loss_tensor().data.item(), [("p", ps)])
    assert rel_err(analytic, num["p/x"]) < 1e-7


def test_concat_cols_and_col_roundtrip_grads(rng):
    a = nc.Tensor(rng.normal(size=(4, 2)))
    b = nc.Tensor(rng.normal(size=(4, 3)))
    cat = nc.concat_cols([a, b])
    assert cat.data.shape == (4, 5)
    picked = nc.col(cat, 3)
    nc.backward(nc.sumall(nc.mul(picked, picked)), [("p", _as_paramset(a=a, b=b))])
    assert np.allclose(a.grad, 0.0)
    expect = np.zeros((4, 3))
    expect[:, 1] = 2.0 * b.data[:, 1]
    assert np.allclose(b.grad, expect, atol=1e-12)


def test_grad_accumulates_when_tensor_reused(rng):
    x = nc.Tensor(rng.normal(size=(3,)))
    y = nc.sumall(nc.add(nc.mul(x, x), nc.mul(x, x)))
    nc.backward(y, [("p", _as_paramset(x=x))])
    assert np.allclose(x.grad, 4.0 * x.data, atol=1e-12)


def test_backward_rejects_nonscalar(rng):
    x = nc.Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ContractError):
        nc.backward(nc.add(x, x), [("p", _as_paramset(x=x))])


def test_nonfinite_raises_numeric_error():
    with pytest.raises(NumericError):
        nc.Tensor(np.array([1.0, np.inf]))
    big = nc.Tensor(np.array([1e308]))
    with pytest.raises(NumericError):
        nc.mul(big, big)


def test_shape_mismatch_raises(rng):
    a = nc.Tensor(rng.normal(size=(3, 2)))
    w = nc.Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        nc.matmul(a, w)


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
    out = nc.mlp_forward(ps, spec, nc.const(x)).data
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
            diff = nc.sub(nc.mlp_forward(ps, spec, nc.const(x)), nc.const(target))
            return nc.scale(nc.sumall(nc.mul(diff, diff)), 1.0 / x.shape[0])

        loss = loss_tensor()
        nc.backward(loss, [("net", ps)])
        analytic = {f"net/{n}": t.grad.copy() for n, t in ps.items()}
        numeric = nc.finite_diff_grad(lambda: loss_tensor().data.item(),
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


@pytest.mark.parametrize("band", [False, True])
def test_stacked_mlp_forward_is_each_net_alone(rng, band):
    """Every slice of the stacked forward, and every net's gradients, equal
    the separate 2-D graph bit for bit; the shared input's adjoint is their
    sum in net order."""
    spec = nc.MlpSpec(5, (7, 6), 3)
    nets = stacked_nets(rng, spec, 3)
    stack = nc.stack_params(nets)
    x_val, adj = rng.normal(size=(9, 5)), rng.normal(size=(9, 3))
    masks = (rng.integers(0, 3, size=9) == np.arange(3)[:, None])[..., None] * 1.0

    x = nc.Tensor(x_val)
    out = nc.mlp_forward(stack, spec, x)
    nc.backward(nc.sumall(nc.mul(nc.reduce_stack(out, masks if band else None),
                                 nc.const(adj))), [("s", stack), ("x", _as_paramset(x=x))])
    x_grad = np.zeros_like(x_val)
    for j, net in enumerate(nets):
        xj = nc.Tensor(x_val)
        oj = nc.mlp_forward(net, spec, xj)
        assert np.array_equal(out.data[j], oj.data)
        # the slice's share of the adjoint, as the reduction hands it down
        share = adj * masks[j] if band else adj / 3
        nc.backward(nc.sumall(nc.mul(oj, nc.const(share))),
                    [("n", net), ("x", _as_paramset(x=xj))])
        x_grad += xj.grad
        for name, t in net.items():
            assert np.array_equal(stack[name].grad[j].reshape(t.shape), t.grad)
    assert np.array_equal(x.grad, x_grad)


def test_reduce_stack_mean_and_masked_sum(rng):
    a = rng.normal(size=(3, 4, 2))
    mean = nc.reduce_stack(nc.const(a)).data
    assert np.array_equal(mean, (a[0] + a[1] + a[2]) / 3)
    masks = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0]])[..., None]
    picked = nc.reduce_stack(nc.const(a), masks).data
    assert np.array_equal(picked, a[[0, 1, 2, 0], np.arange(4)])


def test_stacked_mlp_gradcheck(rng):
    spec = nc.MlpSpec(3, (4,), 2)
    stack = nc.stack_params(stacked_nets(rng, spec, 3))
    x = rng.normal(size=(5, 3))
    masks = (np.arange(5) % 3 == np.arange(3)[:, None])[..., None] * 1.0
    for m in (None, masks):
        def loss():
            y = nc.reduce_stack(nc.mlp_forward(stack, spec, nc.const(x)), m)
            return nc.sumall(nc.mul(y, y))

        nc.backward(loss(), [("s", stack)])
        analytic = {f"s/{n}": t.grad.copy() for n, t in stack.items()}
        numeric = nc.finite_diff_grad(lambda: loss().data.item(), [("s", stack)])
        for key in analytic:
            assert rel_err(analytic[key], numeric[key]) < 1e-6, key


def test_stacked_matmul_shape_errors(rng):
    w = nc.Tensor(rng.normal(size=(2, 3, 4)))
    for a in (rng.normal(size=(5, 2)), rng.normal(size=(3, 5, 3)),
              rng.normal(size=(5,)), rng.normal(size=(1, 2, 5, 3))):
        with pytest.raises(ShapeError):
            nc.matmul(nc.Tensor(a), w)
    with pytest.raises(ShapeError):
        nc.matmul(nc.Tensor(rng.normal(size=(2, 5, 3))), nc.Tensor(rng.normal(size=(3, 4))))


def test_stack_and_unstack_round_trip(rng):
    nets = stacked_nets(rng, nc.MlpSpec(3, (4,), 2), 2)
    stack = nc.stack_params(nets)
    assert stack["W0"].shape == (2, 3, 4) and stack["b1"].shape == (2, 1, 2)
    for j, net in enumerate(nets):
        back = nc.unstack_params(stack, j)
        assert back.checksum() == net.checksum()
        back["W0"].data[...] = 0.0      # a copy, not a view of the stack
    assert np.array_equal(stack["W0"].data[0], nets[0]["W0"].data)


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


def test_paramset_checksum_tracks_values(rng):
    ps = nc.ParamSet()
    ps.add("w", rng.normal(size=(2, 2)))
    before = ps.checksum()
    assert ps.copy().checksum() == before
    ps["w"].data[0, 0] += 1e-9
    assert ps.checksum() != before
