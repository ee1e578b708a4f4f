"""Reference code the tests check the package against, kept out of it.

``sub``, ``scale`` and ``sumall`` are graph ops in the style of
``modalcompose.numcore``: the eps-MSE op chain whose bits ``numcore.mse_rows``
reproduces as one node, and the small losses the gradient tests build.
``finite_diff_grad`` is the gradient oracle, ``effective_eps`` a perfect
denoiser for the sampler tests, ``read_metrics_csv`` reads back the rows
``pipeline.write_metrics_csv`` writes, and ``eval_scripted`` is the scripted
demonstrator's metrics row, the ceiling the evaluation tests compare against.
"""

import csv
from typing import Callable

import numpy as np

from modalcompose.envs import make_env_spec, run_expert_episode
from modalcompose.errors import ContractError
from modalcompose.numcore import Array, ParamGroups, Tensor, _acc, _unbroadcast
from modalcompose.rngstream import TAG_EVAL, stream


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, (a, b), _op="sub")
    out._bw = lambda g: (_acc(a, _unbroadcast(g, a.data.shape)),
                         _acc(b, _unbroadcast(-g, b.data.shape)))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, (a,), _op="scale")
    out._bw = lambda g: _acc(a, g * c)
    return out


def sumall(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,), _op="sumall")
    out._bw = lambda g: _acc(a, np.full(a.data.shape, float(g)))
    return out


def effective_eps(a_k: np.ndarray, a0: np.ndarray, k, sched) -> np.ndarray:
    """The noise that forward_noise would have to have drawn to map a0 to a_k.

    As a sampling provider ``(a_k, k)`` it is a perfect denoiser: step k = 1
    injects no noise, so the sampler lands on a0 whatever state it reached.
    """
    return (a_k - sched.sqrt_ab(k) * a0) / sched.sqrt_one_minus_ab(k)


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


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            rows.append({"task": raw["task"], "method": raw["method"],
                         "success_rate": float(raw["success_rate"]),
                         "mean_steps": float(raw["mean_steps"]),
                         "param_count": int(raw["param_count"]),
                         "seed": int(raw["seed"])})
        return rows


def eval_scripted(env_name: str, n: int, seed: int) -> list[dict]:
    """Oracle upper-bound row: the scripted expert driving its own episodes."""
    if n <= 0:
        raise ContractError("n must be positive")
    spec = make_env_spec(env_name)
    wins = 0
    steps = []
    for ep in range(n):
        episode, success = run_expert_episode(spec, stream(seed, TAG_EVAL, ep))
        wins += success
        steps.append(len(episode.actions))
    return [{"task": env_name, "method": "scripted", "success_rate": wins / n,
             "mean_steps": float(np.mean(steps)), "param_count": 0, "seed": seed}]
