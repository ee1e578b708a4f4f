"""Output checks, and the reference code they compare against.

Everything the checks recompute is written here from the file formats and
the published definitions, not taken from `modalcompose`: the `.mcpf` reader,
the MLP forward, the sinusoidal timestep features, the noise schedule, the
ancestral sampler, the composition rules and the point-mass dynamics. Only
inputs come from the program (its checkpoints, datasets, recorded episodes,
resets and random streams).

Every check returns (ok, detail); `detail` is one line for the run log.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# checkpoint files


def read_mcpf(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse an MCPF file: magic, version 1, JSON metadata, named f64 tensors."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MCPF" or struct.unpack_from("<I", raw, 4)[0] != 1:
        raise ValueError(f"{path}: not an MCPF v1 file")
    (mlen,) = struct.unpack_from("<I", raw, 8)
    off = 12
    meta = json.loads(raw[off:off + mlen].decode("utf-8"))
    off += mlen
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, off)
        off += 2
        name = raw[off:off + nlen].decode("utf-8")
        off += nlen
        rank = raw[off]
        off += 1
        dims = struct.unpack_from("<" + "I" * rank, raw, off)
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        tensors[name] = np.frombuffer(raw, "<f8", n, off).reshape(dims).copy()
        off += 8 * n
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return meta, tensors


# ---------------------------------------------------------------------------
# model pieces


def mlp(tensors: dict, prefix: str, spec: dict, x: np.ndarray) -> np.ndarray:
    """Dense layers W_i, b_i with the activation between them, none last."""
    n_layers = len(spec["hidden"]) + 1
    h = np.asarray(x, dtype=np.float64)
    for i in range(n_layers):
        h = h.dot(tensors[f"{prefix}/W{i}"]) + tensors[f"{prefix}/b{i}"]
        if i < n_layers - 1:
            h = np.tanh(h) if spec["activation"] == "tanh" else np.maximum(h, 0.0)
    return h


def timestep_features(k, n_steps: int) -> np.ndarray:
    """16 features: sin/cos pairs of (k / n_steps) * f for 8 frequencies f
    spaced geometrically from 1 to n_steps."""
    t = np.asarray(k, dtype=np.float64) / n_steps
    out = np.empty(t.shape + (16,))
    for j in range(8):
        f = float(n_steps) ** (j / 7.0) if n_steps > 1 else 1.0
        out[..., 2 * j] = np.sin(t * f)
        out[..., 2 * j + 1] = np.cos(t * f)
    return out


def schedule(meta: dict):
    """Linear betas over K steps; returns betas, alphas, cumulative alphas."""
    s = meta["schedule"]
    betas = np.linspace(s["beta_start"], s["beta_end"], s["steps"])
    alphas = 1.0 - betas
    return betas, alphas, np.cumprod(alphas)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def normalize(meta: dict, a: np.ndarray) -> np.ndarray:
    lo, hi = (np.asarray(meta["stats"][k]) for k in ("act_min", "act_max"))
    span = hi - lo
    return np.where(span > 1e-12, 2.0 * (a - lo) / np.where(span > 1e-12, span, 1.0)
                    - 1.0, a - lo)


def denormalize(meta: dict, a: np.ndarray) -> np.ndarray:
    st = meta["stats"]
    lo, hi = np.asarray(st["act_min"]), np.asarray(st["act_max"])
    x = a.reshape(st["horizon"], st["action_dim"])
    span = hi - lo
    ok = span > 1e-12
    out = np.where(ok, lo + (x + 1.0) * np.where(ok, span, 1.0) / 2.0, lo + x)
    return out.reshape(a.shape)


class RefExpert:
    """Encoder plus sub-policies of one expert checkpoint."""

    def __init__(self, path):
        self.meta, self.t = read_mcpf(path)
        self.modality = self.meta["modality"]

    def embed(self, m_rows, rs_rows):
        code = mlp(self.t, "enc", self.meta["encoder_spec"], m_rows)
        return np.concatenate([code, rs_rows], axis=1)

    def score(self, a_rows, emb_rows, ks):
        ks = np.broadcast_to(np.asarray(ks), (a_rows.shape[0],))
        K = self.meta["n_steps"]
        x = np.concatenate([a_rows, emb_rows, timestep_features(ks, K)], axis=1)
        specs = self.meta["sub_specs"]
        n = len(specs)
        outs = [mlp(self.t, f"sub{j}", sp, x) for j, sp in enumerate(specs)]
        if not self.meta["noise_band_split"]:
            return sum(outs) / n
        edges = np.linspace(0, K, n + 1)
        out = np.zeros_like(outs[0])
        for j in range(n):
            band = (ks > edges[n - 1 - j]) & (ks <= edges[n - j])
            out[band] = outs[j][band]
        return out


def _obs_rows(obs, name):
    return np.asarray(obs.modalities[name], dtype=np.float64)[None, :]


class RefComposed:
    """Score-space composition: weights from a router checkpoint or fixed."""

    # the program samples every composed policy with sigma_k = sqrt(beta_k),
    # whatever [diffusion] sigma_mode says (expert checkpoints do not record it)
    sigma_mode = "beta"

    def __init__(self, experts: list[RefExpert], router_path=None, weights=None):
        self.experts = experts
        self.meta = experts[0].meta
        self.router = read_mcpf(router_path) if router_path else None
        self.weights = None if weights is None else np.asarray(weights, float)

    def condition(self, obs):
        rs = np.asarray(obs.robot_state, dtype=np.float64)[None, :]
        embs = [ex.embed(_obs_rows(obs, ex.modality), rs) for ex in self.experts]
        if self.router is not None:
            rmeta, rt = self.router
            w = softmax(mlp(rt, "router", rmeta["router_spec"],
                            np.concatenate(embs, axis=1)))[0]
        else:
            w = self.weights
        return w, embs

    def eps(self, a, cond, k):
        w, embs = cond
        total = np.zeros_like(a)
        for wi, ex, e in zip(w, self.experts, embs):
            if wi != 0.0:
                total = total + wi * ex.score(a[None, :], e, k)[0]
        return total


class RefFusion:
    """Concat or gated-MoE feature fusion from a fusion checkpoint."""

    def __init__(self, path):
        self.meta, self.t = read_mcpf(path)
        self.sigma_mode = self.meta["sigma_mode"]

    def _embs(self, m_by_name: dict, rs_rows):
        embs = []
        for name, sp in zip(self.meta["modality_order"], self.meta["encoder_specs"]):
            code = mlp(self.t, f"enc_{name}", sp, m_by_name[name])
            embs.append(np.concatenate([code, rs_rows], axis=1))
        return embs

    def cond_rows(self, m_by_name: dict, rs_rows):
        embs = self._embs(m_by_name, rs_rows)
        if self.meta["kind"] == "concat":
            return np.concatenate(embs, axis=1)
        g = softmax(mlp(self.t, "gate", self.meta["gate_spec"],
                        np.concatenate(embs, axis=1)))
        return sum(g[:, i:i + 1] * e for i, e in enumerate(embs))

    def score(self, a_rows, cond_rows, ks):
        ks = np.broadcast_to(np.asarray(ks), (a_rows.shape[0],))
        K = self.meta["schedule"]["steps"]
        x = np.concatenate([a_rows, cond_rows, timestep_features(ks, K)], axis=1)
        return mlp(self.t, "score", self.meta["score_spec"], x)

    def condition(self, obs):
        rs = np.asarray(obs.robot_state, dtype=np.float64)[None, :]
        return self.cond_rows({n: _obs_rows(obs, n)
                               for n in self.meta["modality_order"]}, rs)

    def eps(self, a, cond, k):
        return self.score(a[None, :], cond, k)[0]


def ref_act(ref, obs, rng) -> np.ndarray:
    """Ancestral DDPM sampling from a^K ~ N(0, I) down to a^0, clamped to
    [-1, 1] and mapped back to action units. Draw order: the initial state,
    then one noise vector after each step k = K..2."""
    meta = ref.meta
    betas, alphas, abar = schedule(meta)
    K = betas.size
    if ref.sigma_mode == "beta":
        sigma = np.sqrt(betas)
    else:
        abar_prev = np.concatenate([[1.0], abar[:-1]])
        sigma = np.sqrt((1.0 - abar_prev) / (1.0 - abar) * betas)
    dim = meta["stats"]["action_dim"] * meta["stats"]["horizon"]
    cond = ref.condition(obs)
    a = rng.standard_normal(dim)
    for k in range(K, 0, -1):
        e = ref.eps(a, cond, k)
        a = (a - betas[k - 1] / np.sqrt(1.0 - abar[k - 1]) * e) / np.sqrt(alphas[k - 1])
        if k > 1:
            a = a + sigma[k - 1] * rng.standard_normal(dim)
    return denormalize(meta, np.clip(a, -1.0, 1.0))


# ---------------------------------------------------------------------------
# train checks


def fixed_batch(dataset, meta: dict, n_rows: int = 256, seed: int = 20250917):
    """A fixed batch of (modality rows, robot rows, a0, k, eps, a_k)."""
    mods = {m: np.concatenate([ep.modalities[m] for ep in dataset.episodes])
            for m in dataset.modality_dims}
    rs = np.concatenate([ep.robot for ep in dataset.episodes])
    acts = np.concatenate([ep.actions for ep in dataset.episodes])
    g = np.random.default_rng(seed)
    idx = g.integers(0, acts.shape[0], size=n_rows)
    _, _, abar = schedule(meta)
    ks = g.integers(1, abar.size + 1, size=n_rows)
    a0 = normalize(meta, acts[idx])
    eps = g.standard_normal(a0.shape)
    a_k = (np.sqrt(abar[ks - 1])[:, None] * a0
           + np.sqrt(1.0 - abar[ks - 1])[:, None] * eps)
    return {m: v[idx] for m, v in mods.items()}, rs[idx], ks, eps, a_k


def eps_mse(paths: dict, method: str, dataset) -> tuple[float, int]:
    """epsilon-MSE of one saved method on the fixed batch, and chunk_dim.

    `paths` maps method names to checkpoint paths; a router is scored as the
    composition it weights, so it needs the expert checkpoints beside it.
    """
    path = paths[method]
    meta, _ = read_mcpf(path)
    m_rows, rs, ks, eps, a_k = fixed_batch(dataset, meta)
    if meta["kind"] == "expert":
        ex = RefExpert(path)
        eps_hat = ex.score(a_k, ex.embed(m_rows[ex.modality], rs), ks)
    elif meta["kind"] == "router":
        rmeta, rt = read_mcpf(path)
        exs = [RefExpert(paths[f"expert:{m}"]) for m in rmeta["modality_order"]]
        embs = [ex.embed(m_rows[ex.modality], rs) for ex in exs]
        w = softmax(mlp(rt, "router", rmeta["router_spec"], np.concatenate(embs, axis=1)))
        eps_hat = sum(w[:, i:i + 1] * ex.score(a_k, e, ks)
                      for i, (ex, e) in enumerate(zip(exs, embs)))
    else:
        fu = RefFusion(path)
        eps_hat = fu.score(a_k, fu.cond_rows(m_rows, rs), ks)
    chunk_dim = meta["stats"]["action_dim"] * meta["stats"]["horizon"]
    return float(np.mean(np.sum((eps - eps_hat) ** 2, axis=1))), chunk_dim


def check_eps_mse(paths: dict, method: str, dataset):
    loss, chunk_dim = eps_mse(paths, method, dataset)
    return loss < chunk_dim, (f"{method}: eps-MSE {loss:.4f} vs zero-predictor "
                              f"{chunk_dim}")


def check_round_trip(path, tmp_path, cpt, expert_path=None):
    """Typed load -> save of one checkpoint must give the same bytes."""
    ck = cpt.load_checkpoint(path)
    m = ck.metadata
    ids = dict(env_name=m["env"], seed=m["seed"], config_hash=m["config_hash"])
    if m["kind"] == "expert":
        ex, stats, sched = cpt.expert_from_checkpoint(ck)
        cpt.save_expert(ex, stats, sched, tmp_path, **ids)
    elif m["kind"] == "router":
        _, stats, sched = cpt.expert_from_checkpoint(cpt.load_checkpoint(expert_path))
        cpt.save_router(cpt.router_from_checkpoint(ck), stats, sched, tmp_path, **ids)
    else:
        cpt.save_fusion(cpt.fusion_from_checkpoint(ck), tmp_path, **ids)
    same = Path(tmp_path).read_bytes() == Path(path).read_bytes()
    return same, f"{Path(path).name}: load-save round trip byte-identical: {same}"


# ---------------------------------------------------------------------------
# eval checks


def check_act_matches(policy, ref, observations, make_rng, label, tol=1e-9):
    """policy.act and the reference sampler agree on the same stream draws."""
    worst = 0.0
    for i, obs in enumerate(observations):
        got = np.asarray(policy.act(obs, make_rng(i)))
        want = ref_act(ref, obs, make_rng(i))
        if got.shape != want.shape:
            return False, f"{label}: act shape {got.shape} != {want.shape}"
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst <= tol, (f"{label}: act vs reference sampler on "
                          f"{len(observations)} observations, max |diff| "
                          f"{worst:.2e} (tol {tol:g})")


def replay_episodes(resets, steps, v_max, r_s, t_max):
    """Re-run recorded episodes under p' = clip(p + v_max a, -1, 1).

    resets: [(p0, q)] per episode, in order. steps: the recorded
    (observation, action) pairs of those episodes, concatenated. An episode
    ends on reaching within r_s of q or after t_max steps. Returns
    (mismatches, successes, step counts); a mismatch is a recorded position
    that differs from the replayed one, or recorded steps left over or
    missing.
    """
    mismatches = 0
    wins, lengths = 0, []
    i = 0
    for p0, q in resets:
        p = np.array(p0, dtype=np.float64)
        t = 0
        success = False
        while True:
            if i >= len(steps):
                return mismatches + 1, wins, lengths
            obs, action = steps[i]
            i += 1
            if np.asarray(obs.robot_state).tobytes() != p.tobytes():
                mismatches += 1
            p = np.clip(p + v_max * np.asarray(action)[:2], -1.0, 1.0)
            t += 1
            d = p - q
            if np.sqrt(d[0] * d[0] + d[1] * d[1]) <= r_s:
                success = True
            if success or t >= t_max:
                break
        wins += success
        lengths.append(t)
    return mismatches + (len(steps) - i), wins, lengths


def check_replay(resets, steps, row, spec, label):
    """Replayed positions, steps and successes match what run_eval saw."""
    bad, wins, lengths = replay_episodes(resets, steps, spec.v_max, spec.r_s,
                                         spec.t_max)
    n = len(resets)
    ok = (bad == 0 and len(lengths) == n and wins == round(row["success_rate"] * n)
          and abs(float(np.mean(lengths)) - row["mean_steps"]) < 1e-9)
    return ok, (f"{label}: replay of {n} episodes, {bad} mismatched positions, "
                f"{wins} successes vs {row['success_rate'] * n:.0f} reported, "
                f"mean steps {np.mean(lengths):.2f} vs {row['mean_steps']:.2f}")


def check_beats_random(learned_wins: int, random_wins: int, n: int):
    return learned_wins > random_wins, (
        f"learned composed policy {learned_wins}/{n} successes vs random "
        f"{random_wins}/{n} on the same episodes")


# ---------------------------------------------------------------------------
# probe checks


def check_probe_positions(trace, record, label):
    same = (np.asarray(trace.positions).tobytes()
            == np.asarray(record.positions).tobytes())
    return same, f"{label}: probed positions bit-identical to a plain rollout: {same}"


def check_zero_importance(trace):
    worst = max(float(np.max(np.abs(v))) if v.size else 0.0
                for v in trace.raw.values())
    return worst == 0.0, f"zero-sigma probe: max |importance| {worst!r} (need 0)"


def check_baseline(robust, plain, label):
    return tuple(robust) == tuple(plain), (
        f"{label}: uncorrupted robustness {robust} vs evaluate_policy {plain}")
