"""Acceptance gate: ten go/no-go criteria, one test and one verdict line each.

The shared fixture trains the full method suite at benchmark scale (3 seeds,
100 demonstrations, 100 evaluation episodes per policy) through the same
pipeline entry points the CLI uses, so every criterion is checked against
artifacts a user could reproduce from the command line. Verdict lines are
printed on the unbuffered real stdout so they survive pytest's capture.
"""

import sys
import time

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose import compose
from modalcompose import experts as xp
from modalcompose import numcore as nc
from modalcompose import pipeline as pl
from modalcompose.analysis import (CorruptionMode, ScenarioSpec,
                                   perturb_importance, probe_sigmas,
                                   robustness_eval)
from modalcompose.diffusion import make_schedule
from modalcompose.envs import Dataset, Observation, make_env_spec
from modalcompose.rollout import evaluate_policy, run_policy_episode
from modalcompose.router import Router
from modalcompose.rngstream import TAG_EVAL, TAG_TRAIN, stream
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset
from tests.oracles import finite_diff_grad, scale, sub, sumall

SEEDS = (0, 1, 2)
EVAL_N = 100


def eval_seed(seed):
    # evaluation streams are kept disjoint from the training streams
    return 1000 + seed


def gate(ok, label, detail):
    from tests import conftest
    verdict = "PASS" if ok else "FAIL"
    line = f"{label}: {verdict} ({detail})"
    conftest.record_gate(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Train and evaluate every method on 3 seeds; returns all artifacts."""
    root = tmp_path_factory.mktemp("acceptance")
    sched = make_schedule()
    spec = make_env_spec("occluded_reach")
    t0 = time.time()
    per_seed = {}
    for seed in SEEDS:
        cfg = RunConfig().with_section("run", seed=seed, demos=100,
                                       out=str(root / f"seed{seed}"))
        data_path = pl.gen_data(cfg)
        written = pl.run_training(cfg)
        ex_vis, stats, _ = cpt.expert_from_checkpoint(
            cpt.load_checkpoint(written["expert:vis"]))
        ex_tac, _, _ = cpt.expert_from_checkpoint(
            cpt.load_checkpoint(written["expert:tac"]))
        router = cpt.router_from_checkpoint(cpt.load_checkpoint(written["router"]))
        policies = {
            "vis": compose.single_expert_policy(ex_vis, sched, stats),
            "tac": compose.single_expert_policy(ex_tac, sched, stats),
            "equal": compose.manual_compose([ex_vis, ex_tac], [0.5, 0.5],
                                            sched, stats),
            "learned": compose.compose_policy([ex_vis, ex_tac], router, "soft",
                                              sched, stats),
            "concat": cpt.fusion_from_checkpoint(cpt.load_checkpoint(written["concat"])),
            "moe": cpt.fusion_from_checkpoint(cpt.load_checkpoint(written["moe"])),
        }
        rates = {name: evaluate_policy(p, spec, eval_seed(seed), EVAL_N)[0]
                 for name, p in policies.items()}
        per_seed[seed] = {
            "cfg": cfg, "data_path": data_path, "written": written,
            "experts": (ex_vis, ex_tac), "router": router, "stats": stats,
            "policies": policies, "rates": rates,
        }
    return {"root": root, "spec": spec, "sched": sched, "seeds": per_seed,
            "wall": time.time() - t0}


def mean_rate(suite, name):
    return float(np.mean([suite["seeds"][s]["rates"][name] for s in SEEDS]))


# ---------------------------------------------------------------------------
# AC-1: composition identity


def test_ac1_composition_identity():
    t0 = time.time()
    cfg = RunConfig().with_section("expert", enc_hidden=(16,), enc_out=8,
                                   score_hidden=(32,))
    rng = np.random.default_rng(11)
    names, dims = ("vis", "tac", "aud"), (5, 3, 4)
    distinct = [xp.init_expert(m, d, 2, 2, cfg, rng)
                for m, d in zip(names, dims)]
    # three experts over the same modality with identical parameters
    clones = [xp.init_expert("vis", 5, 2, 2, cfg, np.random.default_rng(99))
              for _ in range(3)]
    sched = make_schedule()
    stats = constant_action_dataset([0.1, 0.2]).stats()
    uniform = compose.manual_compose(clones, np.full(3, 1.0 / 3.0), sched, stats)

    def expert_score(ex, a_k, obs, k):
        emb = ex.encode_rows(obs.modalities[ex.modality][None, :],
                             obs.robot_state[None, :])
        return ex.score_rows(a_k[None, :], emb, k)[0]

    worst = 0.0
    for trial in range(100):
        obs = Observation(
            modalities={m: rng.normal(size=d) for m, d in zip(names, dims)},
            robot_state=rng.normal(size=2))
        a_k = rng.normal(size=2)
        k = int(rng.integers(1, 51))
        j = trial % 3
        one_hot = np.zeros(3)
        one_hot[j] = 1.0
        selected = compose.manual_compose(distinct, one_hot, sched, stats)
        got = selected.score_provider([obs])(a_k[None, :], k)[0]
        want = expert_score(distinct[j], a_k, obs, k)
        assert got.tobytes() == want.tobytes()
        mixed = uniform.score_provider([obs])(a_k[None, :], k)[0]
        single = expert_score(clones[0], a_k, obs, k)
        worst = max(worst, float(np.max(np.abs(mixed - single))))
    elapsed = time.time() - t0
    gate(worst <= 1e-12 and elapsed < 1.0, "AC-1",
         f"one-hot bit-exact over 100 trials; uniform-over-clones max dev "
         f"{worst:.2e} vs tol 1e-12; {elapsed:.2f}s of 1s budget")


# ---------------------------------------------------------------------------
# AC-2: gradient correctness


def test_ac2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(50):
        din = int(rng.integers(1, 6))
        dout = int(rng.integers(1, 5))
        hidden = tuple(int(rng.integers(2, 8))
                       for _ in range(int(rng.integers(1, 3))))
        act = ("tanh", "relu")[trial % 2]
        spec = nc.MlpSpec(din, hidden, dout, activation=act)
        ps = nc.init_mlp(spec, rng)
        # keep relu pre-activations off the kink, where the subgradient
        # convention and central differences legitimately disagree
        for _, t in ps.items():
            t.data += rng.normal(scale=0.05, size=t.data.shape)
        x = rng.normal(size=(4, din))
        target = rng.normal(size=(4, dout))

        def loss_tensor():
            diff = sub(nc.mlp_forward(ps, spec, nc.const(x)), nc.const(target))
            return scale(sumall(nc.mul(diff, diff)), 1.0 / x.shape[0])

        nc.backward(loss_tensor(), [("net", ps)])
        analytic = {f"net/{n}": t.grad.copy() for n, t in ps.items()}
        numeric = finite_diff_grad(lambda: loss_tensor().data.item(),
                                      [("net", ps)])
        for key, a in analytic.items():
            b = numeric[key]
            denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
            worst = max(worst, float(np.abs(a - b).max() / denom))
    elapsed = time.time() - t0
    gate(worst <= 1e-6 and elapsed < 30.0, "AC-2",
         f"50 random MLPs, worst relative grad error {worst:.2e} vs tol 1e-6; "
         f"{elapsed:.1f}s of 30s budget")


# ---------------------------------------------------------------------------
# AC-3: diffusion recovery


def test_ac3_diffusion_recovery():
    t0 = time.time()
    target = np.array([0.3, -0.4])
    ds = constant_action_dataset(target, n_rows=256)
    cfg = (RunConfig()
           .with_section("expert", enc_hidden=(32,), enc_out=16, score_hidden=(64,))
           .with_section("train", steps=4000, batch=64, lr=1e-3))
    expert = xp.train_expert(ds, "vis", cfg, stream(77, TAG_TRAIN, 1))
    policy = compose.single_expert_policy(expert, make_schedule(), ds.stats())
    g = np.random.default_rng(3)
    obs = Observation(modalities={"vis": g.normal(0, 0.5, size=5),
                                  "tac": g.normal(0, 0.5, size=3)},
                      robot_state=g.normal(0, 0.5, size=2))
    draws = np.stack([policy.act(obs, stream(303, TAG_EVAL, i))
                      for i in range(500)])
    dev = np.abs(draws.mean(axis=0) - target)
    std = draws.std(axis=0)
    elapsed = time.time() - t0
    gate(bool(np.all(dev <= 0.05) and np.all(std <= 0.15)) and elapsed < 120.0,
         "AC-3", f"500 draws: |mean - target| = {np.round(dev, 4).tolist()} "
         f"vs 0.05, std = {np.round(std, 4).tolist()} vs 0.15; "
         f"{elapsed:.0f}s of 120s budget")


# ---------------------------------------------------------------------------
# AC-4: sparsity advantage over concatenation and single modalities


def test_ac4_composed_vs_concat_and_singles(suite):
    composed = mean_rate(suite, "learned")
    concat = mean_rate(suite, "concat")
    best_single = max(mean_rate(suite, "vis"), mean_rate(suite, "tac"))
    margin = composed - concat
    ok = margin >= 0.10 and composed > best_single
    gate(ok, "AC-4",
         f"composed {composed:.3f} vs concat {concat:.3f} (margin {margin:+.3f}, "
         f"need >= +0.10), best single {best_single:.3f} (need composed greater); "
         f"suite wall {suite['wall']:.0f}s of 1800s budget")


# ---------------------------------------------------------------------------
# AC-5: tactile importance rises once vision goes occluded


def test_ac5_importance_shift(suite):
    spec = suite["spec"]
    pre_vis, pre_tac, contact_tac = [], [], []
    n_traces = 0
    for seed in SEEDS:
        info = suite["seeds"][seed]
        ds = Dataset.read(info["data_path"])
        sigmas = probe_sigmas(ds, info["cfg"].probe.sigma_scale)
        policy = info["policies"]["learned"]
        ep = 0
        while n_traces < 24 and ep < 16:
            trace = perturb_importance(policy, spec, eval_seed(seed),
                                       info["cfg"].probe, sigmas, episode=ep)
            ep += 1
            if not trace.success:
                continue
            entered = np.logical_or(trace.in_box, trace.in_contact)
            first = int(np.argmax(entered)) if entered.any() else trace.steps
            if first == 0 or not trace.in_contact.any():
                continue
            n_traces += 1
            pre = np.zeros(trace.steps, dtype=bool)
            pre[:first] = True
            pre_vis.extend(trace.ema["vis"][pre])
            pre_tac.extend(trace.ema["tac"][pre])
            contact_tac.extend(trace.ema["tac"][trace.in_contact])
    pv, pt, ct = (float(np.mean(v)) for v in (pre_vis, pre_tac, contact_tac))
    ratio = ct / pt if pt > 0 else float("inf")
    ok = n_traces >= 20 and ct >= 2.0 * pt and pv >= pt
    gate(ok, "AC-5",
         f"{n_traces} successful traces; tac importance {ct:.4f} in contact vs "
         f"{pt:.4f} pre-occlusion (ratio {ratio:.1f}, need >= 2); vis pre "
         f"{pv:.4f} >= tac pre {pt:.4f}")


# ---------------------------------------------------------------------------
# AC-6: equal-weight composition beats both single experts without retraining


def test_ac6_incremental_composition(suite):
    details = []
    ok = True
    for seed in SEEDS:
        r = suite["seeds"][seed]["rates"]
        best = max(r["vis"], r["tac"])
        ok = ok and r["equal"] > best
        details.append(f"seed {seed}: (0.5,0.5) {r['equal']:.2f} vs best single "
                       f"{best:.2f}")
    gate(ok, "AC-6", "; ".join(details))


# ---------------------------------------------------------------------------
# AC-7: learned router vs fixed equal weights vs MoE feature fusion


def test_ac7_router_vs_equal_vs_moe(suite):
    learned = mean_rate(suite, "learned")
    equal = mean_rate(suite, "equal")
    moe = mean_rate(suite, "moe")
    strict = sum(suite["seeds"][s]["rates"]["learned"]
                 > suite["seeds"][s]["rates"]["equal"] for s in SEEDS)
    clauses = [learned >= equal - 0.02, strict >= 2,
               learned >= moe - 0.02, equal >= moe - 0.02]
    gate(all(clauses), "AC-7",
         f"learned {learned:.3f} vs equal {equal:.3f} (tol -0.02), strictly "
         f"greater on {strict}/3 seeds (need >= 2); vs moe {moe:.3f}: learned "
         f"{'ok' if clauses[2] else 'short'}, equal {'ok' if clauses[3] else 'short'}")


# ---------------------------------------------------------------------------
# AC-8: routing strategies


def ks_stat(x, y):
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


def test_ac8_routing_strategies(suite):
    spec = suite["spec"]
    info = suite["seeds"][0]
    ex_vis, ex_tac = info["experts"]
    router, stats, sched = info["router"], info["stats"], suite["sched"]
    results = {}
    for strategy in ("soft", "hard", "top2"):
        policy = compose.compose_policy([ex_vis, ex_tac], router, strategy,
                                        sched, stats)
        results[strategy] = evaluate_policy(policy, spec, eval_seed(0), 10)
    valid = all(0.0 <= rate <= 1.0 and steps <= spec.t_max
                for rate, steps in results.values())
    identical = results["top2"] == results["soft"]

    saturated = Router(params=router.params.copy(), spec=router.spec,
                       modality_order=router.modality_order,
                       emb_dims=router.emb_dims)
    last = len(saturated.spec.layer_dims()) - 1
    saturated.params[f"b{last}"].data[1] += 1000.0
    hard = compose.compose_policy([ex_vis, ex_tac], saturated, "hard", sched, stats)
    single = info["policies"]["tac"]
    g = np.random.default_rng(5)
    obs = Observation(modalities={"vis": g.normal(size=5),
                                  "tac": g.normal(size=3)},
                      robot_state=g.normal(size=2))
    a = np.stack([hard.act(obs, stream(9, TAG_EVAL, i)) for i in range(500)])
    b = np.stack([single.act(obs, stream(9, TAG_EVAL, i)) for i in range(500)])
    ks = max(ks_stat(a[:, d], b[:, d]) for d in range(a.shape[1]))
    gate(valid and identical and ks < 0.1, "AC-8",
         f"soft/hard/top2 rates {[round(results[s][0], 2) for s in ('soft', 'hard', 'top2')]} "
         f"all valid; top2 == soft metrics bit-identical: {identical}; saturated "
         f"hard vs single expert KS {ks:.4f} vs 0.1 over 500 paired draws")


# ---------------------------------------------------------------------------
# AC-9: determinism and persistence


def test_ac9_determinism_and_persistence(suite, tmp_path):
    info = suite["seeds"][0]
    cfg = info["cfg"].with_section("run", out=str(tmp_path / "repeat"),
                                   dataset="")
    repeat_data = pl.gen_data(cfg)
    repeat_written = pl.run_training(cfg)
    data_same = repeat_data.read_bytes() == info["data_path"].read_bytes()
    ckpt_same = all(repeat_written[m].read_bytes() == info["written"][m].read_bytes()
                    for m in info["written"])

    rows_a = pl.run_eval(info["written"]["expert:vis"], 20, seed=eval_seed(0))
    rows_b = pl.run_eval(info["written"]["expert:vis"], 20, seed=eval_seed(0))
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    pl.write_metrics_csv(csv_a, rows_a)
    pl.write_metrics_csv(csv_b, rows_b)
    csv_same = csv_a.read_bytes() == csv_b.read_bytes()

    ck = cpt.load_checkpoint(info["written"]["router"])
    relay = tmp_path / "relay.mcpf"
    cpt.save_checkpoint(ck.tensors, ck.metadata, relay)
    roundtrip = relay.read_bytes() == info["written"]["router"].read_bytes()
    gate(data_same and ckpt_same and csv_same and roundtrip, "AC-9",
         f"rerun byte-identical: dataset {data_same}, all {len(info['written'])} "
         f"checkpoints {ckpt_same}, metrics CSV {csv_same}; load-save round trip "
         f"{roundtrip}")


# ---------------------------------------------------------------------------
# AC-10: robustness to vision dropout after occlusion entry


def test_ac10_robustness_probes(suite):
    spec = suite["spec"]
    zero_vis = ScenarioSpec(kind="corruption",
                            corruption=CorruptionMode("zero", "vis"),
                            onset="occlusion_entry")
    bases, corrupted = [], []
    for seed in SEEDS:
        policy = suite["seeds"][seed]["policies"]["learned"]
        bases.append(robustness_eval(policy, spec, None, EVAL_N, eval_seed(seed))[0])
        corrupted.append(robustness_eval(policy, spec, zero_vis, EVAL_N,
                                         eval_seed(seed))[0])
    drop = float(np.mean(bases) - np.mean(corrupted))

    info = suite["seeds"][0]
    ds = Dataset.read(info["data_path"])
    sigmas = probe_sigmas(ds, info["cfg"].probe.sigma_scale)
    undisturbed = True
    for ep in (0, 1):
        trace = perturb_importance(info["policies"]["learned"], spec,
                                   eval_seed(0), info["cfg"].probe, sigmas,
                                   episode=ep)
        rec = run_policy_episode(info["policies"]["learned"], spec,
                                 eval_seed(0), ep)
        undisturbed = undisturbed and (
            trace.positions.tobytes() == np.asarray(rec.positions).tobytes())
    gate(drop <= 0.15 and undisturbed, "AC-10",
         f"zero-vis-after-entry drop {drop:+.3f} vs 0.15 cap (base "
         f"{np.mean(bases):.3f}, corrupted {np.mean(corrupted):.3f}); probing "
         f"leaves driven trajectories bit-identical: {undisturbed}")
