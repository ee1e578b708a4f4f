"""In-process A/B of the sampler (act() at B = 1, act_rows at B = 64, episodes) or training.

Usage, from the repository root:

    python3 tools/sampler_ab.py PARENT_SRC CHANGE_SRC --pairs 10 --out BENCH_rollout.json

PARENT_SRC and CHANGE_SRC are two ``src`` directories (say, of a ``git
archive`` of the parent commit and of the working tree). Each tree's package
is copied under its own name into a scratch directory, so both load in one
process and see the same machine. Each tree trains the same config (30 demos
of ``occluded_reach``, 60 steps per method, router 30, model seed 0, default
shapes) into its own directory and loads its own checkpoints into the six
policy kinds of the benchmark; the parent's package is also loaded a second
time, under a third name, on the parent's checkpoints, as an A/A control.
When the two trees' checkpoints are byte-identical, every kind's act_rows
at B = 1, 2, 7 and 64 (B = 1 is the one-row path, B = 2 the smallest
batched call), and the actions of a whole episode, must be too before
timing; when they differ, the JSON says so and that check is skipped, since
the trees then sample different models. Then, per kind and batch size, each
pair times the three sides on the same calls (20 act() calls at B = 1, 10
act_rows calls at B = 64) three times, interleaved, the side that runs
first rotating by pair; a side's timing in the pair is the least of its
three, so one burst of other load moves one run, not the pair. The third
case times whole episodes of ``rollout.run_policy_episode`` (eval seed 5,
episodes 0-3 in every pair), the sides interleaved by episode, the side
that runs first rotating by pair; a side's rate in the pair is its control
steps over its time. The JSON gives, for the change and for the A/A control
(under the change's keys), each against the parent: medians and quartiles
of the timings in ms per call and of the rates in control steps per second,
the side's median over the parent's, and in how many pairs the side was
faster.

    python3 tools/sampler_ab.py PARENT_SRC CHANGE_SRC --case training --pairs 10 --out BENCH_training.json

The training case trains the same A/B model with each tree and stops unless
their checkpoints are byte-identical. The parent's package is also loaded a
second time, under a third name, as an A/A control. Each side then times one
training step of each trainer: ``train_expert`` (vis), ``train_router`` (on
the side's own trained experts, frozen, and with ``[router] joint = true``
on a fresh copy of them), ``train_concat_policy`` and ``train_moe_policy``,
each run afresh for 100 steps at the A/B config's batch 64 on the side's own
copy of the A/B dataset, from one fixed generator; and one
``pipeline.run_training`` of all five methods at the benchmark's ``train``
size (100 demos, 144 steps, router 48, default lr), whose steps include its
dataset read and file writes. A warm-up run per side must give the parent's
loss history, and for ``run_training`` the parent's checkpoint and loss CSV
bytes. Per trainer, each pair times the three sides three times,
interleaved, the side that runs first rotating by pair, and keeps each
side's least time. The JSON gives, per trainer, the change against the
parent and the A/A control against the parent (under the change's keys), in
ms per training step.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

KINDS = ("vis", "tac", "equal", "learned", "concat", "moe")
ROWS = ((1, 20), (64, 10))   # (batch size, calls per timing)
REPS = 3                     # interleaved timings per side and pair; the least is kept
EVAL_SEED, EPISODES = 5, 4   # the episodes each side rolls per pair, interleaved
TRAIN_STEPS = 100            # training steps per timing of one trainer
FULL_STEPS, FULL_ROUTER_STEPS = 144, 48   # the benchmark's train size, 100 demos


def ab_config(pkg: str, out: str):
    """The A/B model's run config, built by one tree, writing into ``out``."""
    runconfig = importlib.import_module(pkg + ".runconfig")
    return (runconfig.RunConfig()
            .with_section("run", seed=0, demos=30, out=out)
            .with_section("train", steps=60, router_steps=30, lr=2e-3))


def train_tree(pkg: str, out: str) -> dict:
    """Train the A/B model with one tree into ``out``; {method: checkpoint path}."""
    pl = importlib.import_module(pkg + ".pipeline")
    cfg = ab_config(pkg, out)
    pl.gen_data(cfg)
    return pl.run_training(cfg)


def trainers(pkg: str, model: dict, out: str) -> dict:
    """Per timed trainer, (a call that runs it afresh with one tree and
    returns its loss history, its training steps): TRAIN_STEPS steps on the
    A/B dataset in ``out``, the router over the experts of ``model`` (a
    fresh copy of them when joint, as joint training changes them), then
    one run_training at the benchmark's train size into ``out``/full, whose
    result is the bytes of every file it writes."""
    mod = lambda name: importlib.import_module(f"{pkg}.{name}")
    cpt, compose, pl = mod("checkpoint"), mod("compose"), mod("pipeline")
    cfg = ab_config(pkg, out).with_section("train", steps=TRAIN_STEPS, router_steps=TRAIN_STEPS)
    joint = cfg.with_section("router", joint=True)
    dataset = mod("envs").Dataset.read(pl.default_dataset_path(cfg, Path(out)))
    experts = [cpt.expert_from_checkpoint(cpt.load_checkpoint(model[f"expert:{m}"]))[0]
               for m in ("vis", "tac")]
    rng = lambda: np.random.default_rng(0)
    router = lambda c, exs: mod("router").train_router(exs, dataset, c, rng()).loss_history
    full = (mod("runconfig").RunConfig()
            .with_section("run", seed=0, demos=100, out=os.path.join(out, "full"))
            .with_section("train", steps=FULL_STEPS, router_steps=FULL_ROUTER_STEPS))
    pl.gen_data(full)

    def run_training():
        pl.run_training(full)
        files = sorted(Path(full.run.out).iterdir())
        return [(f.name, f.read_bytes()) for f in files if f.suffix != ".mcds"]

    return {
        "expert": (lambda: mod("experts").train_expert(dataset, "vis", cfg, rng()).loss_history,
                   TRAIN_STEPS),
        "router": (lambda: router(cfg, experts), TRAIN_STEPS),
        "router_joint": (lambda: router(joint, copy.deepcopy(experts)), TRAIN_STEPS),
        "concat": (lambda: compose.train_concat_policy(dataset, cfg, rng()).loss_history,
                   TRAIN_STEPS),
        "moe": (lambda: compose.train_moe_policy(dataset, cfg, rng()).loss_history, TRAIN_STEPS),
        "run_training": (run_training, 4 * FULL_STEPS + FULL_ROUTER_STEPS),
    }


def training_case(sides: dict, pairs: int) -> dict:
    """ms per training step of each trainer: {trainer: {"change": summary,
    "parent_aa": summary}}, each side against "parent"."""
    labels = list(sides)
    for method, (parent_run, _) in sides["parent"].items():
        want = parent_run()
        for label in labels[1:]:
            if sides[label][method][0]() != want:
                raise SystemExit(f"{method}: {label} trains a different loss history")
    result = {}
    for method, (_, steps) in sides["parent"].items():
        times = {label: [] for label in labels}
        for order in _orders(labels, pairs):
            runs = {label: [] for label in labels}
            for _ in range(REPS):
                for label in order:
                    t0 = time.perf_counter()
                    sides[label][method][0]()
                    runs[label].append(time.perf_counter() - t0)
            for label, ts in runs.items():
                times[label].append(1e3 * min(ts) / steps)
        result[method] = _against_parent(times, lower_is_faster=True)
        print(method, result[method], flush=True)
    return result


def sampler_case(sides: dict, pairs: int) -> dict:
    """ms per act()/act_rows call per kind and batch size, and control steps
    per second of whole episodes per kind, each side against "parent"."""
    labels = list(sides)
    result = {"ms_per_call": {}, "episode_steps_per_s": {}}
    for rows, calls in ROWS:
        for kind in KINDS:
            times = {label: [] for label in labels}
            for order in _orders(labels, pairs):
                runs = {label: [] for label in labels}
                for _ in range(REPS):
                    for label in order:
                        runs[label].append(timed(sides[label], kind, rows, calls)[0])
                for label, ts in runs.items():
                    times[label].append(1e3 * min(ts))
            key = f"{kind} {'act()' if rows == 1 else 'act_rows'} B={rows}"
            result["ms_per_call"][key] = _against_parent(times, lower_is_faster=True)
            print(key, result["ms_per_call"][key], flush=True)
    for kind in KINDS:
        rates = {label: [] for label in labels}
        for order in _orders(labels, pairs):
            spent, steps = dict.fromkeys(labels, 0.0), dict.fromkeys(labels, 0)
            for ep in range(EPISODES):
                for label in order:
                    t0 = time.perf_counter()
                    steps[label] += sides[label][3](kind, ep).steps
                    spent[label] += time.perf_counter() - t0
            for label in labels:
                rates[label].append(steps[label] / spent[label])
        result["episode_steps_per_s"][kind] = _against_parent(rates, lower_is_faster=False)
        print(kind, "episodes", result["episode_steps_per_s"][kind], flush=True)
    return result


def _orders(labels: list, pairs: int):
    """Per pair, the order the sides run in, the first side rotating by pair."""
    for pair in range(pairs):
        yield labels[pair % len(labels):] + labels[:pair % len(labels)]


def _against_parent(values: dict, *, lower_is_faster: bool) -> dict:
    """Every other side's summary against "parent", under the side's label."""
    return {label: _summary({"parent": values["parent"], "change": v},
                            lower_is_faster=lower_is_faster)
            for label, v in values.items() if label != "parent"}


def load_tree(pkg: str, model: dict):
    cpt = importlib.import_module(pkg + ".checkpoint")
    rollout = importlib.import_module(pkg + ".rollout")
    compose = importlib.import_module(pkg + ".compose")
    envs = importlib.import_module(pkg + ".envs")
    rs = importlib.import_module(pkg + ".rngstream")
    load = lambda key: cpt.load_checkpoint(model[key])
    ex_vis, stats, sched = cpt.expert_from_checkpoint(load("expert:vis"))
    ex_tac, _, _ = cpt.expert_from_checkpoint(load("expert:tac"))
    router = cpt.router_from_checkpoint(load("router"))
    policies = {
        "vis": compose.manual_compose([ex_vis], [1.0], sched, stats),
        "tac": compose.manual_compose([ex_tac], [1.0], sched, stats),
        "equal": compose.manual_compose([ex_vis, ex_tac], [0.5, 0.5], sched, stats),
        "learned": compose.ComposedPolicy(experts=[ex_vis, ex_tac], sched=sched,
                                          stats=stats, router=router),
        "concat": cpt.fusion_from_checkpoint(load("concat")),
        "moe": cpt.fusion_from_checkpoint(load("moe")),
    }
    spec = envs.make_env_spec("occluded_reach")
    obs = [envs.env_reset(spec, rs.stream(EVAL_SEED, rs.TAG_EVAL, ep))[1] for ep in range(64)]
    episode = lambda kind, ep: rollout.run_policy_episode(policies[kind], spec, EVAL_SEED, ep)
    return policies, obs, rs, episode


def timed(tree, kind: str, rows: int, calls: int):
    policies, obs, rs, _ = tree
    policy = policies[kind]
    t0 = time.perf_counter()
    for i in range(calls):
        out = policy.act_rows(obs[:rows], [rs.stream(9, rs.TAG_ACT, i, r) for r in range(rows)])
    return (time.perf_counter() - t0) / calls, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=None)
    ap.add_argument("--case", choices=("sampler", "training"), default="sampler")
    args = ap.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="sampler_ab_")
    try:
        trees = [("mc_parent", args.parent_src), ("mc_change", args.change_src),
                 ("mc_parent_aa", args.parent_src)]
        for name, src in trees:
            shutil.copytree(os.path.join(src, "modalcompose"), os.path.join(scratch, name))
        sys.path.insert(0, scratch)
        sys.dont_write_bytecode = True
        parent_model, change_model = (train_tree(pkg, os.path.join(scratch, pkg))
                                      for pkg in ("mc_parent", "mc_change"))
        same_model = parent_model.keys() == change_model.keys() and all(
            parent_model[key].read_bytes() == path.read_bytes()
            for key, path in change_model.items())
        paragraphs = __doc__.split("\n\n")
        result = {"numpy": np.__version__, "python": sys.version.split()[0],
                  "blas": _blas_line(), "checkpoints_identical": same_model,
                  "pairs": args.pairs}
        if args.case == "training":
            if not same_model:
                raise SystemExit("the trees' checkpoints differ: training is timed only "
                                 "for trees that train the same bytes")
            result = {"command": paragraphs[4].strip(), "method": " ".join(paragraphs[5].split()),
                      **result}
            parent_out, change_out = (os.path.join(scratch, pkg) for pkg in ("mc_parent",
                                                                              "mc_change"))
            sides = {"parent": trainers("mc_parent", parent_model, parent_out),
                     "change": trainers("mc_change", change_model, change_out),
                     "parent_aa": trainers("mc_parent_aa", parent_model, parent_out)}
            result["ms_per_step"] = training_case(sides, args.pairs)
            _write(result, args.out)
            return 0
        if not same_model:
            print("the trees' checkpoints differ: the byte pre-check is skipped", flush=True)
        sides = {"parent": load_tree("mc_parent", parent_model),
                 "change": load_tree("mc_change", change_model),
                 "parent_aa": load_tree("mc_parent_aa", parent_model)}
        parent, change = sides["parent"], sides["change"]
        for kind in KINDS if same_model else ():
            for rows in (1, 2, 7, 64):
                a, b = timed(parent, kind, rows, 1)[1], timed(change, kind, rows, 1)[1]
                if a.tobytes() != b.tobytes():
                    raise SystemExit(f"{kind} at B = {rows}: the trees sample different bytes")
            a, b = (b"".join(x.tobytes() for x in tree[3](kind, 0).actions)
                    for tree in (parent, change))
            if a != b:
                raise SystemExit(f"{kind}: the trees' episodes act in different bytes")
        result = {"command": paragraphs[2].strip(), "method": " ".join(paragraphs[3].split()),
                  **result, **sampler_case(sides, args.pairs)}
        _write(result, args.out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _write(result: dict, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


def _summary(values: dict, *, lower_is_faster: bool) -> dict:
    """Medians and quartiles of the "parent" and "change" sides' per-pair
    values, the change's median over the parent's, and in how many pairs
    the change was faster."""
    q = {k: np.percentile(v, [25, 50, 75]) for k, v in values.items()}
    wins = sum(c < p if lower_is_faster else c > p
               for p, c in zip(values["parent"], values["change"]))
    return {"parent_median": round(float(q["parent"][1]), 4),
            "parent_quartiles": [round(float(x), 4) for x in q["parent"][::2]],
            "change_median": round(float(q["change"][1]), 4),
            "change_quartiles": [round(float(x), 4) for x in q["change"][::2]],
            "ratio": round(float(q["change"][1] / q["parent"][1]), 3),
            "change_faster_pairs": f"{wins}/{len(values['parent'])}"}


def _blas_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{blas.get('openblas configuration') or blas.get('name')}; "
            f"{os.cpu_count()} cpus; BLAS threads pinned to 1")


if __name__ == "__main__":
    sys.exit(main())
