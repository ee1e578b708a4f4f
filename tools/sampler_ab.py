"""In-process A/B of the sampler: per-kind act() at B = 1 and act_rows at B = 64.

Usage, from the repository root:

    python3 tools/sampler_ab.py PARENT_SRC CHANGE_SRC --pairs 10 --out BENCH_sampler.json

PARENT_SRC and CHANGE_SRC are two ``src`` directories (say, of a ``git
archive`` of the parent commit and of the working tree). Each tree's package
is copied under its own name into a scratch directory, so both load in one
process and see the same machine. A model is trained once with the parent's
tree (30 demos of ``occluded_reach``, 60 steps per method, router 30, model
seed 0, default shapes) and loaded by both trees into the six policy kinds
of the benchmark. Before timing, every kind's act_rows at B = 1, 7 and 64
must be byte-identical between the trees. Then, per kind and batch size,
each pair times both trees on the same calls (20 act() calls at B = 1, 10
act_rows calls at B = 64) three times, interleaved, the side that runs
first alternating by pair; a side's timing in the pair is the least of its
three, so one burst of other load moves one run, not the pair. The JSON
gives medians and quartiles of those timings in ms per call, the change's
median over the parent's, and in how many pairs the change was faster.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

KINDS = ("vis", "tac", "equal", "learned", "concat", "moe")
ROWS = ((1, 20), (64, 10))   # (batch size, calls per timing)
REPS = 3                     # interleaved timings per side and pair; the least is kept


def load_tree(pkg: str, model: dict):
    cpt = importlib.import_module(pkg + ".checkpoint")
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
    obs = [envs.env_reset(spec, rs.stream(5, rs.TAG_EVAL, ep))[1] for ep in range(64)]
    return policies, obs, rs


def timed(tree, kind: str, rows: int, calls: int):
    policies, obs, rs = tree
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
    args = ap.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="sampler_ab_")
    try:
        for name, src in (("mc_parent", args.parent_src), ("mc_change", args.change_src)):
            shutil.copytree(os.path.join(src, "modalcompose"), os.path.join(scratch, name))
        sys.path.insert(0, scratch)
        sys.dont_write_bytecode = True
        pl = importlib.import_module("mc_parent.pipeline")
        runconfig = importlib.import_module("mc_parent.runconfig")
        cfg = (runconfig.RunConfig()
               .with_section("run", seed=0, demos=30, out=os.path.join(scratch, "model"))
               .with_section("train", steps=60, router_steps=30, lr=2e-3))
        pl.gen_data(cfg)
        model = pl.run_training(cfg)
        parent, change = load_tree("mc_parent", model), load_tree("mc_change", model)
        for kind in KINDS:
            for rows in (1, 7, 64):
                a, b = timed(parent, kind, rows, 1)[1], timed(change, kind, rows, 1)[1]
                if a.tobytes() != b.tobytes():
                    raise SystemExit(f"{kind} at B = {rows}: the trees sample different bytes")
        paragraphs = __doc__.split("\n\n")
        result = {"command": paragraphs[2].strip(), "method": " ".join(paragraphs[3].split()),
                  "numpy": np.__version__, "python": sys.version.split()[0],
                  "blas": _blas_line(), "pairs": args.pairs, "ms_per_call": {}}
        for rows, calls in ROWS:
            for kind in KINDS:
                times = {"parent": [], "change": []}
                for pair in range(args.pairs):
                    sides = [("parent", parent), ("change", change)][::1 if pair % 2 == 0 else -1]
                    runs = {"parent": [], "change": []}
                    for _ in range(REPS):
                        for label, tree in sides:
                            runs[label].append(timed(tree, kind, rows, calls)[0])
                    for label, ts in runs.items():
                        times[label].append(1e3 * min(ts))
                q = {k: np.percentile(v, [25, 50, 75]) for k, v in times.items()}
                wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
                key = f"{kind} {'act()' if rows == 1 else 'act_rows'} B={rows}"
                result["ms_per_call"][key] = {
                    "parent_median": round(float(q["parent"][1]), 4),
                    "parent_quartiles": [round(float(x), 4) for x in q["parent"][::2]],
                    "change_median": round(float(q["change"][1]), 4),
                    "change_quartiles": [round(float(x), 4) for x in q["change"][::2]],
                    "ratio": round(float(q["change"][1] / q["parent"][1]), 3),
                    "change_faster_pairs": f"{wins}/{args.pairs}"}
                print(key, result["ms_per_call"][key], flush=True)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _blas_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{blas.get('openblas configuration') or blas.get('name')}; "
            f"{os.cpu_count()} cpus; BLAS threads pinned to 1")


if __name__ == "__main__":
    sys.exit(main())
