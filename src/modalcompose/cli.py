"""Command-line interface.

Subcommands: gen-data, train, compose, eval, analyze, robust, sweep.
``compose`` builds the policy through ``pipeline.compose_checkpoints``, then
writes its manifest and reads it back. Exit codes: 0 success, 1 handled
error (message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline
from .analysis import (CorruptionMode, ScenarioSpec, _check_scenario, perturb_importance,
                       probe_sigmas, robustness_eval)
from .envs import make_env_spec
from .errors import ConfigError, ModalComposeError
from .pipeline import load_manifest, run_eval, write_manifest, write_metrics_csv
from .router import STRATEGIES
from .runconfig import RunConfig, load_config


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modalcompose",
        description="Modality-composable diffusion policies on synthetic "
                    "manipulation tasks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, seed=True, out=True, config=True):
        if config:
            p.add_argument("--config", help="run-config file")
        if seed:
            p.add_argument("--seed", type=int, help="overrides [run] seed")
        if out:
            p.add_argument("--out", help="output path or directory")

    p = sub.add_parser("gen-data", help="generate a demonstration dataset")
    common(p)
    p.add_argument("--env", help="environment name")
    p.add_argument("--n", type=int, help="number of demonstrations")

    p = sub.add_parser("train", help="train experts / router / baselines")
    common(p)
    p.add_argument("--env", help="environment name")
    p.add_argument("--method", help="comma list: expert:<mod>,router,concat,moe")

    p = sub.add_parser("compose", help="write a composed-policy manifest")
    common(p, seed=False, config=False)
    p.add_argument("--experts", required=True, help="comma list of expert checkpoints")
    p.add_argument("--weights", help="comma list of fixed consensus weights")
    p.add_argument("--router", help="router checkpoint path")
    p.add_argument("--strategy", choices=STRATEGIES, default="soft")

    p = sub.add_parser("eval", help="evaluate a manifest or checkpoint")
    common(p)
    p.add_argument("--manifest", required=True, help="manifest or checkpoint path")
    p.add_argument("--n", type=int, help="evaluation episodes (default [run] eval_n)")

    p = sub.add_parser("analyze", help="modality-importance traces")
    common(p)
    p.add_argument("--manifest", required=True, help="manifest or checkpoint path")
    p.add_argument("--n", type=int, default=20, help="episodes to trace")

    p = sub.add_parser("robust", help="robustness scenario evaluation")
    common(p)
    p.add_argument("--manifest", required=True, help="manifest or checkpoint path")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--scenario", required=True,
                   help="teleport@<step> | reposition | "
                        "corrupt:<zero|freeze|gaussian>:<modality>"
                        "[@entry][:sigma=<v>]")

    p = sub.add_parser("sweep", help="dataset-size sweep")
    common(p)
    p.add_argument("--n", required=True, help="comma list of ascending sizes")
    return ap


def _load_cfg(args, **overrides) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    env = overrides.pop("env", None) or getattr(args, "env", None)
    if env:
        cfg = cfg.with_section("env", name=env)
    run_updates = {}
    if getattr(args, "seed", None) is not None:
        run_updates["seed"] = args.seed
    for key, value in overrides.items():
        if value is not None:
            run_updates[key] = value
    if run_updates:
        cfg = cfg.with_section("run", **run_updates)
    return cfg


def _parse_scenario(text: str) -> ScenarioSpec:
    if text.startswith("teleport@"):
        try:
            step = int(text.split("@", 1)[1])
        except ValueError:
            raise ConfigError(f"bad teleport step in {text!r}") from None
        return ScenarioSpec("runtime_perturbation", step_star=step)
    if text == "reposition":
        return ScenarioSpec("repositioning")
    if text.startswith("corrupt:"):
        body = text.split(":", 1)[1]
        onset = "start"
        sigma = 0.0
        parts = body.split(":")
        if len(parts) < 2:
            raise ConfigError(f"bad corruption scenario {text!r}")
        kind, modality = parts[0], parts[1]
        if modality.endswith("@entry"):
            modality = modality[: -len("@entry")]
            onset = "occlusion_entry"
        for extra in parts[2:]:
            if extra.startswith("sigma="):
                try:
                    sigma = float(extra.split("=", 1)[1])
                except ValueError:
                    raise ConfigError(f"bad sigma in {extra!r}") from None
            else:
                raise ConfigError(f"bad scenario option {extra!r}")
        return ScenarioSpec("corruption", onset=onset,
                            corruption=CorruptionMode(kind, modality, sigma_c=sigma))
    raise ConfigError(f"unknown scenario {text!r}")


def _cmd_gen_data(args) -> int:
    overrides = {"demos": args.n} if args.n is not None else {}
    cfg = _load_cfg(args, **overrides)
    out = args.out
    if out and out.endswith(".mcds"):
        path = pipeline.gen_data(cfg, out)
    else:
        if out:
            cfg = cfg.with_section("run", out=out)
        path = pipeline.gen_data(cfg)
    print(f"wrote {path}")
    return 0


def _cmd_train(args) -> int:
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.method:
        overrides["methods"] = tuple(m.strip() for m in args.method.split(","))
    cfg = _load_cfg(args, **overrides)
    written = pipeline.run_training(cfg)
    for method, path in written.items():
        print(f"{method}: {path}")
    return 0


def _cmd_compose(args) -> int:
    expert_paths = [p.strip() for p in args.experts.split(",") if p.strip()]
    try:
        weights = None if args.weights is None else [float(w) for w in args.weights.split(",")]
    except ValueError:
        raise ConfigError(f"--weights must be numbers, got {args.weights!r}") from None
    if not expert_paths or (weights is None) == (args.router is None):
        raise ConfigError("give --experts and exactly one of --weights or --router")
    policy, metas = pipeline.compose_checkpoints(expert_paths, router=args.router,
                                                 weights=weights, strategy=args.strategy)
    out = Path(args.out or "composed.txt")
    rel = lambda path: os.path.relpath(Path(path).resolve(), out.parent.resolve())
    write_manifest(out, env_name=metas[0]["env"], expert_paths=[rel(p) for p in expert_paths],
                   router_path=None if args.router is None else rel(args.router),
                   weights=weights, strategy=args.strategy, stats_hash=policy.stats.key())
    try:
        load_manifest(out)   # read-back check before success
    except ModalComposeError:
        out.unlink()
        raise
    print(f"wrote {out}")
    return 0


def _cmd_eval(args) -> int:
    run = _load_cfg(args).run
    n = args.n if args.n is not None else run.eval_n
    rows = run_eval(args.manifest, n, run.seed)
    out = args.out or "metrics.csv"
    write_metrics_csv(out, rows)
    for row in rows:
        print(f"{row['task']} {row['method']}: success {row['success_rate']:.3f} "
              f"mean steps {row['mean_steps']:.1f} params {row['param_count']}")
    print(f"wrote {out}")
    return 0


def _cmd_analyze(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    # --seed picks the probe episodes; the dataset (for sigma calibration)
    # stays whatever the config names
    cfg = load_config(args.config) if args.config else RunConfig()
    policy, _, env = pipeline._policy_from_path(args.manifest)
    dataset, _ = pipeline._load_dataset(cfg)
    sigmas = probe_sigmas(dataset, cfg.probe.sigma_scale)
    spec = make_env_spec(env)
    out = Path(args.out or "traces")
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.run.seed
    for ep in range(args.n):
        trace = perturb_importance(policy, spec, seed, cfg.probe, sigmas,
                                   episode=ep)
        trace.write_csv(out / f"trace_ep{ep}.csv")
    print(f"wrote {args.n} traces to {out}")
    return 0


def _cmd_robust(args) -> int:
    policy, label, env = pipeline._policy_from_path(args.manifest)
    method = "composed" if label == "manual" else label   # every manifest's rows say "composed"
    spec = make_env_spec(env)
    scenario = _parse_scenario(args.scenario)
    _check_scenario(scenario, spec)   # before the baseline's episodes
    seed = _load_cfg(args).run.seed
    rows = []
    for name, sc in (("none", None), (args.scenario, scenario)):
        rate, steps = robustness_eval(policy, spec, sc, args.n, seed)
        rows.append({"task": f"{spec.name}[{name}]", "method": method, "success_rate": rate,
                     "mean_steps": steps, "param_count": policy.n_params(), "seed": seed})
    out = args.out or "robust.csv"
    write_metrics_csv(out, rows)
    for row in rows:
        print(f"{row['task']}: success {row['success_rate']:.3f} "
              f"mean steps {row['mean_steps']:.1f}")
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        sizes = [int(s) for s in args.n.split(",")]
    except ValueError:
        raise ConfigError(f"--n must be comma-separated integers, got {args.n!r}") from None
    overrides = {"out": args.out} if args.out else {}
    cfg = _load_cfg(args, **overrides)
    rows = pipeline.sweep_dataset_size(cfg, sizes)
    out_dir = pipeline.ensure_out_dir(cfg)
    out = out_dir / f"sweep_metrics_seed{cfg.run.seed}.csv"
    write_metrics_csv(out, rows)
    for row in rows:
        print(f"{row['task']} {row['method']}: success {row['success_rate']:.3f}")
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "compose": _cmd_compose,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "robust": _cmd_robust,
    "sweep": _cmd_sweep,
}


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ModalComposeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
