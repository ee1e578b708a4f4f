"""Training/evaluation orchestration shared by the CLI and tests.

Artifacts land in an output directory: dataset (.mcds), checkpoints (.mcpf),
loss-history CSVs, composed-policy manifests (.txt), metrics CSVs. Everything
is a pure function of (config, seed), so reruns are byte-identical.
Checkpoint files become a composed policy, and are judged fit to compose,
only in ``compose_checkpoints``: manifests, ``compose``, an expert checkpoint
(the one-expert composition) and the sweep all load through it, by the
facts they hold, not by the runs that made them.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import checkpoint as cp
from .compose import ComposedPolicy, manual_weights, train_concat_policy, train_moe_policy
from .envs import Dataset, generate_dataset, make_env_spec, read_file
from .errors import ConfigError, ContractError, FormatError
from .experts import train_expert
from .rollout import evaluate_policy
from .router import train_router
from .rngstream import TAG_TRAIN, stream
from .runconfig import RunConfig, model_hash

# fixed training-stream labels; expert i uses 1 + i, shared routers/baselines
# use labels no expert index can reach
_ROUTER_LABEL = 1000
_CONCAT_LABEL = 1001
_MOE_LABEL = 1002


def default_dataset_path(cfg: RunConfig, out_dir: Path) -> Path:
    return out_dir / f"{cfg.env.name}_n{cfg.run.demos}_seed{cfg.run.seed}.mcds"


def ensure_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def gen_data(cfg: RunConfig, path: Path | None = None) -> Path:
    """Generate the demonstration dataset for cfg and write it to disk."""
    out = ensure_out_dir(cfg)
    path = Path(path) if path else default_dataset_path(cfg, out)
    spec = make_env_spec(cfg.env.name)
    generate_dataset(spec, cfg.run.demos, seed=cfg.run.seed, path=path,
                     horizon=cfg.diffusion.horizon)
    return path


def _load_dataset(cfg: RunConfig) -> tuple[Dataset, Path]:
    out = ensure_out_dir(cfg)
    path = Path(cfg.run.dataset) if cfg.run.dataset else default_dataset_path(cfg, out)
    if not path.exists():
        raise ConfigError(
            f"dataset not found: {path} (run gen-data first or set [run] dataset)")
    return Dataset.read(path), path


def _normalize_methods(cfg: RunConfig, dataset: Dataset) -> list[str]:
    mods = list(dataset.modality_dims)
    if not cfg.run.methods:
        return [f"expert:{m}" for m in mods] + ["router", "concat", "moe"]
    out = []
    for method in cfg.run.methods:
        if method.startswith("expert:"):
            mod = method.split(":", 1)[1]
            if mod not in dataset.modality_dims:
                raise ConfigError(f"unknown modality in method {method!r} "
                                  f"(dataset has {mods})")
        elif method not in ("router", "concat", "moe"):
            raise ConfigError(f"unknown method {method!r}; expected "
                              f"expert:<modality>, router, concat, or moe")
        if method in out:
            raise ConfigError(f"duplicate method {method!r}")
        out.append(method)
    return out


def _method_filename(method: str, seed: int) -> str:
    return f"{method.replace(':', '-')}_seed{seed}.mcpf"


def _write_loss_csv(path: Path, history: list[float]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "loss"])
        for i, loss in enumerate(history):
            w.writerow([i, f"{loss:.10g}"])


def run_training(cfg: RunConfig) -> dict[str, Path]:
    """Train the configured methods; write checkpoints and loss CSVs.

    Experts needed by 'router' are trained on demand even when not listed.
    Returns {method: checkpoint path}.
    """
    dataset, path = _load_dataset(cfg)
    spec = make_env_spec(cfg.env.name)
    have = (dataset.env_name, dataset.horizon, list(dataset.modality_dims.items()),
            dataset.robot_dim, dataset.action_dim)
    want = (spec.name, cfg.diffusion.horizon, list(spec.modality_dims().items()),
            spec.robot_dim, spec.action_dim)
    if have != want:
        raise ConfigError(f"dataset {path} holds (env, horizon, modality widths, robot "
                          f"width, action width) {have}; the config asks for {want}")
    methods = _normalize_methods(cfg, dataset)
    out = ensure_out_dir(cfg)
    seed = cfg.run.seed
    mhash = model_hash(cfg)
    sched = cfg.diffusion.schedule()
    stats = dataset.stats()
    mods = list(dataset.modality_dims)

    experts_cache: dict[str, object] = {}

    def expert_for(mod: str):
        if mod not in experts_cache:
            rng = stream(seed, TAG_TRAIN, 1 + mods.index(mod))
            experts_cache[mod] = train_expert(dataset, mod, cfg, rng)
        return experts_cache[mod]

    written: dict[str, Path] = {}
    # the router trains first: in joint mode it fine-tunes the experts in
    # place, and those fine-tuned experts are the ones to write
    for method in sorted(methods, key=lambda m: m != "router"):
        path = out / _method_filename(method, seed)
        if method.startswith("expert:"):
            mod = method.split(":", 1)[1]
            ex = expert_for(mod)
            cp.save_expert(ex, stats, sched, path, env_name=cfg.env.name,
                           seed=seed, config_hash=mhash)
            history = ex.loss_history
        elif method == "router":
            experts = [expert_for(m) for m in mods]
            router = train_router(experts, dataset, cfg,
                                  stream(seed, TAG_TRAIN, _ROUTER_LABEL))
            cp.save_router(router, stats, sched, path, env_name=cfg.env.name,
                           seed=seed, config_hash=mhash)
            history = router.loss_history
        else:   # trainers looked up by name here, so a wrapper of the module attribute runs
            train, label = ((train_concat_policy, _CONCAT_LABEL) if method == "concat"
                            else (train_moe_policy, _MOE_LABEL))
            policy = train(dataset, cfg, stream(seed, TAG_TRAIN, label))
            cp.save_fusion(policy, path, env_name=cfg.env.name, seed=seed,
                           config_hash=mhash)
            history = policy.loss_history
        _write_loss_csv(out / f"loss_{method.replace(':', '-')}_seed{seed}.csv",
                        history)
        written[method] = path
    return {method: written[method] for method in methods}


# ---------------------------------------------------------------------------
# composed-policy manifests


def write_manifest(path, *, env_name: str, expert_paths: list[str],
                   router_path: str | None = None, weights=None,
                   strategy: str = "soft", stats_hash: str = "") -> None:
    """Write the lines given, for a policy ``compose_checkpoints`` has built
    from them; ``load_manifest`` refuses any other weighting or strategy."""
    lines = ["# composed-policy manifest", f"env = {env_name}",
             f"strategy = {strategy}", f"stats_hash = {stats_hash}"]
    for p in expert_paths:
        lines.append(f"expert = {p}")
    if router_path is not None:
        lines.append(f"router = {router_path}")
    if weights is not None:
        lines.append("weights = " + ",".join(repr(float(w)) for w in weights))
    Path(path).write_text("\n".join(lines) + "\n")


_MANIFEST_KEYS = ("env", "strategy", "stats_hash", "expert", "router", "weights")


def compose_checkpoints(experts, *, router=None, weights=None,
                        strategy: str = "soft") -> tuple[ComposedPolicy, list[dict]]:
    """The one way checkpoints, as paths or loaded ``Checkpoint``s, become a
    composed policy: refuse a set ``check_compose_compatibility`` refuses, and
    weight the experts by the router or by fixed weights. Returns the policy
    and the checkpoints' metadata, experts first."""
    if not experts:
        raise ContractError("compose needs at least one expert checkpoint")
    given = list(experts) + ([] if router is None else [router])
    loaded = [ck if isinstance(ck, cp.Checkpoint) else cp.load_checkpoint(ck) for ck in given]
    metas = [ck.metadata for ck in loaded]
    parts = [cp.expert_from_checkpoint(ck) for ck in loaded[:len(experts)]]
    cp.check_compose_compatibility(metas)
    if weights is not None and router is None:   # beside a router, refused as given
        weights = manual_weights(weights, len(experts))
    return ComposedPolicy(
        experts=[ex for ex, _, _ in parts], stats=parts[0][1], sched=parts[0][2],
        router=None if router is None else cp.router_from_checkpoint(loaded[-1]),
        fixed_w=weights, strategy=strategy), metas


def load_manifest(path) -> tuple[ComposedPolicy, dict]:
    """Rebuild a composed policy from its manifest.

    Checkpoint paths are resolved relative to the manifest's directory and
    cross-checked for compatibility (env, stats, schedule, sigma_mode).
    """
    p = Path(path)
    try:
        text = read_file(p, "manifest").decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{p}: a manifest is UTF-8 text") from None
    fields = {"expert": []}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{p}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _MANIFEST_KEYS:
            raise FormatError(f"{p}:{lineno}: unknown key {key!r}")
        if key == "expert":
            fields["expert"].append(value)
        elif key in fields:
            raise FormatError(f"{p}:{lineno}: repeated key {key!r}")
        else:
            fields[key] = value
    if not fields["expert"]:
        raise FormatError(f"{p}: no expert checkpoints listed")
    if "router" in fields and "weights" in fields:
        raise FormatError(f"{p}: manifest lists both router and weights")
    if "router" not in fields and "weights" not in fields:
        raise FormatError(f"{p}: manifest lists neither router nor weights")
    try:
        weights = [float(x) for x in fields["weights"].split(",")] if "weights" in fields else None
    except ValueError:
        raise FormatError(f"{p}: weights must be numbers, got {fields['weights']!r}") from None
    base = p.parent
    try:   # the policy refuses an unknown strategy, a setting no manifest line may hold
        policy, metas = compose_checkpoints(
            [base / e for e in fields["expert"]], weights=weights,
            strategy=fields.get("strategy", "soft"),
            router=base / fields["router"] if "router" in fields else None)
    except ConfigError as exc:
        raise FormatError(f"{p}: {exc}") from None
    want = fields.get("stats_hash", "")
    if want and want != policy.stats.key():
        raise ContractError(f"{p}: normalization stats hash mismatch "
                            f"({want} != {policy.stats.key()})")
    env = fields.get("env", metas[0]["env"])
    if env != metas[0]["env"]:
        raise FormatError(f"{p}: env {env!r} is not its checkpoints' env "
                          f"{metas[0]['env']!r}")
    return policy, {"env": env, "strategy": policy.strategy, "metas": metas}


# ---------------------------------------------------------------------------
# evaluation


class RandomPolicy:
    """Uniform random actions in [-1, 1]; the Monte-Carlo floor."""

    def __init__(self, action_dim: int):
        self.action_dim = action_dim

    def n_params(self) -> int:
        return 0

    def act_rows(self, obs_rows, rngs) -> np.ndarray:
        return np.array([g.uniform(-1.0, 1.0, size=self.action_dim) for g in rngs])

    def act(self, obs, rng) -> np.ndarray:
        return self.act_rows([obs], [rng])[0]


def _policy_from_path(path) -> tuple[object, str, str]:
    """(policy, method label, env name) of a manifest or checkpoint path."""
    if read_file(path, "policy file").startswith(cp.MAGIC):
        ck = cp.load_checkpoint(path)
        kind = ck.metadata.get("kind")
        if kind == "expert":   # the one-expert composition
            policy, metas = compose_checkpoints([ck], weights=[1.0])
            return policy, f"expert:{policy.modality_order[0]}", metas[0]["env"]
        if kind in ("concat", "moe"):
            return cp.fusion_from_checkpoint(ck), kind, ck.metadata["env"]
        raise FormatError(f"{path}: cannot evaluate a {kind!r} checkpoint directly")
    policy, meta = load_manifest(path)
    label = "composed" if policy.router is not None else "manual"
    return policy, label, meta["env"]


def run_eval(target, n: int, seed: int, env_name: str | None = None,
             method: str | None = None) -> list[dict]:
    """Evaluate a policy target over n seeded episodes.

    target: manifest path or checkpoint path, which names its env and label,
    or a policy object, which needs env_name and method. Returns metrics
    rows. Failures naturally end at T_max steps, matching the timeout
    convention for mean_steps.
    """
    if n <= 0:
        raise ContractError("n must be positive")
    if isinstance(target, (str, Path)):
        policy, label, env = _policy_from_path(target)
    elif env_name is None or method is None:
        raise ContractError("policy objects need env_name and method labels")
    else:
        policy, label, env = target, method, env_name
    spec = make_env_spec(env)
    rate, mean_steps = evaluate_policy(policy, spec, seed, n)
    return [{"task": spec.name, "method": label, "success_rate": rate,
             "mean_steps": mean_steps, "param_count": policy.n_params(),
             "seed": seed}]


METRICS_COLUMNS = ("task", "method", "success_rate", "mean_steps",
                   "param_count", "seed")


def write_metrics_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        for row in rows:
            w.writerow([row["task"], row["method"],
                        f"{row['success_rate']:.4f}", f"{row['mean_steps']:.2f}",
                        row["param_count"], row["seed"]])


# ---------------------------------------------------------------------------
# dataset-size sweep


def sweep_dataset_size(cfg: RunConfig, sizes: list[int]) -> list[dict]:
    """Train composed + concat at each dataset size, each size's dataset,
    checkpoints and loss CSVs in ``<out>/sweep_n<size>/``; two metrics rows
    per size."""
    if not sizes:
        raise ConfigError("sweep needs at least one size")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"duplicate size in sweep list {sizes}")
    if sorted(sizes) != list(sizes):
        raise ConfigError(f"sweep sizes must be ascending, got {sizes}")
    out = ensure_out_dir(cfg)
    mods = list(make_env_spec(cfg.env.name).modality_dims())
    rows = []
    for size in sizes:
        sub = cfg.with_section("run", demos=size, dataset="", out=str(out / f"sweep_n{size}"),
                               methods=tuple(f"expert:{m}" for m in mods) + ("router", "concat"))
        gen_data(sub)
        paths = run_training(sub)
        composed, _ = compose_checkpoints([paths[f"expert:{m}"] for m in mods],
                                          router=paths["router"], strategy=cfg.run.strategy)
        concat = cp.fusion_from_checkpoint(cp.load_checkpoint(paths["concat"]))
        for label, pol in (("composed", composed), ("concat", concat)):
            row = run_eval(pol, cfg.run.eval_n, cfg.run.seed,
                           env_name=cfg.env.name, method=label)[0]
            row["task"] = f"{cfg.env.name}@{size}"
            rows.append(row)
    return rows
