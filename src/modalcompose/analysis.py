"""Modality-importance probing, sensor corruption, and robustness scenarios.

Importance of a modality at a step is the normalized L2 distance between the
action the policy would have taken with that modality perturbed and the action
it actually took, with the same sampling randomness for both. Probing never
drives the environment with a perturbed action.

Nothing here steps an environment itself: a scenario is a set of hooks on
``rollout.run_policy_episode`` (a state edit for the teleport perturbation,
an observation filter for corruption), scored by
``rollout.evaluate_policy``. The probe rolls a plain episode with the policy
itself, then samples every perturbed view of its recorded observations in one
``act_rows`` call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .envs import EnvSpec, Observation, teleport_target, _in_box
from .errors import ConfigError, ContractError
from .rngstream import TAG_ACT, TAG_PROBE, TAG_SCENARIO, stream
from .rollout import evaluate_policy, run_policy_episode
from .runconfig import ProbeConfig

CORRUPTION_KINDS = ("zero", "freeze", "gaussian")
SCENARIO_KINDS = ("runtime_perturbation", "corruption")
ONSETS = ("start", "occlusion_entry")


class CorruptionMode:
    """One corruption applied to a named modality.

    kind: zero | freeze | gaussian. Freeze holds the modality at its value
    from the first corrupted step, so the mode carries per-episode state:
    each episode needs a mode of its own.
    """

    def __init__(self, kind: str, modality: str, sigma_c: float = 0.0):
        if kind not in CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption kind {kind!r}")
        if kind == "gaussian" and not (np.isfinite(sigma_c) and sigma_c >= 0):
            raise ConfigError(f"gaussian corruption needs a finite sigma_c >= 0, got {sigma_c}")
        self.kind = kind
        self.modality = modality
        self.sigma_c = float(sigma_c)
        self._held = None

    def __repr__(self):
        extra = f", sigma_c={self.sigma_c}" if self.kind == "gaussian" else ""
        return f"CorruptionMode({self.kind!r}, {self.modality!r}{extra})"


def corrupt_modality(obs: Observation, mode: CorruptionMode, rng=None) -> Observation:
    """Return a copy of obs with one modality corrupted.

    Gaussian corruption draws from rng; zero and freeze ignore it. Zero is
    idempotent. Freeze returns the vector captured on the mode's first call.
    """
    if mode.modality not in obs.modalities:
        raise ContractError(f"modality {mode.modality!r} not in observation")
    out = obs.copy()
    vec = out.modalities[mode.modality]
    if mode.kind == "zero":
        out.modalities[mode.modality] = np.zeros_like(vec)
    elif mode.kind == "freeze":
        if mode._held is None:
            mode._held = vec.copy()
        out.modalities[mode.modality] = mode._held.copy()
    else:
        if mode.sigma_c > 0.0:
            if rng is None:
                raise ContractError("gaussian corruption requires an rng")
            out.modalities[mode.modality] = vec + rng.normal(0.0, mode.sigma_c, size=vec.shape)
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """A robustness scenario.

    runtime_perturbation: at step step_star the target teleports to a fresh
    draw from the reset distribution; at step 0 (the CLI's ``reposition``)
    eval placements differ from the seeded baseline before the first action.
    corruption: the given CorruptionMode is applied to every observation the
    policy sees, starting immediately or at first occlusion-region entry.
    """

    kind: str
    step_star: int = 0
    corruption: CorruptionMode | None = None
    onset: str = "start"

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.onset not in ONSETS:
            raise ConfigError(f"unknown corruption onset {self.onset!r}")
        if self.kind == "corruption" and self.corruption is None:
            raise ConfigError("corruption scenario needs a CorruptionMode")
        if self.kind == "runtime_perturbation" and self.step_star < 0:
            raise ConfigError("step_star must be >= 0")


def _check_scenario(scenario: ScenarioSpec | None, spec: EnvSpec) -> None:
    """Refuse a scenario the env cannot run, before any episode of it."""
    if scenario is not None and scenario.kind == "runtime_perturbation" and (
            scenario.step_star >= spec.t_max):
        raise ConfigError(f"teleport step {scenario.step_star} is never reached: "
                          f"{spec.name} episodes run steps 0..{spec.t_max - 1}")
    if scenario is not None and scenario.kind == "corruption":
        dims = spec.modality_dims()
        if scenario.corruption.modality not in dims:
            raise ConfigError(f"corruption modality {scenario.corruption.modality!r} is "
                              f"not one of {spec.name}'s modalities {list(dims)}")
        if scenario.onset == "occlusion_entry" and spec.name != "occluded_reach":
            raise ConfigError(f"corruption at occlusion entry needs an occlusion region, "
                              f"and {spec.name} has none")


def _scenario_hooks(scenario: ScenarioSpec | None, spec: EnvSpec, seed: int,
                    ep: int) -> dict:
    """Episode ep's run_policy_episode hooks for a scenario (None: none)."""
    if scenario is None:
        return {}
    if scenario.kind != "corruption":
        def teleport(state):
            if state.t != scenario.step_star:
                return state
            return teleport_target(state, stream(seed, TAG_SCENARIO, ep))

        return {"edit": teleport}
    c = scenario.corruption
    mode = CorruptionMode(c.kind, c.modality, c.sigma_c)
    entered = False

    def corrupt(obs, state, t):
        nonlocal entered
        entered = entered or _in_box(spec, state.p)
        if scenario.onset == "start" or entered:   # only gaussian noise draws
            rng = stream(seed, TAG_SCENARIO, ep, t) if mode.kind == "gaussian" else None
            return corrupt_modality(obs, mode, rng)
        return obs

    return {"obs_filter": corrupt}


def robustness_eval(policy, spec: EnvSpec, scenario: ScenarioSpec | None,
                    n_episodes: int, seed: int) -> tuple[float, float]:
    """Success rate and mean completion steps under a scenario.

    Failed episodes run to T_max, so they contribute T_max steps to the mean
    (timeout convention). scenario=None gives the uncorrupted paired baseline.
    """
    _check_scenario(scenario, spec)
    return evaluate_policy(policy, spec, seed, n_episodes,
                           hooks=lambda ep: _scenario_hooks(scenario, spec, seed, ep))


@dataclass
class ImportanceTrace:
    """Per-modality importance series over one driven episode."""

    modalities: tuple[str, ...]
    sigmas: dict[str, np.ndarray]
    raw: dict[str, np.ndarray]
    ema: dict[str, np.ndarray]
    success: bool
    steps: int
    in_box: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    in_contact: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def rows(self):
        for t in range(self.steps):
            for m in self.modalities:
                yield t, m, float(self.raw[m][t]), float(self.ema[m][t])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "modality", "raw_importance", "ema_importance"])
            for row in self.rows():
                w.writerow([row[0], row[1], f"{row[2]:.10g}", f"{row[3]:.10g}"])


def _ema(raw: np.ndarray, alpha: float) -> np.ndarray:
    out = np.empty_like(raw)
    out[0] = raw[0]
    for t in range(1, raw.size):
        out[t] = alpha * raw[t] + (1.0 - alpha) * out[t - 1]
    return out


def perturb_importance(policy, spec: EnvSpec, episode_seed: int,
                       cfg: ProbeConfig, sigmas: dict[str, np.ndarray],
                       episode: int = 0) -> ImportanceTrace:
    """Roll one unperturbed episode, probing modality importance at each step.

    At step t and modality i, the action is recomputed with m_i + delta,
    delta ~ N(0, sigma_i^2), under the same sampling stream the driving action
    used; importance is ||a_pert - a_orig|| / (||a_orig|| + 1e-8), averaged
    over cfg.draws, then EMA-smoothed with cfg.ema_alpha. sigmas are
    per-coordinate scales, conventionally cfg.sigma_scale x training std.
    Every perturbed view of the recorded episode is a row of one
    ``policy.act_rows`` call, each on its own generator of its step's stream.
    """
    dims = spec.modality_dims()
    probed = cfg.modalities if cfg.modalities else tuple(dims)
    for m in probed:
        if m not in dims:
            raise ConfigError(f"unknown modality {m!r} in probe config")
        if m not in sigmas:
            raise ContractError(f"no sigma provided for modality {m!r}")
    scales = {m: np.asarray(sigmas[m], dtype=np.float64) for m in probed}
    for m, s in scales.items():
        if s.shape not in ((), (dims[m],)) or not np.all(np.isfinite(s) & (s >= 0.0)):
            raise ContractError(f"sigma for modality {m!r} must be a scalar or of "
                                f"shape ({dims[m]},), finite and >= 0, got {sigmas[m]!r}")
    rec = run_policy_episode(policy, spec, episode_seed, episode)
    rows, rngs = [], []
    for t, seen in enumerate(rec.observations):
        for idx, m in enumerate(probed):
            for d in range(cfg.draws):
                rows.append(seen.copy())
                rows[-1].modalities[m] += stream(episode_seed, TAG_PROBE, episode, t, idx,
                                                 d).normal(0.0, 1.0, size=dims[m]) * scales[m]
                rngs.append(stream(episode_seed, TAG_ACT, episode, t))
    acts = policy.act_rows(rows, rngs).reshape(rec.steps, len(probed), cfg.draws, -1)
    raw = {m: np.empty(rec.steps) for m in probed}
    for t, a in enumerate(rec.actions):
        denom = float(np.linalg.norm(a)) + 1e-8
        for idx, m in enumerate(probed):
            raw[m][t] = np.mean([float(np.linalg.norm(p - a)) / denom for p in acts[t, idx]])
    return ImportanceTrace(
        modalities=tuple(probed),
        sigmas=scales,
        raw=raw,
        ema={m: _ema(v, cfg.ema_alpha) for m, v in raw.items()},
        success=rec.success,
        steps=rec.steps,
        in_box=np.asarray(rec.in_box, dtype=bool),
        in_contact=np.asarray(rec.in_contact, dtype=bool),
        positions=np.asarray(rec.positions),
    )


def probe_sigmas(dataset, scale: float) -> dict[str, np.ndarray]:
    """Per-modality probe scales: scale x per-coordinate training std."""
    return {m: scale * s for m, s in dataset.modality_stds().items()}
