"""The episode driver: the one loop that steps a policy through an episode,
and the success-rate aggregate over many of them.

Seeding convention: within one evaluation run identified by `eval_seed`,
episode `ep` resets from stream(eval_seed, TAG_EVAL, ep) and the action at
step t draws from stream(eval_seed, TAG_ACT, ep, t).  Any code that recreates
these streams replays the exact same episode.

Robustness scenarios are hooks on this loop, each optional and built per
episode:

- ``edit(state) -> EnvState`` runs after reset and before every step; a
  returned state that is not the given one is observed afresh (the teleport
  perturbation);
- ``obs_filter(obs, state, t) -> Observation`` rewrites the view the policy
  gets (sensor corruption); the environment and the contact flag keep the
  true observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import EnvSpec, Observation, env_reset, env_step, observe, _in_box
from .errors import ContractError
from .rngstream import TAG_ACT, TAG_EVAL, stream


@dataclass
class RolloutRecord:
    """Full trace of one driven episode."""

    success: bool
    steps: int
    observations: list[Observation] = field(default_factory=list)
    actions: list[np.ndarray] = field(default_factory=list)
    positions: list[np.ndarray] = field(default_factory=list)
    in_box: list[bool] = field(default_factory=list)
    in_contact: list[bool] = field(default_factory=list)


def run_policy_episode(policy, spec: EnvSpec, eval_seed: int, ep: int, *,
                       edit=None, obs_filter=None) -> RolloutRecord:
    """Roll one episode with the hooks described in the module docstring."""
    state, obs = env_reset(spec, stream(eval_seed, TAG_EVAL, ep))
    rec = RolloutRecord(success=False, steps=0)
    while not state.done:
        if edit is not None:
            edited = edit(state)
            if edited is not state:
                state, obs = edited, observe(edited)
        seen = obs if obs_filter is None else obs_filter(obs, state, state.t)
        rec.observations.append(seen)
        rec.positions.append(state.p.copy())
        rec.in_box.append(_in_box(spec, state.p))
        # contact is what touch reports; an env without touch never has it
        rec.in_contact.append(bool("tac" in obs.modalities
                                   and obs.modalities["tac"][0] == 1.0))
        action = policy.act(seen, stream(eval_seed, TAG_ACT, ep, state.t))
        rec.actions.append(action)
        state, obs, _, _ = env_step(state, action[: spec.action_dim])
    rec.success = bool(state.success)
    rec.steps = state.t
    return rec


def evaluate_policy(policy, spec: EnvSpec, eval_seed: int, n_episodes: int,
                    hooks=None) -> tuple[float, float]:
    """Success rate and mean steps over n episodes (failures count t at done,
    which is T_max). hooks(ep) gives episode ep's run_policy_episode hooks as
    keyword arguments."""
    if n_episodes <= 0:
        raise ContractError("n_episodes must be positive")
    wins = 0
    steps = []
    for ep in range(n_episodes):
        rec = run_policy_episode(policy, spec, eval_seed, ep,
                                 **(hooks(ep) if hooks is not None else {}))
        wins += rec.success
        steps.append(rec.steps)
    return wins / n_episodes, float(np.mean(steps))
