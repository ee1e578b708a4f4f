"""Corruption, robustness-scenario, and importance-probing tests."""

import csv
import hashlib

import numpy as np
import pytest

from modalcompose import analysis as an
from modalcompose.envs import Observation, env_reset, make_env_spec
from modalcompose.errors import ConfigError, ContractError
from modalcompose.rngstream import TAG_EVAL, stream
from modalcompose.rollout import run_policy_episode
from modalcompose.runconfig import ProbeConfig


class RowsByAct:
    """act_rows as one act() per row, the probe's one-call sampling."""

    def act_rows(self, obs_rows, rngs):
        return np.array([self.act(obs, rng) for obs, rng in zip(obs_rows, rngs)])


class Follower(RowsByAct):
    """Deterministic obs-driven controller for occluded_reach.

    Heads for the box edge at the apparent target's height, drifts right once
    vision blanks, homes on touch. Mirrors the scripted demonstrator but sees
    only observations, so corruptions genuinely blind it.
    """

    def act(self, obs, rng):
        vis, tac = obs.modalities["vis"], obs.modalities["tac"]
        p = obs.robot_state
        if tac[0] == 1.0:
            d = tac[1:]
        elif vis[4] == 0.0:
            d = np.array([0.3, vis[3]]) - p
        else:
            d = np.array([0.08, 0.0])
        dist = np.linalg.norm(d)
        if dist < 1e-12:
            return np.zeros(2)
        return d / dist * min(1.0, dist / 0.08)


class VisOnly(RowsByAct):
    """Reacts to the vision vector alone; touch never enters the action."""

    def act(self, obs, rng):
        v = obs.modalities["vis"]
        return np.tanh(np.array([v[2] - v[0], v[3] - v[1]]))


class Spy:
    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def act(self, obs, rng):
        self.seen.append(obs.copy())
        return self.inner.act(obs, rng)


class NoisyFollower(Follower):
    """Follower plus a small draw from the action stream, so the pins also
    cover which stream each action comes from."""

    def act(self, obs, rng):
        return np.clip(super().act(obs, rng) + 0.05 * rng.standard_normal(2),
                       -1.0, 1.0)


class NoisyPhase(RowsByAct):
    """Heads for whichever phase_reach waypoint is still open, with a small
    draw from the action stream."""

    def act(self, obs, rng):
        wpa, wpb = obs.modalities["wpa"], obs.modalities["wpb"]
        d = wpb[1:] if wpa[0] == 1.0 else wpa[1:]
        dist = np.linalg.norm(d)
        step = d / dist * min(1.0, dist / 0.08) if dist > 1e-12 else np.zeros(2)
        return np.clip(step + 0.05 * rng.standard_normal(2), -1.0, 1.0)


def make_obs(rng):
    return Observation(
        modalities={"vis": rng.normal(size=5), "tac": rng.normal(size=3)},
        robot_state=rng.normal(size=2),
    )


# ---------------------------------------------------------------------------
# corruption modes


def test_corruption_mode_validation():
    with pytest.raises(ConfigError):
        an.CorruptionMode("invert", "vis")
    for bad in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match=f"got {bad}"):
            an.CorruptionMode("gaussian", "vis", sigma_c=bad)
    # zero and freeze ignore sigma_c; the pinned scenarios set it on every kind
    for kind in an.CORRUPTION_KINDS:
        assert an.CorruptionMode(kind, "vis", sigma_c=0.3).kind == kind


def test_zero_corruption_is_idempotent_and_local(rng):
    obs = make_obs(rng)
    mode = an.CorruptionMode("zero", "vis")
    once = an.corrupt_modality(obs, mode)
    assert np.array_equal(once.modalities["vis"], np.zeros(5))
    assert once.modalities["tac"].tobytes() == obs.modalities["tac"].tobytes()
    assert once.robot_state.tobytes() == obs.robot_state.tobytes()
    twice = an.corrupt_modality(once, mode)
    assert twice.modalities["vis"].tobytes() == once.modalities["vis"].tobytes()
    # the input observation is never mutated
    assert not np.array_equal(obs.modalities["vis"], np.zeros(5))


def test_freeze_corruption_holds_first_value(rng):
    mode = an.CorruptionMode("freeze", "tac")
    first = make_obs(rng)
    held = an.corrupt_modality(first, mode).modalities["tac"]
    assert held.tobytes() == first.modalities["tac"].tobytes()
    later = make_obs(rng)
    again = an.corrupt_modality(later, mode).modalities["tac"]
    assert again.tobytes() == held.tobytes()
    fresh = an.corrupt_modality(later, an.CorruptionMode("freeze", "tac")).modalities["tac"]
    assert fresh.tobytes() == later.modalities["tac"].tobytes()


def test_gaussian_corruption(rng):
    obs = make_obs(rng)
    mode = an.CorruptionMode("gaussian", "vis", sigma_c=0.5)
    with pytest.raises(ContractError):
        an.corrupt_modality(obs, mode)
    a = an.corrupt_modality(obs, mode, np.random.default_rng(1)).modalities["vis"]
    b = an.corrupt_modality(obs, mode, np.random.default_rng(1)).modalities["vis"]
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, obs.modalities["vis"])
    # sigma 0 is a no-op and needs no rng
    calm = an.CorruptionMode("gaussian", "vis", sigma_c=0.0)
    same = an.corrupt_modality(obs, calm).modalities["vis"]
    assert same.tobytes() == obs.modalities["vis"].tobytes()


def test_corrupt_unknown_modality(rng):
    obs = make_obs(rng)
    with pytest.raises(ContractError):
        an.corrupt_modality(obs, an.CorruptionMode("zero", "audio"))


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_spec_validation():
    with pytest.raises(ConfigError):
        an.ScenarioSpec(kind="earthquake")
    with pytest.raises(ConfigError):
        an.ScenarioSpec(kind="corruption")
    with pytest.raises(ConfigError):
        an.ScenarioSpec(kind="runtime_perturbation", step_star=-1)
    with pytest.raises(ConfigError):
        an.ScenarioSpec(kind="corruption",
                        corruption=an.CorruptionMode("zero", "vis"),
                        onset="halfway")


def test_robustness_eval_rejects_empty():
    spec = make_env_spec("occluded_reach")
    with pytest.raises(ContractError):
        an.robustness_eval(Follower(), spec, None, 0, seed=1)


def test_unknown_corruption_modality_is_refused_before_any_step():
    spec = make_env_spec("occluded_reach")
    scenario = an.ScenarioSpec(kind="corruption", corruption=an.CorruptionMode("zero", "vsi"))
    spy = Spy(Follower())
    with pytest.raises(ConfigError, match="'vsi'"):
        an.robustness_eval(spy, spec, scenario, 3, seed=1)
    assert spy.seen == []


def test_follower_baseline_and_touch_blackout():
    """The follower solves the task; zeroing touch from the start removes the
    only sensor able to close the final offset, so success drops to zero."""
    spec = make_env_spec("occluded_reach")
    rate, steps = an.robustness_eval(Follower(), spec, None, 12, seed=5)
    assert rate >= 0.9, rate
    assert steps < spec.t_max
    blind = an.ScenarioSpec(kind="corruption",
                            corruption=an.CorruptionMode("zero", "tac"))
    rate0, steps0 = an.robustness_eval(Follower(), spec, blind, 12, seed=5)
    assert rate0 == 0.0
    assert steps0 == spec.t_max


def test_corruption_onset_gates_first_observation():
    spec = make_env_spec("occluded_reach")
    for onset, zero_at_start in (("start", True), ("occlusion_entry", False)):
        spy = Spy(Follower())
        scenario = an.ScenarioSpec(kind="corruption",
                                   corruption=an.CorruptionMode("zero", "vis"),
                                   onset=onset)
        an.robustness_eval(spy, spec, scenario, 1, seed=3)
        first_vis = spy.seen[0].modalities["vis"]
        assert np.array_equal(first_vis, np.zeros(5)) == zero_at_start, onset


def test_freeze_state_is_per_episode_however_hooks_are_built():
    """Hooks built for several episodes before any runs (as lockstep
    rollouts build them) filter as hooks built one at a time do: under
    freeze corruption each episode holds its own first vector."""
    spec = make_env_spec("occluded_reach")
    scenario = an.ScenarioSpec(kind="corruption",
                               corruption=an.CorruptionMode("freeze", "vis"))
    starts = [env_reset(spec, stream(5, TAG_EVAL, ep)) for ep in range(3)]

    def seen(hooks, ep):
        state, obs = starts[ep]
        return hooks["obs_filter"](obs, state, 0).modalities["vis"].tobytes()

    one_at_a_time = [seen(an._scenario_hooks(scenario, spec, 5, ep), ep) for ep in range(3)]
    built = [an._scenario_hooks(scenario, spec, 5, ep) for ep in range(3)]
    up_front = [seen(built[ep], ep) for ep in range(3)]
    assert one_at_a_time == [obs.modalities["vis"].tobytes() for _, obs in starts]
    assert len(set(one_at_a_time)) == 3
    assert up_front == one_at_a_time


def test_unreached_perturbation_step_is_a_no_op():
    """The last step an episode can reach teleports nothing in episodes that
    succeed before it."""
    spec = make_env_spec("occluded_reach")
    base = an.robustness_eval(Follower(), spec, None, 8, seed=7)
    assert base[0] == 1.0
    never = an.ScenarioSpec(kind="runtime_perturbation", step_star=spec.t_max - 1)
    same = an.robustness_eval(Follower(), spec, never, 8, seed=7)
    assert same == base


@pytest.mark.parametrize("after_end", [0, 1, 100])
def test_teleport_step_no_episode_reaches_is_refused_before_any_step(after_end):
    spec = make_env_spec("occluded_reach")
    step = spec.t_max + after_end
    never = an.ScenarioSpec(kind="runtime_perturbation", step_star=step)
    spy = Spy(Follower())
    with pytest.raises(ConfigError, match=f"teleport step {step} "):
        an.robustness_eval(spy, spec, never, 3, seed=1)
    assert spy.seen == []


def test_perturbation_and_repositioning_change_trajectories():
    spec = make_env_spec("occluded_reach")
    base = an.robustness_eval(Follower(), spec, None, 20, seed=11)
    shove = an.ScenarioSpec(kind="runtime_perturbation", step_star=0)
    moved = an.robustness_eval(Follower(), spec, shove, 20, seed=11)
    assert moved != base
    # the env stays solvable under a teleport at step 0, the CLI's reposition
    assert moved[0] >= base[0] - 0.3


# ---------------------------------------------------------------------------
# EMA


def test_ema_oracle_sequence():
    out = an._ema(np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    assert np.allclose(out, [1.0, 0.9, 0.81, 0.729], atol=1e-15)


def test_ema_starts_at_first_sample(rng):
    raw = rng.random(6)
    out = an._ema(raw, 0.1)
    assert out[0] == raw[0]


# ---------------------------------------------------------------------------
# importance probing


def sigmas_for(spec, value=0.05):
    return {m: np.full(d, value) for m, d in spec.modality_dims().items()}


def test_probe_validation():
    spec = make_env_spec("occluded_reach")
    bad_cfg = ProbeConfig(modalities=("sonar",))
    with pytest.raises(ConfigError):
        an.perturb_importance(Follower(), spec, 1, bad_cfg, sigmas_for(spec))
    with pytest.raises(ContractError):
        an.perturb_importance(Follower(), spec, 1, ProbeConfig(), {"vis": np.ones(5)})


@pytest.mark.parametrize("bad", [np.ones(2), np.ones((1, 5)), np.full(5, np.nan),
                                 np.array([0.1, 0.1, np.inf, 0.1, 0.1]), -0.1,
                                 np.array([0.1, -0.1, 0.1, 0.1, 0.1]), None])
def test_probe_refuses_bad_sigmas(bad):
    """A sigma is a scalar or one scale per coordinate, finite and >= 0;
    anything else is refused before any step runs, not as a broadcast error
    mid-episode or a NaN importance."""
    spec = make_env_spec("occluded_reach")
    sigmas = dict(sigmas_for(spec), vis=bad)
    with pytest.raises(ContractError, match="sigma for modality 'vis'"):
        an.perturb_importance(Follower(), spec, 1, ProbeConfig(), sigmas)


def test_probe_takes_scalar_and_zero_sigmas():
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(Follower(), spec, 1, ProbeConfig(),
                                  dict(sigmas_for(spec), vis=0.0))
    assert trace.sigmas["vis"].shape == ()


@pytest.mark.parametrize("knobs", [dict(draws=0), dict(draws=-2), dict(ema_alpha=0.0),
                                   dict(ema_alpha=-0.1), dict(ema_alpha=1.5),
                                   dict(ema_alpha=float("nan"))])
def test_probe_rejects_knobs_outside_their_range(knobs):
    """draws = 0 would average nothing into NaN importance, and an EMA weight
    outside (0, 1] is no EMA; both are refused before any step runs."""
    spec = make_env_spec("occluded_reach")
    with pytest.raises(ConfigError):
        an.perturb_importance(Follower(), spec, 1, ProbeConfig(**knobs), sigmas_for(spec))


def test_probe_ema_alpha_one_is_the_raw_series():
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(Follower(), spec, 21, ProbeConfig(ema_alpha=1.0),
                                  sigmas_for(spec))
    for m in trace.modalities:
        assert trace.ema[m].tobytes() == trace.raw[m].tobytes()


def test_probing_never_disturbs_the_episode():
    """The driven trajectory matches a plain rollout of the same seed exactly."""
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(Follower(), spec, 21, ProbeConfig(),
                                  sigmas_for(spec))
    record = run_policy_episode(Follower(), spec, 21, 0)
    assert trace.success == record.success
    assert trace.steps == record.steps
    assert trace.positions.tobytes() == np.asarray(record.positions).tobytes()


class Counting:
    """A Follower that counts the calls of each sampling entry."""

    def __init__(self):
        self.inner = Follower()
        self.calls = {"act": 0, "act_rows": 0}

    def act(self, obs, rng):
        self.calls["act"] += 1
        return self.inner.act(obs, rng)

    def act_rows(self, obs_rows, rngs):
        self.calls["act_rows"] += 1
        return self.inner.act_rows(obs_rows, rngs)


def test_probe_drives_the_policy_and_samples_every_view_in_one_call():
    """The episode is a plain rollout of the policy itself (one act per step),
    and every perturbed view of every step is a row of one act_rows call."""
    spec = make_env_spec("occluded_reach")
    policy = Counting()
    trace = an.perturb_importance(policy, spec, 21, ProbeConfig(draws=2),
                                  sigmas_for(spec))
    assert policy.calls == {"act": trace.steps, "act_rows": 1}


def test_contact_comes_from_touch_alone():
    """phase_reach has no touch sensor, so it never reports contact, even once
    its first waypoint is visited; rollout and probe flag contact alike."""
    spec = make_env_spec("phase_reach")
    record = run_policy_episode(NoisyPhase(), spec, 13, 0)
    assert record.success and not any(record.in_contact)
    spec = make_env_spec("occluded_reach")
    record = run_policy_episode(Follower(), spec, 21, 0)
    trace = an.perturb_importance(Follower(), spec, 21, ProbeConfig(),
                                  sigmas_for(spec))
    assert any(record.in_contact)
    assert trace.in_contact.tolist() == record.in_contact


def test_probe_deterministic():
    spec = make_env_spec("occluded_reach")
    a = an.perturb_importance(Follower(), spec, 22, ProbeConfig(), sigmas_for(spec))
    b = an.perturb_importance(Follower(), spec, 22, ProbeConfig(), sigmas_for(spec))
    for m in a.modalities:
        assert a.raw[m].tobytes() == b.raw[m].tobytes()


def test_zero_sigma_gives_zero_importance():
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(Follower(), spec, 23, ProbeConfig(),
                                  sigmas_for(spec, 0.0))
    for m in trace.modalities:
        assert np.array_equal(trace.raw[m], np.zeros(trace.steps))
        assert np.array_equal(trace.ema[m], np.zeros(trace.steps))


def test_ignored_modality_has_zero_importance():
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(VisOnly(), spec, 24, ProbeConfig(),
                                  sigmas_for(spec))
    assert np.array_equal(trace.raw["tac"], np.zeros(trace.steps))
    assert trace.raw["vis"].max() > 0.0


def test_probe_respects_modality_filter():
    spec = make_env_spec("occluded_reach")
    cfg = ProbeConfig(modalities=("tac",))
    trace = an.perturb_importance(Follower(), spec, 25, cfg, sigmas_for(spec))
    assert trace.modalities == ("tac",)
    assert set(trace.raw) == {"tac"}


def test_multi_draw_probe_averages():
    spec = make_env_spec("occluded_reach")
    one = an.perturb_importance(Follower(), spec, 26, ProbeConfig(draws=1),
                                sigmas_for(spec))
    three = an.perturb_importance(Follower(), spec, 26, ProbeConfig(draws=3),
                                  sigmas_for(spec))
    assert one.steps == three.steps
    assert not np.array_equal(one.raw["vis"], three.raw["vis"])


def test_trace_rows_and_csv(tmp_path):
    spec = make_env_spec("occluded_reach")
    trace = an.perturb_importance(Follower(), spec, 27, ProbeConfig(),
                                  sigmas_for(spec))
    rows = list(trace.rows())
    assert len(rows) == trace.steps * len(trace.modalities)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["step", "modality", "raw_importance", "ema_importance"]
    assert len(read) == 1 + len(rows)
    assert read[1][0] == "0"


def test_probe_sigmas_scale(const_dataset):
    sig = an.probe_sigmas(const_dataset, 0.1)
    stds = const_dataset.modality_stds()
    for m in stds:
        assert np.allclose(sig[m], 0.1 * stds[m], atol=1e-15)


# ---------------------------------------------------------------------------
# pinned trajectories: every scenario kind, replayed bit for bit


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


PINNED_SCENARIOS = {
    "baseline": None,
    "repositioning": an.ScenarioSpec(kind="runtime_perturbation", step_star=0),
    "runtime_perturbation": an.ScenarioSpec(kind="runtime_perturbation", step_star=6),
    **{f"{kind}@{onset}": an.ScenarioSpec(
        kind="corruption", onset=onset,
        corruption=an.CorruptionMode(kind, "vis", sigma_c=0.3))
       for kind in an.CORRUPTION_KINDS for onset in an.ONSETS},
}


# (success rate, mean steps), robot-state digest, modality-reading digest
PINNED_SCENARIO_DIGESTS = {
    "occluded_reach:baseline":
        ((1.0, 18.75), "5c7c11052068feac", "f9c2dbc4418a2811"),
    "occluded_reach:repositioning":
        ((1.0, 19.25), "54415ad841da78ea", "d34ed4c72e9b96b1"),
    "occluded_reach:runtime_perturbation":
        ((1.0, 19.5), "5c7213b2e6ca72ab", "6cf3cb050a923839"),
    "occluded_reach:zero@start":
        ((0.0, 80.0), "29ae355fd2d00c40", "cc61635da46b2c99"),
    "occluded_reach:zero@occlusion_entry":
        ((0.0, 80.0), "52843f77dcb8a1d4", "c632fbb6348e5f39"),
    "occluded_reach:freeze@start":
        ((0.0, 80.0), "8cb18198fc030f80", "b16b34f1ba2f5be8"),
    "occluded_reach:freeze@occlusion_entry":
        ((1.0, 18.75), "5c7c11052068feac", "f882144343ca62f4"),
    "occluded_reach:gaussian@start":
        ((0.0, 80.0), "7864ec36d35a50e6", "07ed5bb390637ffd"),
    "occluded_reach:gaussian@occlusion_entry":
        ((1.0, 18.75), "5c7c11052068feac", "4375769d5397215c"),
    "phase_reach:baseline":
        ((1.0, 22.0), "b362d62d46e22d4f", "b8c487d4d85edb20"),
    "phase_reach:repositioning":
        ((1.0, 20.5), "9a707c8ec496084e", "4544ebd3abb60e57"),
    "phase_reach:runtime_perturbation":
        ((1.0, 20.5), "3c2aefcca6c0a613", "3eb48505ed0e3376"),
}

# success, steps, then digests of positions, raw and EMA importance, and the
# in-box and contact flags
PINNED_PROBE_DIGESTS = {
    "occluded_reach": (True, 23, "125c93135b1ee6d3", "7927f39374f3fa57",
                       "02aede2ad4e20831", "22fb629b6b2c3e65"),
    "phase_reach": (True, 23, "53be9f5c794b2706", "abb9d6c7b9a80f39",
                    "7987759a5f8c00f5", "37c2200b1a1bf14e"),
}


def test_scenario_trajectories_are_pinned():
    """Success, mean steps and a hash of every observation the policy saw
    (robot state and modality readings), per scenario kind."""
    runs = [("occluded_reach", name, NoisyFollower) for name in PINNED_SCENARIOS]
    runs += [("phase_reach", name, NoisyPhase)
             for name in ("baseline", "repositioning", "runtime_perturbation")]
    got = {}
    for env, name, policy in runs:
        spy = Spy(policy())
        result = an.robustness_eval(spy, make_env_spec(env), PINNED_SCENARIOS[name],
                                    4, seed=13)
        got[f"{env}:{name}"] = (
            result, _digest(o.robot_state for o in spy.seen),
            _digest(v for o in spy.seen for v in o.modalities.values()))
    assert got == PINNED_SCENARIO_DIGESTS


def test_probe_trajectories_are_pinned():
    got = {}
    for env, policy in (("occluded_reach", NoisyFollower()), ("phase_reach", NoisyPhase())):
        spec = make_env_spec(env)
        trace = an.perturb_importance(policy, spec, 17, ProbeConfig(draws=2),
                                      sigmas_for(spec), episode=1)
        got[env] = (trace.success, trace.steps, _digest([trace.positions]),
                    _digest(trace.raw.values()), _digest(trace.ema.values()),
                    _digest([trace.in_box, trace.in_contact]))
    assert got == PINNED_PROBE_DIGESTS
