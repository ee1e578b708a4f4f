"""Environment, demonstrator, and dataset-format tests."""

import struct

import numpy as np
import pytest

from modalcompose import envs
from modalcompose.errors import ConfigError, ContractError, FormatError


# ---------------------------------------------------------------------------
# specs and reset geometry


def test_make_env_spec():
    occ = envs.make_env_spec("occluded_reach")
    assert occ.modality_dims() == {"vis": 5, "tac": 3}
    assert occ.robot_dim == 2 and occ.action_dim == 2
    ph = envs.make_env_spec("phase_reach")
    assert ph.modality_dims() == {"wpa": 3, "wpb": 3}
    with pytest.raises(ConfigError):
        envs.make_env_spec("cartpole")


def test_reset_geometry_occluded():
    """Agent starts in the left third; both target points stay inside the
    occlusion box with clearance; the calibration offset magnitude sits
    strictly between the success and contact radii."""
    spec = envs.make_env_spec("occluded_reach")
    rng = np.random.default_rng(0)
    for _ in range(300):
        state, obs = envs.env_reset(spec, rng)
        assert -1.0 <= state.p[0] <= -1.0 / 3.0
        assert -1.0 <= state.p[1] <= 1.0
        for point in (state.q, state.q_vis):
            assert spec.box_x[0] <= point[0] <= spec.box_x[1]
            assert spec.box_y[0] <= point[1] <= spec.box_y[1]
        off = state.q - state.q_vis
        assert abs(off[0]) <= spec.off_x
        assert spec.off_y_lo <= abs(off[1]) <= spec.off_y_hi
        assert spec.r_s < np.linalg.norm(off) < spec.r_c


def test_reset_geometry_phase():
    spec = envs.make_env_spec("phase_reach")
    rng = np.random.default_rng(1)
    for _ in range(100):
        state, _ = envs.env_reset(spec, rng)
        assert -0.9 <= state.p[0] <= -0.3
        assert -0.2 <= state.w1[0] <= 0.2
        assert 0.4 <= state.q[0] <= 0.8
        assert not state.visited1


# ---------------------------------------------------------------------------
# observations


def test_observe_occluded_outside_box(rng):
    spec = envs.make_env_spec("occluded_reach")
    state, obs = envs.env_reset(spec, np.random.default_rng(2))
    vis, tac = obs.modalities["vis"], obs.modalities["tac"]
    # far from the box at reset: apparent target visible, flag clear
    assert vis[4] == 0.0
    assert np.array_equal(vis[2:4], state.q_vis)
    # position read is noisy but unbiased around p at sigma_vis scale
    assert np.linalg.norm(vis[:2] - state.p) < 5 * spec.sigma_vis
    assert np.array_equal(tac, np.zeros(3))
    assert np.array_equal(obs.robot_state, state.p)


def test_observe_is_pure_and_time_keyed():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(3))
    a = envs.observe(state)
    b = envs.observe(state)
    assert a.modalities["vis"].tobytes() == b.modalities["vis"].tobytes()
    from dataclasses import replace
    later = replace(state, t=state.t + 1)
    c = envs.observe(later)
    assert c.modalities["vis"][:2].tobytes() != a.modalities["vis"][:2].tobytes()


def test_observe_occlusion_blanks_target():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(4))
    from dataclasses import replace
    inside = replace(state, p=np.array([0.6, 0.0]))
    vis = envs.observe(inside).modalities["vis"]
    assert vis[4] == 1.0
    assert vis[2] == 0.0 and vis[3] == 0.0


def test_observe_touch_within_contact():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(5))
    from dataclasses import replace
    near = replace(state, p=state.q - np.array([0.1, 0.0]))
    tac = envs.observe(near).modalities["tac"]
    assert tac[0] == 1.0
    assert np.allclose(tac[1:], [0.1, 0.0], atol=1e-12)


def test_observe_phase_waypoint_views():
    spec = envs.make_env_spec("phase_reach")
    state, obs = envs.env_reset(spec, np.random.default_rng(6))
    wpa, wpb = obs.modalities["wpa"], obs.modalities["wpb"]
    assert wpa[0] == 0.0 and wpb[0] == 0.0
    assert np.allclose(wpa[1:], state.w1 - state.p, atol=1e-15)
    assert np.allclose(wpb[1:], state.q - state.p, atol=1e-15)
    from dataclasses import replace
    done1 = replace(state, visited1=True)
    wpa2 = envs.observe(done1).modalities["wpa"]
    assert np.array_equal(wpa2, [1.0, 0.0, 0.0])


def test_observation_copy_is_deep(rng):
    spec = envs.make_env_spec("occluded_reach")
    _, obs = envs.env_reset(spec, np.random.default_rng(7))
    dup = obs.copy()
    dup.modalities["vis"][0] = 99.0
    dup.robot_state[0] = 99.0
    assert obs.modalities["vis"][0] != 99.0
    assert obs.robot_state[0] != 99.0


# ---------------------------------------------------------------------------
# stepping


def test_env_step_kinematics():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(8))
    action = np.array([1.0, -0.5])
    new, obs, done, success = envs.env_step(state, action)
    assert np.allclose(new.p, np.clip(state.p + spec.v_max * action, -1, 1),
                       atol=1e-15)
    assert new.t == 1 and not done and not success


def test_env_step_clips_to_arena():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(9))
    from dataclasses import replace
    edge = replace(state, p=np.array([-1.0, 1.0]))
    new, _, _, _ = envs.env_step(edge, np.array([-1.0, 1.0]))
    assert new.p[0] == -1.0 and new.p[1] == 1.0


def test_env_step_rejects_bad_actions():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(10))
    with pytest.raises(ContractError):
        envs.env_step(state, np.array([1.0, np.nan]))
    with pytest.raises(ContractError):
        envs.env_step(state, np.array([1.0, 2.0, 3.0]))


def test_env_step_rejects_finished_episode():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(11))
    from dataclasses import replace
    finished = replace(state, done=True)
    with pytest.raises(ContractError):
        envs.env_step(finished, np.zeros(2))


def test_success_inside_radius_and_timeout():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(12))
    from dataclasses import replace
    near = replace(state, p=state.q - np.array([0.04, 0.0]))
    new, _, done, success = envs.env_step(near, np.zeros(2))
    assert done and success
    stuck = replace(state, t=spec.t_max - 1)
    new, _, done, success = envs.env_step(stuck, np.zeros(2))
    assert done and not success


def test_phase_success_requires_order():
    spec = envs.make_env_spec("phase_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(13))
    from dataclasses import replace
    at_goal = replace(state, p=state.q.copy())
    new, _, done, success = envs.env_step(at_goal, np.zeros(2))
    assert not success  # waypoint 1 not yet visited
    at_goal_done1 = replace(state, p=state.q.copy(), visited1=True)
    new, _, done, success = envs.env_step(at_goal_done1, np.zeros(2))
    assert done and success


def test_teleport_preserves_calibration_offset():
    spec = envs.make_env_spec("occluded_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(14))
    before = state.q - state.q_vis
    moved = envs.teleport_target(state, np.random.default_rng(15))
    assert not np.array_equal(moved.q, state.q)
    assert np.allclose(moved.q - moved.q_vis, before, atol=1e-15)
    assert spec.box_x[0] <= moved.q[0] <= spec.box_x[1]
    # agent state untouched
    assert np.array_equal(moved.p, state.p)


def test_teleport_phase_moves_second_waypoint():
    spec = envs.make_env_spec("phase_reach")
    state, _ = envs.env_reset(spec, np.random.default_rng(16))
    moved = envs.teleport_target(state, np.random.default_rng(17))
    assert not np.array_equal(moved.q, state.q)
    assert 0.4 <= moved.q[0] <= 0.8
    assert np.array_equal(moved.w1, state.w1)


# ---------------------------------------------------------------------------
# demonstrator


@pytest.mark.parametrize("name", ["occluded_reach", "phase_reach"])
def test_scripted_expert_success_rate(name):
    spec = envs.make_env_spec(name)
    rng = np.random.default_rng(100)
    wins = sum(envs.run_expert_episode(spec, rng)[1] for _ in range(100))
    assert wins >= 95, f"{name}: {wins}/100"


def test_scripted_expert_actions_bounded():
    spec = envs.make_env_spec("occluded_reach")
    rng = np.random.default_rng(101)
    ep, _ = envs.run_expert_episode(spec, rng)
    assert np.all(np.abs(ep.actions) <= 1.0)
    assert ep.robot.shape == (ep.length, 2)
    assert ep.modalities["vis"].shape == (ep.length, 5)


# ---------------------------------------------------------------------------
# dataset generation and the binary format


def test_generate_dataset_deterministic(tmp_path):
    spec = envs.make_env_spec("occluded_reach")
    a = tmp_path / "a.mcds"
    b = tmp_path / "b.mcds"
    envs.generate_dataset(spec, 3, seed=5, path=a)
    envs.generate_dataset(spec, 3, seed=5, path=b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.mcds"
    envs.generate_dataset(spec, 3, seed=6, path=c)
    assert a.read_bytes() != c.read_bytes()


def test_generate_dataset_validation():
    spec = envs.make_env_spec("occluded_reach")
    with pytest.raises(ConfigError):
        envs.generate_dataset(spec, 0, seed=1)


def test_generate_dataset_gives_up_when_env_impossible():
    # too slow to reach anything within t_max: every attempt fails
    from dataclasses import replace
    spec = replace(envs.make_env_spec("occluded_reach"), v_max=1e-4)
    with pytest.raises(ContractError):
        envs.generate_dataset(spec, 1, seed=1)


def test_dataset_round_trip(tmp_path):
    spec = envs.make_env_spec("phase_reach")
    path = tmp_path / "d.mcds"
    ds = envs.generate_dataset(spec, 2, seed=9, path=path)
    back = envs.Dataset.read(path)
    assert back.env_name == ds.env_name
    assert back.modality_dims == ds.modality_dims
    assert back.horizon == ds.horizon
    assert len(back.episodes) == len(ds.episodes)
    for e1, e2 in zip(ds.episodes, back.episodes):
        for name in ds.modality_dims:
            assert e1.modalities[name].tobytes() == e2.modalities[name].tobytes()
        assert e1.robot.tobytes() == e2.robot.tobytes()
        assert e1.actions.tobytes() == e2.actions.tobytes()
    assert back.act_min.tobytes() == ds.act_min.tobytes()
    assert back.stats().key() == ds.stats().key()


def test_dataset_read_rejects_corruption(tmp_path):
    spec = envs.make_env_spec("occluded_reach")
    path = tmp_path / "d.mcds"
    envs.generate_dataset(spec, 1, seed=2, path=path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.mcds"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        envs.Dataset.read(bad_magic)

    bad_version = tmp_path / "v.mcds"
    bad_version.write_bytes(raw[:4] + b"\x09\x00\x00\x00" + raw[8:])
    with pytest.raises(FormatError):
        envs.Dataset.read(bad_version)

    truncated = tmp_path / "t.mcds"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        envs.Dataset.read(truncated)

    trailing = tmp_path / "x.mcds"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        envs.Dataset.read(trailing)


def test_dataset_read_rejects_undecodable_names(tmp_path):
    spec = envs.make_env_spec("occluded_reach")
    path = tmp_path / "d.mcds"
    envs.generate_dataset(spec, 1, seed=2, path=path)
    raw = path.read_bytes()
    # byte 10 is the first byte of the env name, after magic, version and length
    for at, what in ((10, "env name"), (raw.index(b"vis"), "modality name")):
        bad = tmp_path / f"n{at}.mcds"
        bad.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(FormatError, match=what):
            envs.Dataset.read(bad)


@pytest.mark.parametrize("edit, what", [("horizon", "horizon 0"), ("action_dim", "action_dim 0"),
                                        ("modality", "repeated modality name 'vis'")])
def test_dataset_read_refuses_header_values_it_cannot_hold(tmp_path, edit, what):
    """A zero horizon or action width would pass reading and crash training,
    and a repeated modality name would fold into one stream."""
    spec = envs.make_env_spec("occluded_reach")
    path = tmp_path / "d.mcds"
    envs.generate_dataset(spec, 2, seed=2, path=path)
    raw = path.read_bytes()
    tac = raw.index(b"tac")   # the last modality name, then its u32 width
    at = tac + 3 + 4 + (4 if edit == "action_dim" else 8)   # robot, action, horizon
    bad = tmp_path / "bad.mcds"
    if edit == "modality":
        bad.write_bytes(raw[:tac] + b"vis" + raw[tac + 3:])
    else:
        bad.write_bytes(raw[:at] + struct.pack("<I", 0) + raw[at + 4:])
    with pytest.raises(FormatError, match=what):
        envs.Dataset.read(bad)


@pytest.mark.parametrize("edit, what", [("action", "non-finite"), ("act_max", "non-finite"),
                                        ("inverted", "action minimum")])
def test_dataset_read_refuses_nonfinite_rows_and_inverted_stats(tmp_path, edit, what):
    """A NaN action row or an Inf action bound would train on NaN, and a
    minimum above the maximum would denormalize backwards."""
    spec = envs.make_env_spec("occluded_reach")
    ds = envs.generate_dataset(spec, 2, seed=2)
    if edit == "action":
        ds.episodes[1].actions[3, 0] = np.nan
    elif edit == "act_max":
        ds.act_max = np.array([ds.act_max[0], np.inf])
    else:
        ds.act_min, ds.act_max = ds.act_max, ds.act_min
    path = tmp_path / "bad.mcds"
    ds.write(path)
    with pytest.raises(FormatError, match=what):
        envs.Dataset.read(path)


# ---------------------------------------------------------------------------
# normalization


def test_action_stats_round_trip(rng):
    lo = np.array([-0.5, 0.1])
    hi = np.array([0.5, 0.9])
    st = envs.ActionStats(lo, hi, 2, 1)
    a = rng.uniform(-0.5, 0.9, size=(10, 2))
    assert np.allclose(st.denormalize(st.normalize(a)), a, atol=1e-12)
    assert np.allclose(st.normalize(lo), -1.0, atol=1e-15)
    assert np.allclose(st.normalize(hi), 1.0, atol=1e-15)


def test_action_stats_degenerate_span():
    const = np.array([0.3, -0.4])
    st = envs.ActionStats(const.copy(), const.copy(), 2, 1)
    z = st.normalize(const)
    assert np.array_equal(z, np.zeros(2))
    assert np.allclose(st.denormalize(z), const, atol=1e-15)
    # still invertible away from the constant
    other = np.array([0.5, 0.0])
    assert np.allclose(st.denormalize(st.normalize(other)), other, atol=1e-12)


def test_action_stats_chunk_applies_per_step(rng):
    lo = np.array([-1.0, -2.0])
    hi = np.array([1.0, 2.0])
    st = envs.ActionStats(lo, hi, 2, 2)
    assert st.chunk_dim == 4
    chunk = rng.uniform(-1, 1, size=4)
    manual = np.concatenate([
        envs.ActionStats(lo, hi, 2, 1).normalize(chunk[:2]),
        envs.ActionStats(lo, hi, 2, 1).normalize(chunk[2:]),
    ])
    assert np.allclose(st.normalize_chunk(chunk), manual, atol=1e-15)
    assert np.allclose(st.denormalize_chunk(st.normalize_chunk(chunk)), chunk,
                       atol=1e-12)


def test_stats_key_tracks_contents():
    a = envs.ActionStats(np.zeros(2), np.ones(2), 2, 1)
    b = envs.ActionStats(np.zeros(2), np.ones(2), 2, 1)
    c = envs.ActionStats(np.zeros(2), np.ones(2) * 1.001, 2, 1)
    d = envs.ActionStats(np.zeros(2), np.ones(2), 2, 2)
    assert a.key() == b.key()
    assert len({a.key(), c.key(), d.key()}) == 3


# ---------------------------------------------------------------------------
# training views


def test_training_rows_shapes_and_normalization():
    spec = envs.make_env_spec("occluded_reach")
    ds = envs.generate_dataset(spec, 2, seed=3)
    acts, (m, rs) = ds.training_rows(("vis",))
    n = sum(ep.length for ep in ds.episodes)
    assert m.shape == (n, 5) and rs.shape == (n, 2)
    assert acts.shape == (n, 2)
    assert np.all(acts >= -1.0 - 1e-12) and np.all(acts <= 1.0 + 1e-12)
    acts2, (t, m2, rs2) = ds.training_rows(("tac", "vis"))
    assert t.shape == (n, 3) and m2 is m and rs2 is rs and acts2 is acts
    with pytest.raises(ConfigError):
        ds.training_rows(("vis", "audio"))


def test_training_rows_horizon_chunks():
    spec = envs.make_env_spec("occluded_reach")
    ds1 = envs.generate_dataset(spec, 2, seed=4, horizon=1)
    ds2 = envs.generate_dataset(spec, 2, seed=4, horizon=2)
    acts2, _ = ds2.training_rows(("vis",))
    rows = sum(ep.length - 1 for ep in ds2.episodes)
    assert acts2.shape == (rows, 4)
    # row t holds [a_t, a_{t+1}] normalized with the same per-step stats
    ep = ds2.episodes[0]
    want = ds2.stats().normalize_chunk(
        np.concatenate([ep.actions[0], ep.actions[1]]))
    assert np.allclose(acts2[0], want, atol=1e-15)


def test_modality_stds_positive():
    spec = envs.make_env_spec("occluded_reach")
    ds = envs.generate_dataset(spec, 2, seed=5)
    stds = ds.modality_stds()
    assert set(stds) == {"vis", "tac"}
    assert stds["vis"].shape == (5,)
    assert np.all(stds["vis"][:2] > 0)
