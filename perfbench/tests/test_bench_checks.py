"""Every output check passes on the program's real outputs and fails on a
corrupted copy of them."""

import dataclasses
import json
import struct
import threading

import numpy as np
import pytest

import refcheck as rc
import workloads as wl
from modalcompose import analysis as an
from modalcompose import checkpoint as cpt
from modalcompose import pipeline as pl
from modalcompose import rollout, rngstream
from modalcompose.envs import env_reset


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return wl.Bench("eval", 0, 1.0, out, wl.Sizes(setups=1), log=None)


@pytest.fixture(scope="module")
def model(bench):
    return bench.setup()


def perturbed_copy(src, dst, name, delta=10.0):
    """Copy of a checkpoint with one weight moved by delta."""
    ck = cpt.load_checkpoint(src)
    tensors = {k: v.copy() for k, v in ck.tensors.items()}
    tensors[name].flat[0] += delta
    cpt.save_checkpoint(tensors, ck.metadata, dst)
    return dst


def test_eps_mse(model, tmp_path):
    for method in model.paths:
        ok, detail = rc.check_eps_mse(model.paths, method, model.dataset)
        assert ok, detail
    bad = dict(model.paths)
    bad["expert:vis"] = perturbed_copy(model.paths["expert:vis"], tmp_path / "v.mcpf",
                                       "sub0/b2")
    assert not rc.check_eps_mse(bad, "expert:vis", model.dataset)[0]
    # the router is scored through the experts it weights
    assert not rc.check_eps_mse(bad, "router", model.dataset)[0]
    bad["moe"] = perturbed_copy(model.paths["moe"], tmp_path / "m.mcpf", "score/b2")
    assert not rc.check_eps_mse(bad, "moe", model.dataset)[0]


def test_round_trip(model, tmp_path):
    tmp = tmp_path / "rt.mcpf"
    for path in model.paths.values():
        ok, detail = rc.check_round_trip(path, tmp, cpt, model.paths["expert:vis"])
        assert ok, detail
    # same tensors, metadata JSON not in canonical form: loads, saves differently
    raw = model.paths["concat"].read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.dumps(json.loads(raw[12:12 + mlen]), indent=1).encode()
    loose = tmp_path / "loose.mcpf"
    loose.write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + mlen:])
    assert cpt.load_checkpoint(loose).metadata == cpt.load_checkpoint(
        model.paths["concat"]).metadata
    assert not rc.check_round_trip(loose, tmp, cpt)[0]


def test_act_matches_reference(model, bench, tmp_path):
    rec = wl.Recorder(model.policies["learned"])
    pl.run_eval(rec, 1, 5, env_name=wl.ENV, method="learned")
    obs = [rec.steps[0][0], rec.steps[-1][0]]
    rng = lambda i: rngstream.stream(3, rngstream.TAG_ACT, i)
    refs = wl._reference_policies(model.paths)
    for kind, policy in model.policies.items():
        ok, detail = rc.check_act_matches(policy, refs[kind], obs, rng, kind)
        assert ok, detail
    bad_paths = dict(model.paths)
    bad_paths["router"] = perturbed_copy(model.paths["router"], tmp_path / "r.mcpf",
                                         "router/W0", 0.5)
    bad_paths["concat"] = perturbed_copy(model.paths["concat"], tmp_path / "c.mcpf",
                                         "enc_tac/W1", 0.5)
    bad = wl._reference_policies(bad_paths)
    for kind in ("learned", "concat"):
        assert not rc.check_act_matches(model.policies[kind], bad[kind], obs, rng,
                                        kind)[0]


def _recorded(model, bench, kind, n, seed):
    rec = wl.Recorder(model.policies[kind])
    row = pl.run_eval(rec, n, seed, env_name=wl.ENV, method=kind)[0]
    resets = []
    for ep in range(n):
        state, _ = env_reset(bench.spec, rngstream.stream(seed, rngstream.TAG_EVAL, ep))
        resets.append((state.p, state.q))
    return resets, rec.steps, row


def test_replay(model, bench):
    resets, steps, row = _recorded(model, bench, "moe", 2, 11)
    ok, detail = rc.check_replay(resets, steps, row, bench.spec, "moe")
    assert ok, detail
    shifted = list(steps)
    obs, action = shifted[3]
    obs = obs.copy()
    obs.robot_state[0] += 1e-12
    shifted[3] = (obs, action)
    assert not rc.check_replay(resets, shifted, row, bench.spec, "moe")[0]
    assert not rc.check_replay(resets, steps[:-1], row, bench.spec, "moe")[0]
    wrong = dict(row, success_rate=1.0 - row["success_rate"])
    assert not rc.check_replay(resets, steps, wrong, bench.spec, "moe")[0]


def test_beats_random(model, bench):
    n, seed = 3, 21
    rows = pl.run_eval(pl.RandomPolicy(2), n, seed, env_name=wl.ENV, method="random")
    rand = round(rows[0]["success_rate"] * n)
    learned = pl.run_eval(model.policies["learned"], n, seed, env_name=wl.ENV,
                          method="learned")
    assert rc.check_beats_random(round(learned[0]["success_rate"] * n), rand, n)[0]
    # the random policy's own record in place of the learned one
    assert not rc.check_beats_random(rand, rand, n)[0]


def test_probe_positions_and_zero_importance(model, bench):
    policy, spec, cfg = model.policies["learned"], bench.spec, model.cfg.probe
    zero = {m: np.zeros_like(s) for m, s in model.sigmas.items()}
    trace = an.perturb_importance(policy, spec, 4, cfg, zero, episode=1)
    assert rc.check_zero_importance(trace)[0]
    rec = rollout.run_policy_episode(policy, spec, 4, 1)
    assert rc.check_probe_positions(trace, rec, "ep 1")[0]
    moved = dataclasses.replace(trace, positions=trace.positions.copy())
    moved.positions[-1, 1] += 1e-12
    assert not rc.check_probe_positions(moved, rec, "ep 1")[0]
    raw = {m: v.copy() for m, v in trace.raw.items()}
    raw["tac"][0] = 1e-300
    assert not rc.check_zero_importance(dataclasses.replace(trace, raw=raw))[0]


def test_baseline(model, bench):
    policy = model.policies["concat"]
    robust = an.robustness_eval(policy, bench.spec, None, 2, 8)
    plain = rollout.evaluate_policy(policy, bench.spec, 8, 2)
    assert rc.check_baseline(robust, plain, "concat")[0]
    assert not rc.check_baseline(robust, (plain[0], plain[1] + 0.5), "concat")[0]


def test_reader_matches_program(model):
    for path in model.paths.values():
        meta, tensors = rc.read_mcpf(path)
        ck = cpt.load_checkpoint(path)
        assert meta == ck.metadata
        assert tensors.keys() == ck.tensors.keys()
        for k in tensors:
            assert tensors[k].tobytes() == ck.tensors[k].tobytes()


def test_missing_probe_records_fail_checks(model, tmp_path):
    probe = wl.Bench("probe", 0, 1.0, tmp_path, wl.Sizes(setups=1), log=None)
    probe.check_probe(wl.Phases(), model)
    assert probe.checks_failed == probe.failed == probe.attempted == 2


def test_one_thread():
    assert wl._one_thread(1.0, 0.99)[0]
    # more CPU time than wall time: work ran on another thread or process
    assert not wl._one_thread(1.0, 1.5)[0]
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert not wl._one_thread(1.0, 0.5)[0]
    finally:
        stop.set()
        worker.join()
