"""Checkpoint format and typed save/load round-trip tests."""

import json
import struct

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose import experts as xp
from modalcompose import router as rt
from modalcompose.compose import train_concat_policy, train_moe_policy
from modalcompose.diffusion import make_schedule
from modalcompose.envs import ActionStats, Observation, _Reader
from modalcompose.errors import ContractError, FormatError
from modalcompose.runconfig import RunConfig
from tests.conftest import constant_action_dataset


def small_cfg():
    cfg = RunConfig()
    cfg = cfg.with_section("expert", enc_hidden=(16,), enc_out=8, score_hidden=(32,))
    cfg = cfg.with_section("router", hidden=(8,))
    return cfg.with_section("train", steps=0, batch=16, router_steps=0)


def demo_stats():
    return ActionStats(np.array([-1.0, 0.0]), np.array([1.0, 0.5]), 2, 1)


# ---------------------------------------------------------------------------
# raw container


def test_raw_round_trip(tmp_path, rng):
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7),
        "s": np.array(2.5),
    }
    meta = {"kind": "demo", "nested": {"a": [1, 2]}, "flag": True}
    path = tmp_path / "c.mcpf"
    cpt.save_checkpoint(tensors, meta, path)
    back = cpt.load_checkpoint(path)
    assert back.metadata == meta
    assert set(back.tensors) == set(tensors)
    for name in tensors:
        got = back.tensors[name]
        want = np.asarray(tensors[name], dtype=np.float64)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert back.n_params() == 12 + 7 + 1


def test_save_is_byte_deterministic(tmp_path, rng):
    tensors = {"w": rng.normal(size=(2, 2))}
    meta = {"b": 1, "a": 2}
    p1, p2 = tmp_path / "1.mcpf", tmp_path / "2.mcpf"
    cpt.save_checkpoint(tensors, meta, p1)
    cpt.save_checkpoint(tensors, meta, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_byte_layout(tmp_path):
    """Walk the written file against the documented wire layout."""
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "c.mcpf"
    cpt.save_checkpoint({"m": arr}, {"k": "v"}, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MCPF"
    (version,) = struct.unpack_from("<I", raw, 4)
    assert version == 1
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = raw[12:12 + mlen]
    assert json.loads(meta) == {"k": "v"}
    off = 12 + mlen
    (count,) = struct.unpack_from("<I", raw, off)
    assert count == 1
    off += 4
    (nlen,) = struct.unpack_from("<H", raw, off)
    off += 2
    assert raw[off:off + nlen] == b"m"
    off += nlen
    assert raw[off] == 2  # rank
    off += 1
    dims = struct.unpack_from("<II", raw, off)
    assert dims == (2, 3)
    off += 8
    payload = np.frombuffer(raw[off:off + 48], dtype="<f8")
    assert np.array_equal(payload.reshape(2, 3), arr)
    assert off + 48 == len(raw)


def test_load_error_paths(tmp_path, rng):
    path = tmp_path / "c.mcpf"
    cpt.save_checkpoint({"w": rng.normal(size=(2, 2))}, {"kind": "x"}, path)
    raw = path.read_bytes()

    with pytest.raises(FormatError):
        cpt.load_checkpoint(tmp_path / "missing.mcpf")

    bad = tmp_path / "bad.mcpf"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        cpt.load_checkpoint(bad)

    bad.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(FormatError):
        cpt.load_checkpoint(bad)

    bad.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        cpt.load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError):
        cpt.load_checkpoint(bad)


def test_load_rejects_bad_metadata_and_duplicates(tmp_path):
    # handcraft: valid header, metadata that is not JSON
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", 3) + b"{{{"
    blob += struct.pack("<I", 0)
    bad = tmp_path / "meta.mcpf"
    bad.write_bytes(blob)
    with pytest.raises(FormatError):
        cpt.load_checkpoint(bad)

    # two tensors with the same name
    one = struct.pack("<H", 1) + b"a" + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"{}"
    blob += struct.pack("<I", 2) + one + one
    dup = tmp_path / "dup.mcpf"
    dup.write_bytes(blob)
    with pytest.raises(FormatError):
        cpt.load_checkpoint(dup)


def test_load_rejects_undecodable_tensor_name(tmp_path):
    tensor = struct.pack("<H", 2) + b"\xffa" + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"{}"
    blob += struct.pack("<I", 1) + tensor
    bad = tmp_path / "name.mcpf"
    bad.write_bytes(blob)
    with pytest.raises(FormatError, match="tensor name"):
        cpt.load_checkpoint(bad)


@pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1,) * 4, (2**31, 2**31, 4)])
def test_load_refuses_tensor_dims_whose_int64_count_wraps(tmp_path, capsys, dims):
    """The element count is a Python int, so dims whose int64 product wraps
    to 0 or below read as a truncated file, not as a reshape crash."""
    from modalcompose.cli import cli_dispatch

    tensor = struct.pack(f"<H1sB{len(dims)}I", 1, b"w", len(dims), *dims)
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"{}"
    bad = tmp_path / "bad.mcpf"
    bad.write_bytes(blob + struct.pack("<I", 1) + tensor + struct.pack("<d", 1.0))
    with pytest.raises(FormatError, match="truncated"):
        cpt.load_checkpoint(bad)
    assert cli_dispatch(["eval", "--manifest", str(bad), "--n", "1",
                         "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    with pytest.raises(FormatError):
        _Reader(b"abc", "raw").take(-1)


# ---------------------------------------------------------------------------
# typed round-trips


def test_expert_round_trip(tmp_path, rng):
    expert = xp.init_expert("vis", 5, 2, 2, small_cfg(), np.random.default_rng(1))
    stats = demo_stats()
    sched = make_schedule()
    path = tmp_path / "expert.mcpf"
    cpt.save_expert(expert, stats, sched, path, env_name="occluded_reach",
                    seed=3, config_hash="abc123")
    ck = cpt.load_checkpoint(path)
    assert ck.metadata["kind"] == "expert"
    assert ck.metadata["config_hash"] == "abc123"
    back, stats2, sched2 = cpt.expert_from_checkpoint(ck)
    assert back.checksum() == expert.checksum()
    assert back.modality == "vis" and back.score_spec == expert.score_spec
    assert stats2.key() == stats.key()
    assert sched2.K == sched.K and np.allclose(sched2.betas, sched.betas)
    e = back.encode_rows(rng.normal(size=(1, 5)), rng.normal(size=(1, 2)))
    a_k = rng.normal(size=(1, 2))
    orig = expert.score_rows(a_k, e, 7)
    assert back.score_rows(a_k, e, 7).tobytes() == orig.tobytes()


def test_router_round_trip(tmp_path, rng):
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), np.random.default_rng(2))
    path = tmp_path / "router.mcpf"
    cpt.save_router(router, demo_stats(), make_schedule(), path,
                    env_name="occluded_reach", seed=0, config_hash="h")
    back = cpt.router_from_checkpoint(cpt.load_checkpoint(path))
    assert back.modality_order == ("vis", "tac")
    assert back.emb_dims == (10, 10)
    embs = rng.normal(size=(1, 20))
    assert back.weights_rows(embs).tobytes() == router.weights_rows(embs).tobytes()


@pytest.mark.parametrize("trainer,kind", [(train_concat_policy, "concat"),
                                          (train_moe_policy, "moe")])
def test_fusion_round_trip(tmp_path, rng, trainer, kind):
    ds = constant_action_dataset(np.array([0.2, -0.2]))
    policy = trainer(ds, small_cfg(), np.random.default_rng(4))
    path = tmp_path / f"{kind}.mcpf"
    cpt.save_fusion(policy, path, env_name="occluded_reach", seed=1,
                    config_hash="h2")
    ck = cpt.load_checkpoint(path)
    assert ck.metadata["kind"] == kind
    back = cpt.fusion_from_checkpoint(ck)
    assert back.n_params() == policy.n_params()
    obs = Observation(modalities={"vis": rng.normal(size=5),
                                  "tac": rng.normal(size=3)},
                      robot_state=rng.normal(size=2))
    a = policy.act(obs, np.random.default_rng(9))
    b = back.act(obs, np.random.default_rng(9))
    assert a.tobytes() == b.tobytes()


def test_kind_mismatch_errors(tmp_path, rng):
    expert = xp.init_expert("vis", 5, 2, 2, small_cfg(), np.random.default_rng(1))
    epath = tmp_path / "e.mcpf"
    cpt.save_expert(expert, demo_stats(), make_schedule(), epath,
                    env_name="occluded_reach", seed=0, config_hash="h")
    eck = cpt.load_checkpoint(epath)
    with pytest.raises(FormatError):
        cpt.router_from_checkpoint(eck)
    with pytest.raises(FormatError):
        cpt.fusion_from_checkpoint(eck)
    with pytest.raises(ContractError):
        cpt.save_fusion(expert, tmp_path / "x.mcpf", env_name="e", seed=0,
                        config_hash="h")


def test_missing_tensor_detected(tmp_path, rng):
    expert = xp.init_expert("vis", 5, 2, 2, small_cfg(), np.random.default_rng(1))
    path = tmp_path / "e.mcpf"
    cpt.save_expert(expert, demo_stats(), make_schedule(), path,
                    env_name="occluded_reach", seed=0, config_hash="h")
    ck = cpt.load_checkpoint(path)
    del ck.tensors["sub0/W0"]
    with pytest.raises(FormatError):
        cpt.expert_from_checkpoint(ck)


def saved_expert_checkpoint(tmp_path, cfg=None):
    cfg = cfg or small_cfg()
    expert = xp.init_expert("vis", 5, 2, 2, cfg, np.random.default_rng(1))
    path = tmp_path / "e.mcpf"
    cpt.save_expert(expert, demo_stats(), make_schedule(sigma_mode=cfg.diffusion.sigma_mode),
                    path,
                    env_name="occluded_reach", seed=0, config_hash="h")
    return expert, path


def test_malformed_expert_shapes_rejected(tmp_path):
    """A tensor whose shape is not its spec's, a score-net spec its tensors
    do not fit, and a missing score-net spec are format errors, not crashes
    at the first score."""
    _, path = saved_expert_checkpoint(tmp_path)
    ck = cpt.load_checkpoint(path)
    ck.tensors["sub0/W1"] = ck.tensors["sub0/W1"][:, :1]
    with pytest.raises(FormatError, match="sub0/W1"):
        cpt.expert_from_checkpoint(ck)
    ck = cpt.load_checkpoint(path)
    ck.tensors["enc/b0"] = np.zeros(3)
    with pytest.raises(FormatError, match="enc/b0"):
        cpt.expert_from_checkpoint(ck)
    ck = cpt.load_checkpoint(path)
    ck.metadata["sub_specs"][0]["hidden"] = [16]
    with pytest.raises(FormatError):
        cpt.expert_from_checkpoint(ck)
    ck = cpt.load_checkpoint(path)
    ck.metadata["sub_specs"] = []
    with pytest.raises(FormatError):
        cpt.expert_from_checkpoint(ck)


def test_sigma_mode_round_trip(tmp_path):
    """A beta_tilde schedule's mode is written and read back into the
    schedule the reader returns; the default writes no key, so default
    checkpoints keep their bytes, and a missing key reads as beta."""
    _, path = saved_expert_checkpoint(tmp_path)
    ck = cpt.load_checkpoint(path)
    assert "sigma_mode" not in ck.metadata
    assert cpt.expert_from_checkpoint(ck)[2].sigma_mode == "beta"
    tilde = small_cfg().with_section("diffusion", sigma_mode="beta_tilde")
    _, path = saved_expert_checkpoint(tmp_path, tilde)
    ck = cpt.load_checkpoint(path)
    assert ck.metadata["sigma_mode"] == "beta_tilde"
    sched = cpt.expert_from_checkpoint(ck)[2]
    assert sched.sigma_mode == "beta_tilde"
    assert np.array_equal(sched.sigmas, make_schedule(sigma_mode="beta_tilde").sigmas)
    ck.metadata["sigma_mode"] = "cosine"
    with pytest.raises(FormatError):
        cpt.expert_from_checkpoint(ck)


# ---------------------------------------------------------------------------
# compatibility


def meta_with(**over):
    base = cpt.common_metadata("expert", demo_stats(), make_schedule(),
                               "occluded_reach", 0, "hash0")
    base.update(over)
    return base


def test_compatibility_accepts_matching():
    """Facts that agree compose, whatever runs made the checkpoints: the config
    hash is provenance only, an absent sigma_mode is beta, and a router, which
    samples nothing, names none beside beta_tilde experts."""
    cpt.check_compose_compatibility([meta_with(), meta_with(), meta_with()])
    cpt.check_compose_compatibility([meta_with(), meta_with(config_hash="other")])
    cpt.check_compose_compatibility([meta_with(), meta_with(sigma_mode="beta")])
    tilde = meta_with(sigma_mode="beta_tilde")
    router = meta_with(kind="router")
    cpt.check_compose_compatibility([tilde, tilde, router])
    cpt.check_compose_compatibility([router, tilde])


def test_compatibility_rejects_each_divergence():
    """A divergence in any fact that decides what the composed policy computes
    is refused, naming the fact."""
    for fact, bad in (
        ("env", meta_with(env="phase_reach")),
        ("schedule", meta_with(schedule={"steps": 10, "beta_start": 1e-4, "beta_end": 0.02})),
        ("stats", meta_with(stats=cpt._stats_meta(
            ActionStats(np.zeros(2), np.ones(2), 2, 1)))),
        ("sigma_mode", meta_with(sigma_mode="beta_tilde")),
    ):
        with pytest.raises(ContractError, match=f"{fact} differs"):
            cpt.check_compose_compatibility([meta_with(), bad])
    with pytest.raises(ContractError, match="sigma_mode differs"):
        cpt.check_compose_compatibility([meta_with(kind="router"), meta_with(),
                                         meta_with(sigma_mode="beta_tilde")])
    with pytest.raises(ContractError):
        cpt.check_compose_compatibility([])


# ---------------------------------------------------------------------------
# typed readers: malformed metadata is a FormatError, never a crash


def saved_checkpoints(tmp_path):
    """One saved checkpoint of each typed reader's kind, and the reader."""
    _, epath = saved_expert_checkpoint(tmp_path)
    router = rt.init_router(("vis", "tac"), (10, 10), (8,), np.random.default_rng(2))
    rpath = tmp_path / "router.mcpf"
    cpt.save_router(router, demo_stats(), make_schedule(), rpath,
                    env_name="occluded_reach", seed=0, config_hash="h")
    fpath = tmp_path / "moe.mcpf"
    policy = train_moe_policy(constant_action_dataset(np.array([0.2, -0.2])),
                              small_cfg(), np.random.default_rng(4))
    cpt.save_fusion(policy, fpath, env_name="occluded_reach", seed=1, config_hash="h")
    return {"expert": (epath, cpt.expert_from_checkpoint),
            "router": (rpath, cpt.router_from_checkpoint),
            "moe": (fpath, cpt.fusion_from_checkpoint)}


def _drop(key):
    def edit(m):
        del m[key]
    return edit


def _put(path, value):
    def edit(m):
        for key in path[:-1]:
            m = m[key]
        m[path[-1]] = value
    return edit


def _twice(key):
    """Two score-net specs, as an expert of two sub-policies was saved."""
    def edit(m):
        m[key] = m[key] * 2
    return edit


BAD_METADATA = {
    "expert": [_drop("sub_specs"), _put(["n_steps"], "fifty"), _put(["n_steps"], 0),
               _drop("modality"), _put(["sub_specs"], "one"), _put(["sub_specs"], [3]),
               _put(["encoder_spec", "hidden"], ["16"]), _put(["stats"], None),
               _put(["stats", "act_min"], [0.0]), _put(["schedule", "steps"], "fifty"),
               _put(["noise_band_split"], "no"), _put(["robot_dim"], True),
               _put(["encoder_spec", "input_dim"], -5), _put(["modality_dim"], 99),
               _put(["noise_band_split"], True),    # band split was retired
               _twice("sub_specs"),                 # so was the averaged sub-policy stack
               _put(["n_steps"], 49)],              # steps its schedule does not have
    "router": [_drop("router_spec"), _put(["router_spec", "output_dim"], "fifty"),
               _put(["emb_dims"], "fifty"), _put(["modality_order"], [1, 2]),
               _put(["router_spec", "activation"], "relu6")],
    "moe": [_drop("score_spec"), _drop("gate_spec"), _put(["schedule", "steps"], "fifty"),
            _put(["schedule", "steps"], 0), _put(["sigma_mode"], "sharp"),
            _put(["encoder_specs"], [{}]), _put(["modality_dims"], [5]),
            _put(["modality_dims"], [3, 5]),
            _drop("stats"), _put(["stats", "horizon"], 2.5)],
}


@pytest.mark.parametrize("kind,i", [(k, i) for k, edits in BAD_METADATA.items()
                                    for i in range(len(edits))])
def test_typed_readers_reject_malformed_metadata(tmp_path, kind, i):
    path, read = saved_checkpoints(tmp_path)[kind]
    ck = cpt.load_checkpoint(path)
    read(ck)   # the unedited checkpoint reads
    BAD_METADATA[kind][i](ck.metadata)
    with pytest.raises(FormatError):
        read(ck)


def _one_wider(spec_key, prefix, side):
    """Widen one MLP's input or output by one, in its spec and its tensors
    alike, so each tensor still fits its own spec."""
    def edit(ck):
        spec = ck.metadata[spec_key]
        spec[f"{side}put_dim"] += 1
        i = 0 if side == "in" else len(spec["hidden"])
        W, b = ck.tensors[f"{prefix}/W{i}"], ck.tensors[f"{prefix}/b{i}"]
        if side == "in":
            ck.tensors[f"{prefix}/W{i}"] = np.vstack([W, W[-1:]])
        else:
            ck.tensors[f"{prefix}/W{i}"] = np.hstack([W, W[:, -1:]])
            ck.tensors[f"{prefix}/b{i}"] = np.append(b, b[-1])
    return edit


SPECS_THAT_DISAGREE = [
    ("expert", _one_wider("encoder_spec", "enc", "out")),
    ("router", lambda ck: _put(["emb_dims"], [10, 11])(ck.metadata)),
    ("router", _one_wider("router_spec", "router", "out")),
    ("moe", _one_wider("score_spec", "score", "in")),
    ("moe", _one_wider("score_spec", "score", "out")),
    ("moe", _one_wider("gate_spec", "gate", "in")),
]


@pytest.mark.parametrize("kind,edit", SPECS_THAT_DISAGREE)
def test_typed_readers_check_specs_against_each_other(tmp_path, kind, edit):
    """Every tensor fits its own spec, but one network's spec does not fit
    the next one's: refused at load, not at the first act()."""
    path, read = saved_checkpoints(tmp_path)[kind]
    ck = cpt.load_checkpoint(path)
    read(ck)
    edit(ck)
    with pytest.raises(FormatError):
        read(ck)
    if kind != "router":
        from modalcompose.cli import cli_dispatch

        bad = tmp_path / "bad.mcpf"
        cpt.save_checkpoint(ck.tensors, ck.metadata, bad)
        assert cli_dispatch(["eval", "--manifest", str(bad), "--n", "1",
                             "--out", str(tmp_path / "m.csv")]) == 1
        assert not (tmp_path / "m.csv").exists()


def _saved(tmp_path, kind):
    """A saved expert or concat checkpoint, its one weight tensor a test edits,
    and its typed reader."""
    if kind == "expert":
        return saved_expert_checkpoint(tmp_path)[1], "sub0/b0", cpt.expert_from_checkpoint
    path = tmp_path / "concat.mcpf"
    policy = train_concat_policy(constant_action_dataset(np.array([0.2, -0.2])),
                                 small_cfg(), np.random.default_rng(4))
    cpt.save_fusion(policy, path, env_name="occluded_reach", seed=1, config_hash="h")
    return path, "score/W0", cpt.fusion_from_checkpoint


@pytest.mark.parametrize("kind", ["expert", "concat"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_weight_is_a_format_error(tmp_path, capsys, kind, bad):
    """One NaN or Inf weight makes the typed reader raise FormatError, and
    eval report the file as malformed, not as a numeric fault."""
    from modalcompose.cli import cli_dispatch

    path, name, read = _saved(tmp_path, kind)
    ck = cpt.load_checkpoint(path)
    ck.tensors[name].flat[0] = bad
    with pytest.raises(FormatError, match="non-finite"):
        read(ck)
    cpt.save_checkpoint(ck.tensors, ck.metadata, path)
    assert cli_dispatch(["eval", "--manifest", str(path), "--n", "1",
                         "--out", str(tmp_path / "m.csv")]) == 1
    assert f"{kind} checkpoint: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["expert", "concat"])
@pytest.mark.parametrize("key, value", [("act_min", [float("nan"), 0.0]),
                                        ("act_max", [1.0, float("inf")]),
                                        ("act_min", [2.0, 0.0])])
def test_nonfinite_or_inverted_action_stats_are_a_format_error(tmp_path, kind, key, value):
    """Stats that load would make act() return NaN (or denormalize backwards):
    a NaN or Inf bound, or act_min above act_max, is refused on reading. The
    metadata's JSON carries NaN and Infinity as Python's json writes them."""
    path, _, read = _saved(tmp_path, kind)
    ck = cpt.load_checkpoint(path)
    ck.metadata["stats"][key] = value
    cpt.save_checkpoint(ck.tensors, ck.metadata, path)
    with pytest.raises(FormatError, match="action stats"):
        read(cpt.load_checkpoint(path))


def test_a_tensor_of_more_axes_than_numpy_takes_is_a_format_error(tmp_path):
    """A rank byte above numpy's axis limit, over dims whose product fits the
    payload, is refused as malformed, not left to numpy's ValueError."""
    meta = b"{}"
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", len(meta)) + meta
    blob += struct.pack("<I", 1) + struct.pack("<H", 1) + b"w" + struct.pack("<B", 65)
    blob += struct.pack("<65I", *[1] * 65) + struct.pack("<d", 0.5)
    bad = tmp_path / "rank65.mcpf"
    bad.write_bytes(blob)
    with pytest.raises(FormatError, match="'w'"):
        cpt.load_checkpoint(bad)


def test_metadata_must_be_an_object(tmp_path):
    meta = b"[1,2]"
    blob = b"MCPF" + struct.pack("<I", 1) + struct.pack("<I", len(meta)) + meta
    blob += struct.pack("<I", 0)
    bad = tmp_path / "list.mcpf"
    bad.write_bytes(blob)
    with pytest.raises(FormatError, match="JSON object"):
        cpt.load_checkpoint(bad)


def test_eval_of_malformed_checkpoint_is_a_format_error(tmp_path, capsys):
    from modalcompose.cli import cli_dispatch

    _, path = saved_expert_checkpoint(tmp_path)
    ck = cpt.load_checkpoint(path)
    del ck.metadata["sub_specs"]
    bad = tmp_path / "bad.mcpf"
    cpt.save_checkpoint(ck.tensors, ck.metadata, bad)
    assert cli_dispatch(["eval", "--manifest", str(bad), "--n", "1",
                         "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "sub_specs" in err and "Traceback" not in err
    ck = cpt.load_checkpoint(path)
    del ck.metadata["env"]
    cpt.save_checkpoint(ck.tensors, ck.metadata, bad)
    assert cli_dispatch(["eval", "--manifest", str(bad), "--n", "1",
                         "--out", str(tmp_path / "m.csv")]) == 1
    assert "'env'" in capsys.readouterr().err
