"""Binary checkpoint persistence.

Layout: magic "MCPF", u32 LE version, u32 LE metadata length + UTF-8 JSON
metadata, u32 LE tensor count, then per tensor: u16 LE name length + UTF-8
name, u8 rank, rank x u32 LE dims, row-major 64-bit LE payload. Metadata is
canonical JSON (sorted keys), so identical runs write identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore as nc
from .compose import ConcatPolicy, MoEFeaturePolicy
from .diffusion import NoiseSchedule, make_schedule
from .envs import ActionStats, _Reader, read_file
from .errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from .experts import Encoder, ModalityExpert
from .router import Router

MAGIC = b"MCPF"
VERSION = 1


@dataclass
class Checkpoint:
    metadata: dict
    tensors: dict[str, np.ndarray]


def _meta_bytes(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(tensors: dict[str, np.ndarray], metadata: dict, path) -> None:
    """Write named float64 tensors plus JSON metadata in MCPF layout."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    mb = _meta_bytes(metadata)
    blob += struct.pack("<I", len(mb))
    blob += mb
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name!r}")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim > 0xFF:
            raise ContractError(f"tensor rank {arr.ndim} exceeds format limit")
        blob += struct.pack("<H", len(nb))
        blob += nb
        blob += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<I", d)
        blob += arr.astype("<f8").tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    r = _Reader(read_file(path, "checkpoint"), str(path))
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (mlen,) = r.unpack("<I")
    try:
        metadata = json.loads(r.take(mlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad metadata block: {exc}") from None
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.text("tensor name")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        (rank,) = r.unpack("<B")
        dims = tuple(r.unpack("<" + "I" * rank)) if rank else ()
        payload = r.take(8 * math.prod(dims))   # Python ints: a header cannot wrap it
        try:   # numpy refuses more axes than it supports, even of size 0 or 1
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(
                np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}: tensor {name!r}: {exc}") from None
    r.expect_end()
    return Checkpoint(metadata=metadata, tensors=tensors)


# ---------------------------------------------------------------------------
# typed metadata helpers

# The metadata each typed reader needs: a dict maps required keys to their
# schemas, a one-item list is a list of that schema, a type is a JSON value
# (float admits ints, int and float never admit booleans).
_SPEC = {"input_dim": int, "hidden": [int], "output_dim": int, "activation": str}
_COMMON = {"env": str, "stats": {"act_min": [float], "act_max": [float],
                                 "action_dim": int, "horizon": int},
           "schedule": {"steps": int, "beta_start": float, "beta_end": float}}
_BANK = {**_COMMON, "modality_order": [str], "modality_dims": [int], "robot_dim": int,
         "encoder_specs": [_SPEC], "score_spec": _SPEC, "sigma_mode": str}
_SCHEMAS = {
    "expert": {**_COMMON, "modality": str, "modality_dim": int, "robot_dim": int,
               "action_dim": int, "n_steps": int, "noise_band_split": bool,
               "encoder_spec": _SPEC, "sub_specs": [_SPEC]},
    "router": {**_COMMON, "modality_order": [str], "emb_dims": [int], "router_spec": _SPEC},
    "concat": _BANK,
    "moe": {**_BANK, "gate_spec": _SPEC},
}


def _check_schema(value, schema, where: str) -> None:
    kind = schema if isinstance(schema, type) else type(schema)
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise FormatError(f"{where} must be {kind.__name__}, got {value!r}")
    if isinstance(schema, dict):
        for key, sub in schema.items():
            if key not in value:
                raise FormatError(f"{where} lacks {key!r}")
            _check_schema(value[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        for i, item in enumerate(value):
            _check_schema(item, schema[0], f"{where}[{i}]")


def _typed_reader(*kinds: str):
    """Check a reader's metadata against its kind's schema, and turn any value
    it still cannot build from (a non-finite weight included) into a
    FormatError: a malformed checkpoint never crashes the caller."""

    def wrap(read):
        @functools.wraps(read)
        def reader(ck: Checkpoint):
            kind = ck.metadata.get("kind")
            if kind not in kinds:
                raise FormatError(f"expected a {' or '.join(kinds)} checkpoint, got {kind!r}")
            _check_schema(ck.metadata, _SCHEMAS[kind], f"{kind} metadata")
            try:
                return read(ck)
            except (ConfigError, ContractError, NumericError, ShapeError) as exc:
                raise FormatError(f"{kind} checkpoint: {exc}") from None

        return reader

    return wrap


def _spec_meta(spec: nc.MlpSpec) -> dict:
    return {"input_dim": spec.input_dim, "hidden": list(spec.hidden),
            "output_dim": spec.output_dim, "activation": spec.activation}


def _spec_from_meta(m: dict) -> nc.MlpSpec:
    return nc.MlpSpec(m["input_dim"], tuple(m["hidden"]), m["output_dim"],
                      activation=m["activation"])


def _stats_meta(stats: ActionStats) -> dict:
    return {"act_min": list(stats.act_min), "act_max": list(stats.act_max),
            "action_dim": stats.action_dim, "horizon": stats.horizon}


def _stats_from_meta(m: dict) -> ActionStats:
    """Finite action bounds, act_min <= act_max, one per action coordinate."""
    lo, hi = (np.asarray(m[key], dtype=np.float64) for key in ("act_min", "act_max"))
    if not (len(lo) == len(hi) == m["action_dim"] >= 1 and m["horizon"] >= 1
            and np.isfinite([lo, hi]).all() and (lo <= hi).all()):
        raise FormatError(f"inconsistent action stats {m}")
    return ActionStats(act_min=lo, act_max=hi, action_dim=m["action_dim"], horizon=m["horizon"])


def _sched_meta(sched: NoiseSchedule) -> dict:
    return {"steps": sched.K, "beta_start": float(sched.betas[0]),
            "beta_end": float(sched.betas[-1])}


def _sched_from_meta(m: dict) -> NoiseSchedule:
    """A checkpoint's schedule, in the sigma_mode its metadata names (or beta)."""
    sm = m["schedule"]
    return make_schedule(sm["steps"], sm["beta_start"], sm["beta_end"],
                         m.get("sigma_mode", "beta"))


def _params_tensors(prefix: str, params: nc.ParamSet) -> dict[str, np.ndarray]:
    return {f"{prefix}/{name}": t.data for name, t in params.items()}


def _params_from_tensors(ck: Checkpoint, prefix: str, spec: nc.MlpSpec) -> nc.ParamSet:
    ps = nc.ParamSet()
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        for base, shape in ((f"W{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            key = f"{prefix}/{base}"
            if key not in ck.tensors:
                raise FormatError(f"checkpoint missing tensor {key!r}")
            if ck.tensors[key].shape != shape:
                raise FormatError(f"tensor {key!r} has shape {ck.tensors[key].shape}, "
                                  f"its spec needs {shape}")
            ps.add(base, ck.tensors[key])
    return ps


def _encoder_from_checkpoint(ck: Checkpoint, prefix: str, modality: str, modality_dim: int,
                             spec_meta: dict, robot_dim: int) -> Encoder:
    """An encoder whose stored modality width is its spec's input width."""
    spec = _spec_from_meta(spec_meta)
    if modality_dim != spec.input_dim:
        raise FormatError(f"modality '{modality}' has width {modality_dim}, its "
                          f"encoder spec takes {spec.input_dim}")
    return Encoder(modality, _params_from_tensors(ck, prefix, spec), spec, robot_dim)


def common_metadata(kind: str, stats: ActionStats, sched: NoiseSchedule,
                    env_name: str, seed: int, config_hash: str) -> dict:
    return {"kind": kind, "env": env_name, "seed": seed,
            "config_hash": config_hash, "stats": _stats_meta(stats),
            "schedule": _sched_meta(sched)}


def save_expert(expert: ModalityExpert, stats: ActionStats, sched: NoiseSchedule,
                path, *, env_name: str, seed: int, config_hash: str) -> None:
    meta = common_metadata("expert", stats, sched, env_name, seed, config_hash)
    meta.update({
        "modality": expert.modality, "modality_dim": expert.enc.spec.input_dim,
        "robot_dim": expert.enc.robot_dim, "action_dim": expert.action_dim,
        "n_steps": expert.n_steps, "noise_band_split": False,   # retired; kept for the bytes
        "encoder_spec": _spec_meta(expert.enc.spec),
        "sub_specs": [_spec_meta(expert.score_spec)],   # one net; kept as a list for the bytes
    })
    # written only when not the default, so default checkpoints keep their bytes
    if sched.sigma_mode != "beta":
        meta["sigma_mode"] = sched.sigma_mode
    tensors = {**_params_tensors("enc", expert.enc.params),
               **_params_tensors("sub0", expert.score_params)}
    save_checkpoint(tensors, meta, path)


@_typed_reader("expert")
def expert_from_checkpoint(ck: Checkpoint) -> tuple[ModalityExpert, ActionStats,
                                                    NoiseSchedule]:
    m = ck.metadata
    if m["noise_band_split"]:
        raise FormatError("expert checkpoint uses noise band split, which was retired")
    enc = _encoder_from_checkpoint(ck, "enc", m["modality"], m["modality_dim"],
                                   m["encoder_spec"], m["robot_dim"])
    if len(m["sub_specs"]) != 1:
        raise FormatError(f"expert checkpoint holds {len(m['sub_specs'])} score nets; "
                          f"the averaged sub-policy stack was retired, an expert has one")
    if m["n_steps"] != m["schedule"]["steps"]:
        raise FormatError(f"expert checkpoint samples {m['n_steps']} steps on a schedule of "
                          f"{m['schedule']['steps']}")
    spec = _spec_from_meta(m["sub_specs"][0])
    if m["action_dim"] != spec.output_dim:
        raise FormatError(f"expert checkpoint acts in {m['action_dim']} dimensions, its "
                          f"score net predicts {spec.output_dim}")
    expert = ModalityExpert(enc=enc, score_params=_params_from_tensors(ck, "sub0", spec),
                            score_spec=spec, n_steps=m["n_steps"])
    return expert, _stats_from_meta(m["stats"]), _sched_from_meta(m)


def save_router(router: Router, stats: ActionStats, sched: NoiseSchedule,
                path, *, env_name: str, seed: int, config_hash: str) -> None:
    meta = common_metadata("router", stats, sched, env_name, seed, config_hash)
    meta.update({
        "modality_order": list(router.modality_order),
        "emb_dims": list(router.emb_dims),
        "router_spec": _spec_meta(router.spec),
    })
    save_checkpoint(_params_tensors("router", router.params), meta, path)


@_typed_reader("router")
def router_from_checkpoint(ck: Checkpoint) -> Router:
    m = ck.metadata
    spec = _spec_from_meta(m["router_spec"])
    return Router(params=_params_from_tensors(ck, "router", spec), spec=spec,
                  modality_order=tuple(m["modality_order"]),
                  emb_dims=tuple(m["emb_dims"]))


def save_fusion(policy, path, *, env_name: str, seed: int, config_hash: str) -> None:
    """Save a ConcatPolicy or MoEFeaturePolicy checkpoint."""
    if isinstance(policy, ConcatPolicy):
        kind = "concat"
    elif isinstance(policy, MoEFeaturePolicy):
        kind = "moe"
    else:
        raise ContractError(f"not a fusion policy: {type(policy).__name__}")
    meta = common_metadata(kind, policy.stats, policy.sched, env_name, seed,
                           config_hash)
    encs = policy.encoders
    meta.update({"modality_order": [enc.modality for enc in encs],
                 "modality_dims": [enc.spec.input_dim for enc in encs],
                 "robot_dim": encs[0].robot_dim,
                 "encoder_specs": [_spec_meta(enc.spec) for enc in encs],
                 "score_spec": _spec_meta(policy.score_spec),
                 "sigma_mode": policy.sched.sigma_mode})
    tensors = {}
    for enc in encs:
        tensors.update(_params_tensors(f"enc_{enc.modality}", enc.params))
    tensors.update(_params_tensors("score", policy.score_params))
    if kind == "moe":
        meta["gate_spec"] = _spec_meta(policy.gate.spec)
        tensors.update(_params_tensors("gate", policy.gate.params))
    save_checkpoint(tensors, meta, path)


@_typed_reader("concat", "moe")
def fusion_from_checkpoint(ck: Checkpoint):
    m = ck.metadata
    if not len(m["modality_order"]) == len(m["modality_dims"]) == len(m["encoder_specs"]):
        raise FormatError("fusion checkpoint modality_order, modality_dims and "
                          "encoder_specs differ in length")
    encoders = [_encoder_from_checkpoint(ck, f"enc_{name}", name, dim, sm, m["robot_dim"])
                for name, dim, sm in zip(m["modality_order"], m["modality_dims"],
                                         m["encoder_specs"])]
    score_spec = _spec_from_meta(m["score_spec"])
    parts = dict(encoders=encoders, score_params=_params_from_tensors(ck, "score", score_spec),
                 score_spec=score_spec, sched=_sched_from_meta(m),
                 stats=_stats_from_meta(m["stats"]))
    if m["kind"] == "concat":
        return ConcatPolicy(**parts)
    gate_spec = _spec_from_meta(m["gate_spec"])
    gate = Router(params=_params_from_tensors(ck, "gate", gate_spec), spec=gate_spec,
                  modality_order=tuple(m["modality_order"]),
                  emb_dims=tuple(enc.emb_dim for enc in encoders))
    return MoEFeaturePolicy(gate=gate, **parts)


def check_compose_compatibility(metas: list[dict]) -> None:
    """Checkpoints composed into one policy must agree on what it computes:
    env, action stats, noise schedule, and the experts' sigma_mode (absent
    is beta; a router samples nothing and names none). Their config hashes
    only record their runs, so runs that differ elsewhere compose."""
    if not metas:
        raise ContractError("nothing to check")
    seen: dict = {}
    for m in metas:
        facts = {key: m.get(key) for key in ("env", "stats", "schedule")}
        if m.get("kind") != "router":
            facts["sigma_mode"] = m.get("sigma_mode", "beta")
        for key, value in facts.items():
            want = seen.setdefault(key, value)
            if value != want:
                raise ContractError(f"incompatible checkpoints: {key} differs "
                                    f"({value!r} vs {want!r})")
