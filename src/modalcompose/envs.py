"""Synthetic 2-D reaching environments with phase-dependent sensors, scripted
demonstrators, and the binary demonstration-dataset format.

occluded_reach: the agent starts in the left third of the arena and must
finish within ``r_s`` of a target hidden inside an occlusion box. Vision
reports the agent position plus an *apparent* target position that carries a
per-episode calibration offset and blanks out once the agent is inside the
box; touch reports the true target offset but only within contact range
``r_c``. The offset magnitude sits between ``r_s`` and ``r_c``, so vision
alone gets you near the target but only touch can land the final approach.

phase_reach: two waypoints must be visited in order; each modality observes
exactly one of them. A second, cleaner phase-shift testbed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .rngstream import TAG_DATA, TAG_OBS, stream

ARENA_LO, ARENA_HI = -1.0, 1.0


@dataclass(frozen=True)
class EnvSpec:
    name: str
    r_c: float = 0.15            # contact radius (touch range)
    r_s: float = 0.05            # success radius
    t_max: int = 80
    v_max: float = 0.08          # displacement per unit action
    sigma_e: float = 0.02        # demonstrator exploration noise, approach phase
    sigma_vis: float = 0.10      # vision position-read noise (never on touch)
    # occlusion box (occluded_reach)
    box_x: tuple[float, float] = (0.3, 0.9)
    box_y: tuple[float, float] = (-0.3, 0.3)
    # apparent-target offset: |dx| <= off_x, |dy| in [off_y_lo, off_y_hi]
    off_x: float = 0.05
    off_y_lo: float = 0.06
    off_y_hi: float = 0.12

    def modality_dims(self) -> dict[str, int]:
        if self.name == "occluded_reach":
            return {"vis": 5, "tac": 3}
        return {"wpa": 3, "wpb": 3}

    @property
    def robot_dim(self) -> int:
        return 2

    @property
    def action_dim(self) -> int:
        return 2


def make_env_spec(name: str) -> EnvSpec:
    if name not in ("occluded_reach", "phase_reach"):
        raise ConfigError(f"unknown env '{name}'")
    return EnvSpec(name=name)


@dataclass(frozen=True)
class EnvState:
    spec: EnvSpec
    p: np.ndarray                # agent position
    q: np.ndarray                # true target (occluded_reach) / waypoint 2
    t: int = 0
    done: bool = False
    success: bool = False
    q_vis: np.ndarray | None = None   # apparent target shown to vision
    w1: np.ndarray | None = None      # first waypoint (phase_reach)
    visited1: bool = False
    noise_key: int = 0           # labels the episode's vision-noise stream


@dataclass
class Observation:
    modalities: dict[str, np.ndarray]
    robot_state: np.ndarray

    def copy(self) -> "Observation":
        return Observation({k: v.copy() for k, v in self.modalities.items()},
                           self.robot_state.copy())


def _in_box(spec: EnvSpec, p: np.ndarray) -> bool:
    return (spec.box_x[0] <= p[0] <= spec.box_x[1]
            and spec.box_y[0] <= p[1] <= spec.box_y[1])


def observe(state: EnvState) -> Observation:
    """Pure function of the state: the vision read noise at step t comes from
    a counter-based stream keyed by (episode noise key, t), so re-observing
    the same state reproduces the same reading bit for bit."""
    spec, p = state.spec, state.p
    if spec.name == "occluded_reach":
        # read noise hits the camera's estimate of the agent position only;
        # the target reading is clean (its error is the per-episode offset)
        eta = stream(state.noise_key, TAG_OBS, state.t).normal(0.0, spec.sigma_vis, size=2)
        if _in_box(spec, p):
            vis = np.array([p[0] + eta[0], p[1] + eta[1], 0.0, 0.0, 1.0])
        else:
            vis = np.array([p[0] + eta[0], p[1] + eta[1],
                            state.q_vis[0], state.q_vis[1], 0.0])
        d = state.q - p
        if np.hypot(d[0], d[1]) <= spec.r_c:
            tac = np.array([1.0, d[0], d[1]])
        else:
            tac = np.zeros(3)
        return Observation({"vis": vis, "tac": tac}, p.copy())
    # phase_reach: each modality sees its own waypoint offset plus the
    # visited flag; waypoint 1 blanks out once reached.
    if state.visited1:
        wpa = np.array([1.0, 0.0, 0.0])
    else:
        wpa = np.array([0.0, state.w1[0] - p[0], state.w1[1] - p[1]])
    wpb = np.array([1.0 if state.visited1 else 0.0,
                    state.q[0] - p[0], state.q[1] - p[1]])
    return Observation({"wpa": wpa, "wpb": wpb}, p.copy())


def _draw_target(spec: EnvSpec, rng: np.random.Generator) -> np.ndarray:
    """occluded_reach's true target, with clearance so that the apparent
    point stays in the box."""
    return np.array([rng.uniform(spec.box_x[0] + spec.off_x + 0.01,
                                 spec.box_x[1] - spec.off_x - 0.01),
                     rng.uniform(spec.box_y[0] + spec.off_y_hi + 0.01,
                                 spec.box_y[1] - spec.off_y_hi - 0.01)])


def env_reset(spec: EnvSpec, rng: np.random.Generator) -> tuple[EnvState, Observation]:
    """Sample a fresh episode. Deterministic given the rng stream."""
    if spec.name == "occluded_reach":
        p = np.array([rng.uniform(ARENA_LO, ARENA_LO + 2.0 / 3.0),
                      rng.uniform(ARENA_LO, ARENA_HI)])
        q = _draw_target(spec, rng)
        dx = rng.uniform(-spec.off_x, spec.off_x)
        dy = rng.uniform(spec.off_y_lo, spec.off_y_hi) * (1.0 if rng.random() < 0.5 else -1.0)
        q_vis = q - np.array([dx, dy])
        nk = int(rng.integers(0, 2**63))
        state = EnvState(spec=spec, p=p, q=q, q_vis=q_vis, noise_key=nk)
    else:
        p = np.array([rng.uniform(-0.9, -0.3), rng.uniform(-0.7, 0.7)])
        w1 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.7, 0.7)])
        w2 = np.array([rng.uniform(0.4, 0.8), rng.uniform(-0.7, 0.7)])
        state = EnvState(spec=spec, p=p, q=w2, w1=w1)
    return state, observe(state)


def env_step(state: EnvState, action: np.ndarray) -> tuple[EnvState, Observation, bool, bool]:
    """Advance one step: p' = clip(p + v_max * action); success within r_s."""
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (2,) or not np.all(np.isfinite(action)):
        raise ContractError(f"action must be a finite 2-vector, got {action!r}")
    if state.done:
        raise ContractError("env_step called on a finished episode")
    spec = state.spec
    p = np.clip(state.p + spec.v_max * action, ARENA_LO, ARENA_HI)
    t = state.t + 1
    visited1 = state.visited1
    if spec.name == "phase_reach" and not visited1:
        if np.linalg.norm(p - state.w1) <= spec.r_s:
            visited1 = True
        success = False
    else:
        success = bool(np.linalg.norm(p - state.q) <= spec.r_s)
    if spec.name == "phase_reach":
        success = success and visited1
    done = success or t >= spec.t_max
    # built directly: dataclasses.replace takes about twice as long
    new = EnvState(spec, p, state.q, t, done, success, state.q_vis, state.w1, visited1,
                   state.noise_key)
    return new, observe(new), done, success


def teleport_target(state: EnvState, rng: np.random.Generator) -> EnvState:
    """Move the target to a fresh draw from the reset distribution.

    For occluded_reach the per-episode calibration offset is preserved, so the
    apparent target moves with the true one. Used by runtime-perturbation and
    repositioning scenarios.
    """
    spec = state.spec
    if spec.name == "occluded_reach":
        q = _draw_target(spec, rng)
        offset = state.q - state.q_vis
        return replace(state, q=q, q_vis=q - offset)
    w2 = np.array([rng.uniform(0.4, 0.8), rng.uniform(-0.7, 0.7)])
    return replace(state, q=w2)


def _toward(target: np.ndarray, p: np.ndarray, v_max: float) -> np.ndarray:
    """Unit direction, scaled down on the landing step to stop exactly on it."""
    d = target - p
    dist = np.linalg.norm(d)
    if dist < 1e-12:
        return np.zeros(2)
    return d / dist * min(1.0, dist / v_max)


def scripted_expert(state: EnvState, rng: np.random.Generator) -> np.ndarray:
    """Oracle demonstrator acting only on information a sensor could supply.

    occluded_reach: approach the box edge at the apparent target's height
    (with exploration noise), then head for the apparent target, then home on
    the true target once inside contact range. phase_reach: waypoint 1, then
    waypoint 2.
    """
    spec, p = state.spec, state.p
    if spec.name == "occluded_reach":
        if np.linalg.norm(state.q - p) <= spec.r_c:
            a = _toward(state.q, p, spec.v_max)
        elif _in_box(spec, p):
            a = _toward(state.q_vis, p, spec.v_max)
        else:
            entry = np.array([spec.box_x[0], state.q_vis[1]])
            a = _toward(entry, p, spec.v_max) + rng.normal(0.0, spec.sigma_e, size=2)
        return np.clip(a, -1.0, 1.0)
    target = state.q if state.visited1 else state.w1
    a = _toward(target, p, spec.v_max) + rng.normal(0.0, spec.sigma_e, size=2)
    return np.clip(a, -1.0, 1.0)


# ---------------------------------------------------------------------------
# demonstration datasets

@dataclass
class Episode:
    modalities: dict[str, np.ndarray]   # name -> (T, dim)
    robot: np.ndarray                   # (T, robot_dim)
    actions: np.ndarray                 # (T, action_dim)

    @property
    def length(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class ActionStats:
    """Per-coordinate min/max normalization of actions to [-1, 1].

    Degenerate coordinates (max == min) keep unit scale around the constant
    so normalization stays invertible. Chunked targets (horizon > 1) apply
    the per-step stats to every step slice.
    """

    act_min: np.ndarray
    act_max: np.ndarray
    action_dim: int
    horizon: int

    @property
    def chunk_dim(self) -> int:
        return self.action_dim * self.horizon

    @cached_property
    def _span_ok(self):
        """The span, 1 where degenerate, and the mask of nondegenerate
        coordinates, computed on first use, not on every call."""
        span = self.act_max - self.act_min
        ok = span > 1e-12
        return np.where(ok, span, 1.0), ok

    def normalize(self, a: np.ndarray) -> np.ndarray:
        span, ok = self._span_ok
        return np.where(ok, 2.0 * (a - self.act_min) / span - 1.0, a - self.act_min)

    def denormalize(self, a: np.ndarray) -> np.ndarray:
        span, ok = self._span_ok
        return np.where(ok, self.act_min + (a + 1.0) * span / 2.0, self.act_min + a)

    def normalize_chunk(self, chunk: np.ndarray) -> np.ndarray:
        shp = chunk.shape
        x = chunk.reshape(shp[:-1] + (self.horizon, self.action_dim))
        return self.normalize(x).reshape(shp)

    def denormalize_chunk(self, chunk: np.ndarray) -> np.ndarray:
        shp = chunk.shape
        x = chunk.reshape(shp[:-1] + (self.horizon, self.action_dim))
        return self.denormalize(x).reshape(shp)

    def key(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.act_min.astype("<f8").tobytes())
        h.update(self.act_max.astype("<f8").tobytes())
        h.update(struct.pack("<II", self.action_dim, self.horizon))
        return h.hexdigest()[:16]


@dataclass
class Dataset:
    env_name: str
    modality_dims: dict[str, int]
    robot_dim: int
    action_dim: int
    horizon: int
    episodes: list[Episode]
    act_min: np.ndarray
    act_max: np.ndarray
    _rows_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def n_steps(self) -> int:
        return sum(ep.length for ep in self.episodes)

    @property
    def chunk_dim(self) -> int:
        return self.action_dim * self.horizon

    def stats(self) -> ActionStats:
        return ActionStats(self.act_min, self.act_max, self.action_dim, self.horizon)

    # -- flattened training views -----------------------------------------

    def _flat(self):
        if "flat" not in self._rows_cache:
            mods = {name: [] for name in self.modality_dims}
            rs, acts = [], []
            h = self.horizon
            for ep in self.episodes:
                t_use = ep.length - h + 1
                if t_use <= 0:
                    continue
                for name in self.modality_dims:
                    mods[name].append(ep.modalities[name][:t_use])
                rs.append(ep.robot[:t_use])
                if h == 1:
                    acts.append(ep.actions)
                else:
                    chunks = [ep.actions[i:i + t_use] for i in range(h)]
                    acts.append(np.concatenate(chunks, axis=1))
            self._rows_cache["flat"] = (
                {name: np.concatenate(v) for name, v in mods.items()},
                np.concatenate(rs),
                self.stats().normalize_chunk(np.concatenate(acts)),
            )
        return self._rows_cache["flat"]

    def training_cond_rows(self, order) -> tuple[np.ndarray, np.ndarray, list[slice]]:
        """Normalized action chunks over all steps, condition rows
        [modalities in `order`..., robot state], and each block's column
        slice in the condition rows."""
        mods, rs, acts = self._flat()
        missing = [m for m in order if m not in mods]
        if missing:
            raise ConfigError(f"modalities {missing} not in dataset")
        blocks = [mods[m] for m in order] + [rs]
        slices, off = [], 0
        for b in blocks:
            slices.append(slice(off, off + b.shape[1]))
            off += b.shape[1]
        return acts, np.concatenate(blocks, axis=1), slices

    def modality_stds(self) -> dict[str, np.ndarray]:
        """Per-coordinate standard deviation of each raw modality stream."""
        mods, _, _ = self._flat()
        return {name: rows.std(axis=0) for name, rows in mods.items()}

    # -- binary round-trip --------------------------------------------------

    def write(self, path: str | Path) -> None:
        buf = bytearray(b"MCDS" + struct.pack("<I", 1))
        name_b = self.env_name.encode("utf-8")
        buf += struct.pack("<H", len(name_b)) + name_b
        buf += struct.pack("<I", len(self.episodes))
        buf += struct.pack("<H", len(self.modality_dims))
        for mname, dim in self.modality_dims.items():
            mb = mname.encode("utf-8")
            buf += struct.pack("<H", len(mb)) + mb
            buf += struct.pack("<I", dim)
        buf += struct.pack("<III", self.robot_dim, self.action_dim, self.horizon)
        for ep in self.episodes:
            # one row per step: every modality in order, robot state, action
            cols = [ep.modalities[m] for m in self.modality_dims] + [ep.robot, ep.actions]
            buf += struct.pack("<I", ep.length)
            buf += np.concatenate(cols, axis=1).astype("<f8").tobytes()
        buf += self.act_min.astype("<f8").tobytes()
        buf += self.act_max.astype("<f8").tobytes()
        Path(path).write_bytes(bytes(buf))

    @classmethod
    def read(cls, path: str | Path) -> "Dataset":
        r = _Reader(read_file(path, "dataset"), str(path))
        if r.take(4) != b"MCDS":
            raise FormatError(f"{path}: bad magic, not a dataset file")
        version = r.u32()
        if version != 1:
            raise FormatError(f"{path}: unsupported dataset version {version}")
        env_name = r.text("env name")
        n_eps = r.u32()
        n_mods = r.u16()
        modality_dims: dict[str, int] = {}
        for _ in range(n_mods):
            mname = r.text("modality name")
            if mname in modality_dims:
                raise FormatError(f"{path}: repeated modality name {mname!r}")
            modality_dims[mname] = r.u32()
        robot_dim, action_dim, horizon = r.unpack("<III")
        if horizon < 1 or action_dim < 1:
            raise FormatError(f"{path}: horizon {horizon} and action_dim {action_dim} "
                              f"must be >= 1")
        widths = [*modality_dims.values(), robot_dim, action_dim]
        episodes = []
        for _ in range(n_eps):
            t_len = r.u32()
            rows = r.f64(t_len * sum(widths)).reshape(t_len, sum(widths))
            cols = [np.ascontiguousarray(c)
                    for c in np.split(rows, np.cumsum(widths)[:-1], axis=1)]
            episodes.append(Episode(dict(zip(modality_dims, cols)), cols[-2], cols[-1]))
        act_min = r.f64(action_dim)
        act_max = r.f64(action_dim)
        r.expect_end()
        if (act_min > act_max).any():
            raise FormatError(f"{path}: action minimum {act_min} above maximum {act_max}")
        return cls(env_name=env_name, modality_dims=modality_dims,
                   robot_dim=robot_dim, action_dim=action_dim, horizon=horizon,
                   episodes=episodes, act_min=act_min, act_max=act_max)


def read_file(path, what: str) -> bytes:
    """A file's bytes; a path that is no readable file is a FormatError."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise FormatError(f"cannot read {what}: {exc}") from None


class _Reader:
    """Bounds-checked little-endian reads of a binary file (datasets and
    checkpoints): running past the end is a FormatError."""

    def __init__(self, raw: bytes, where: str):
        self.raw = raw
        self.pos = 0
        self.where = where

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.raw):
            raise FormatError(f"{self.where}: truncated (wanted {n} bytes at {self.pos})")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u16(self) -> int:
        return self.unpack("<H")[0]

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def text(self, what: str) -> str:
        """A u16-length-prefixed UTF-8 string; bad bytes are a FormatError."""
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.where}: bad {what}: {exc}") from None

    def f64(self, n: int) -> np.ndarray:
        """n float64 values, all finite: a NaN or Inf is a FormatError."""
        out = np.frombuffer(self.take(8 * n), dtype="<f8").copy()
        if not np.isfinite(out).all():
            raise FormatError(f"{self.where}: non-finite value before byte {self.pos}")
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.raw):
            raise FormatError(f"{self.where}: {len(self.raw) - self.pos} trailing bytes")


def run_expert_episode(spec: EnvSpec, rng: np.random.Generator) -> tuple[Episode, bool]:
    """One scripted-demonstrator rollout recorded as (observation, action) rows."""
    state, obs = env_reset(spec, rng)
    mods = {name: [] for name in spec.modality_dims()}
    robot, actions = [], []
    success = False
    while not state.done:
        a = scripted_expert(state, rng)
        for name in mods:
            mods[name].append(obs.modalities[name])
        robot.append(obs.robot_state)
        actions.append(a)
        state, obs, done, success = env_step(state, a)
    ep = Episode({name: np.array(v) for name, v in mods.items()},
                 np.array(robot), np.array(actions))
    return ep, success


def generate_dataset(spec: EnvSpec, n_episodes: int, seed: int,
                     path: str | Path | None = None, horizon: int = 1) -> Dataset:
    """n successful demonstrations; failed attempts are discarded and
    resampled from the next per-attempt rng stream."""
    if n_episodes < 1:
        raise ConfigError(f"need n_episodes >= 1, got {n_episodes}")
    episodes = []
    attempt = 0
    while len(episodes) < n_episodes:
        rng = stream(seed, TAG_DATA, attempt)
        attempt += 1
        if attempt > n_episodes * 20:
            raise ContractError("demonstrator failing too often; env misconfigured")
        ep, success = run_expert_episode(spec, rng)
        if success:
            episodes.append(ep)
    all_actions = np.concatenate([ep.actions for ep in episodes])
    ds = Dataset(env_name=spec.name, modality_dims=spec.modality_dims(),
                 robot_dim=spec.robot_dim, action_dim=spec.action_dim,
                 horizon=horizon, episodes=episodes,
                 act_min=all_actions.min(axis=0), act_max=all_actions.max(axis=0))
    if path is not None:
        ds.write(path)
    return ds
