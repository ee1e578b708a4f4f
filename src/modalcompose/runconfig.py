"""Run configuration: typed sections, a small `key = value` file format, and
stable hashing so checkpoints can record exactly what produced them.

File format: lines of ``key = value`` grouped under ``[section]`` headers.
Blank lines are ignored; a ``#`` that begins a line or follows whitespace
starts a comment. Unknown sections or keys are hard errors so experiment
typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .diffusion import SIGMA_MODES
from .errors import ConfigError
from .numcore import ACTIVATIONS
from .router import STRATEGIES


def _require(ok: bool, key: str, value, want: str) -> None:
    """Refuse a section value when the config is built, naming its key."""
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")


@dataclass(frozen=True)
class EnvConfig:
    name: str = "occluded_reach"
    modalities: tuple[str, ...] = ()   # must stay empty: the env's native order


@dataclass(frozen=True)
class DiffusionConfig:
    steps: int = 50            # denoising steps per action sample
    beta_start: float = 1e-4
    beta_end: float = 0.02
    horizon: int = 1           # actions predicted per control step
    sigma_mode: str = "beta"   # beta | beta_tilde

    def __post_init__(self):
        _require(self.steps >= 1, "[diffusion] steps", self.steps, ">= 1")
        _require(0.0 < self.beta_start <= self.beta_end < 1.0, "[diffusion] beta_start",
                 (self.beta_start, self.beta_end), "in (0, beta_end] with beta_end < 1")
        _require(self.horizon >= 1, "[diffusion] horizon", self.horizon, ">= 1")
        _require(self.sigma_mode in SIGMA_MODES, "[diffusion] sigma_mode", self.sigma_mode,
                 f"one of {SIGMA_MODES}")


@dataclass(frozen=True)
class ExpertConfig:
    enc_hidden: tuple[int, ...] = (64, 64)
    enc_out: int = 32
    score_hidden: tuple[int, ...] = (64, 64)   # every score net's hidden widths
    activation: str = "tanh"

    def __post_init__(self):
        _require(self.enc_out >= 1, "[expert] enc_out", self.enc_out, ">= 1")
        for key in ("enc_hidden", "score_hidden"):
            widths = getattr(self, key)
            _require(all(w >= 1 for w in widths), f"[expert] {key}", widths, "widths >= 1")
        _require(self.activation in ACTIVATIONS, "[expert] activation", self.activation,
                 f"one of {tuple(ACTIVATIONS)}")


@dataclass(frozen=True)
class RouterConfig:
    hidden: tuple[int, ...] = (64,)
    joint: bool = False        # train router jointly with experts

    def __post_init__(self):
        _require(all(w >= 1 for w in self.hidden), "[router] hidden", self.hidden,
                 "widths >= 1")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch: int = 64
    lr: float = 1e-3
    router_steps: int = 2000

    def __post_init__(self):
        _require(self.steps >= 0, "[train] steps", self.steps, ">= 0")
        _require(self.router_steps >= 0, "[train] router_steps", self.router_steps, ">= 0")
        _require(self.batch >= 1, "[train] batch", self.batch, ">= 1")
        _require(0.0 < self.lr < float("inf"), "[train] lr", self.lr, "finite and > 0")


@dataclass(frozen=True)
class ProbeConfig:
    sigma_scale: float = 0.1   # noise stddev = scale x per-coordinate data stddev
    ema_alpha: float = 0.1
    draws: int = 1             # perturbation draws averaged per (step, modality)
    modalities: tuple[str, ...] = ()   # empty = probe all

    def __post_init__(self):
        _require(self.draws >= 1, "[probe] draws", self.draws, ">= 1")
        _require(0.0 <= self.sigma_scale < float("inf"), "[probe] sigma_scale",
                 self.sigma_scale, "finite and >= 0")
        _require(len(set(self.modalities)) == len(self.modalities), "[probe] modalities",
                 self.modalities, "distinct")
        _require(0.0 < self.ema_alpha <= 1.0, "[probe] ema_alpha", self.ema_alpha,
                 "in (0, 1]")


@dataclass(frozen=True)
class RunSection:
    """Per-run orchestration knobs: these never affect model compatibility."""

    seed: int = 0
    methods: tuple[str, ...] = ()   # empty = every expert + router + concat + moe
    strategy: str = "soft"          # soft | hard | top2, applied at composition
    dataset: str = ""               # .mcds path; empty = derived from out dir
    demos: int = 100
    eval_n: int = 200
    out: str = "runs"

    def __post_init__(self):
        _require(self.strategy in STRATEGIES, "[run] strategy", self.strategy,
                 f"one of {STRATEGIES}")
        _require(self.demos >= 1, "[run] demos", self.demos, ">= 1")
        _require(self.eval_n >= 1, "[run] eval_n", self.eval_n, ">= 1")


@dataclass(frozen=True)
class RunConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    run: RunSection = field(default_factory=RunSection)

    def with_section(self, section: str, /, **updates) -> "RunConfig":
        return replace(self, **{section: replace(getattr(self, section), **updates)})


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _parse_value(raw: str, template, where: str):
    if isinstance(template, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got '{raw}'")
    if isinstance(template, (int, float)):
        try:
            return type(template)(raw)
        except ValueError:
            what = "an integer" if isinstance(template, int) else "a number"
            raise ConfigError(f"{where}: expected {what}, got '{raw}'") from None
    if isinstance(template, tuple):
        if raw.strip() == "":
            return ()
        parts = [p.strip() for p in raw.split(",")]
        if template and isinstance(template[0], int):
            try:
                return tuple(int(p) for p in parts)
            except ValueError:
                raise ConfigError(f"{where}: expected comma-separated ints, got '{raw}'") from None
        return tuple(parts)
    return raw


# a comment starts at a '#' that begins a line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    section = None
    sec_updates: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section '[{section}]' "
                    f"(known: {', '.join(sorted(_SECTIONS))})"
                )
            sec_updates.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigError(f"line {lineno}: key before any [section] header")
        key, raw = (part.strip() for part in line.split("=", 1))
        sec_obj = getattr(cfg, section)
        known = {f.name for f in fields(sec_obj)}
        if key not in known:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' in [{section}] "
                f"(known: {', '.join(sorted(known))})"
            )
        template = getattr(sec_obj, key)
        sec_updates[section][key] = _parse_value(raw, template, f"line {lineno}: {section}.{key}")
    for section, updates in sec_updates.items():
        if updates:
            cfg = cfg.with_section(section, **updates)
    if cfg.env.modalities:
        raise ConfigError("[env] modalities is not yet supported (ROADMAP item 4)")
    return cfg


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, base)


def _section_lines(cfg: RunConfig, name: str) -> list[str]:
    """One section's header and canonical ``key = value`` lines."""
    sec = getattr(cfg, name)
    lines = [f"[{name}]"]
    for f in fields(sec):
        v = getattr(sec, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return lines


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization; parsing it back reproduces cfg exactly."""
    return "\n".join(line for f in fields(RunConfig)
                     for line in _section_lines(cfg, f.name) + [""])


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()[:16]


def model_hash(cfg: RunConfig) -> str:
    """Each checkpoint's ``config_hash``, over every section but [probe] and
    [run]: a record of the run that trained it, which composing does not
    compare."""
    text = "\n".join(line for name in ("env", "diffusion", "expert", "router", "train")
                     for line in _section_lines(cfg, name))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
