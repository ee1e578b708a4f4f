"""The three workloads, their set-up, and the checks of their outputs.

Every run first sets up a reference model: 100 scripted demonstrations and
all five methods trained briefly, from a fixed model seed, saved and loaded
back into the six policy kinds the acceptance gate evaluates. The model does
not depend on the workload seed, so the episode rates reflect the code and
the seeded episodes, not how well one seed's training happened to go.

A run then repeats whole rounds until the run length is used up. A round is
one unit of each phase (train, eval, probe). The workload's own phase draws
its inputs from streams keyed by the workload seed and the round; the other
two run small fixed reference inputs, the same in every round and for every
seed. So every end-to-end metric is measured on every workload, and each is
sampled across the whole run rather than in one stretch of it.

The machine's speed drifts by 10-30 % over seconds and between runs (other
tenants share the host), and all timings of a run move together with it. A
fixed calibration loop of the program's kind of work (one-row passes through
a small tanh MLP) therefore runs before every timed operation; each timing is
scaled by the calibration's reference time over the mean calibration around
the operation. Reported times are the times at the reference machine speed;
the raw ones are printed beside them. Set-up time is the exception: it is
reported as measured (wall time), since the calibrations tracked it less
well than no scaling did. The scaling holds only for one thread in one
process, so every round also checks that it ran so (`_one_thread`).
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from modalcompose import analysis as an
from modalcompose import checkpoint as cpt
from modalcompose import compose, envs, pipeline as pl, rollout, rngstream
from modalcompose.runconfig import RunConfig

import refcheck as rc

ENV = "occluded_reach"
MODEL_SEED = 0
REF_SEED = 777
KINDS = ("vis", "tac", "equal", "learned", "concat", "moe")
PHASES = ("train", "eval", "act", "probe", "robust")   # timed operations
CLOCK = time.perf_counter
CALIB_REF_MS = 4.0   # one calibration at the reference speed
CALIB_WINDOW_S = 0.5
CALIB_EVERY_S = 0.1
CALIB_MAX = 30
START_CALIBRATIONS = 10   # ahead of the first round
DEMOS = 100
SETUP_STEPS = 300            # per expert / concat / MoE in set-up
SETUP_ROUTER_STEPS = 100
SETUP_LR = 2e-3              # trains a usable model in few steps
REF_TRAIN_STEPS = 60         # reference training unit, per method
REF_LEARNED_N = 2            # reference learned episodes per round
REF_PROBE_N = 2              # reference probed episodes per round
TELEPORT_STEP = 15
CHECK_OBS = 2                # observations per kind for the sampler check
LEARNED_CHECK_N = 12         # episodes for learned-vs-random, at least
LANES = ("train", "eval", "probe")   # the phases' operations, traced apart


class Calibration:
    """A fixed amount of the program's kind of work: one-row passes through
    a three-layer 64-wide tanh MLP, timed in milliseconds."""

    def __init__(self, passes: int = 400):
        g = np.random.default_rng(0)
        self.weights = [0.1 * g.standard_normal((64, 64)) for _ in range(3)]
        self.x = g.standard_normal((1, 64))
        self.passes = passes

    def __call__(self) -> float:
        t0 = CLOCK()
        for _ in range(self.passes):
            h = self.x
            for w in self.weights:
                h = np.tanh(h @ w)
        return 1e3 * (CLOCK() - t0)


@dataclass(frozen=True)
class Sizes:
    """The sizes the benchmark's own tests shrink."""

    setups: int = 3                 # setup_s is the median of these
    train_ops: int = 2              # gen_data + run_training per train round
    train_steps_per_run_s: int = 6  # steps per train op = this x run seconds
    eval_n: int = 2                 # episodes per kind per round
    probe_n: int = 2                # probed episodes per round
    robust_n: int = 2               # episodes per scenario per round
    min_rounds: int = 2             # rounds per untraced run, at least
    trace_rounds: int = 1           # rounds per traced run


SCENARIOS = (
    ("baseline", None),
    ("corrupt:zero:vis@entry",
     an.ScenarioSpec(kind="corruption", corruption=an.CorruptionMode("zero", "vis"),
                     onset="occlusion_entry")),
    (f"teleport@{TELEPORT_STEP}",
     an.ScenarioSpec(kind="runtime_perturbation", step_star=TELEPORT_STEP)),
)


class Recorder:
    """Passes act() through and keeps every (observation, action) pair."""

    def __init__(self, policy):
        self.policy = policy
        self.steps: list = []

    def n_params(self) -> int:
        return self.policy.n_params()

    def act(self, obs, rng):
        a = self.policy.act(obs, rng)
        self.steps.append((obs, a))
        return a


@dataclass
class Model:
    cfg: RunConfig
    data_path: Path
    paths: dict
    dataset: envs.Dataset
    policies: dict
    sigmas: dict


@dataclass
class Phases:
    """Work done and time taken per phase, plus records for the checks."""

    timed: list = field(default_factory=list)   # [phase, work, seconds, start]
    calib: list = field(default_factory=list)   # (time, calibration ms)
    train_rounds: list = field(default_factory=list)   # (data_path, paths)
    eval_rounds: list = field(default_factory=list)    # (kind, seed, n, row, steps)
    probe_traces: list = field(default_factory=list)   # (seed, episode, trace)
    robust_results: list = field(default_factory=list)  # (label, seed, n, result)

    def calibrate(self, calibration, times: int = 1) -> None:
        for _ in range(times):
            t0 = CLOCK()
            ms = calibration()
            self.calib.append(((t0 + CLOCK()) / 2, ms))

    def seconds(self, phase: str, scaled: bool = True) -> np.ndarray:
        """Durations of one phase's operations, at the reference speed unless
        `scaled` is false. An operation is scaled by the mean calibration
        within CALIB_WINDOW_S of its start and end."""
        rows = np.array([(dt, t0) for p, _, dt, t0 in self.timed if p == phase])
        dt, start = rows.T
        if not scaled:
            return dt
        t, ms = np.array(self.calib).T
        lo = np.searchsorted(t, start - CALIB_WINDOW_S)
        hi = np.searchsorted(t, start + dt + CALIB_WINDOW_S, side="right")
        return dt * CALIB_REF_MS / np.array([ms[a:b].mean() for a, b in zip(lo, hi)])

    def rate(self, phase: str, scaled: bool = True) -> float:
        work = sum(w for p, w, _, _ in self.timed if p == phase)
        return work / float(np.sum(self.seconds(phase, scaled)))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, out: Path,
                 sizes: Sizes = Sizes(), log=sys.stdout):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.sizes = sizes
        self.log = log
        self.spec = envs.make_env_spec(ENV)
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.calibration = Calibration()
        self.tracer = None   # set while a traced round runs

    # -- accounting -------------------------------------------------------------

    def op(self, fn, *args, **kwargs):
        """One program operation; a raise counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, result) -> None:
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
        print(f"check {'ok  ' if ok else 'FAIL'} {detail}", file=self.log)

    # -- seeds --------------------------------------------------------------------

    def round_seed(self, r: int, slot: int) -> int:
        return 1_000_000 * (self.seed + 1) + 100 * r + slot

    # -- set-up ---------------------------------------------------------------------

    def setup(self) -> Model:
        """Train, save and load the reference model."""
        cfg = (RunConfig()
               .with_section("run", seed=MODEL_SEED, demos=DEMOS,
                             out=str(self.out / "model"))
               .with_section("train", steps=SETUP_STEPS,
                             router_steps=SETUP_ROUTER_STEPS, lr=SETUP_LR))
        data_path = pl.gen_data(cfg)
        paths = pl.run_training(cfg)
        return self._load_model(cfg, data_path, paths)

    @staticmethod
    def _load_model(cfg: RunConfig, data_path: Path, paths: dict) -> Model:
        experts = {m: cpt.expert_from_checkpoint(cpt.load_checkpoint(paths[f"expert:{m}"]))
                   for m in ("vis", "tac")}
        (ex_vis, stats, sched), (ex_tac, _, _) = experts["vis"], experts["tac"]
        router = cpt.router_from_checkpoint(cpt.load_checkpoint(paths["router"]))
        policies = {
            "vis": compose.single_expert_policy(ex_vis, sched, stats),
            "tac": compose.single_expert_policy(ex_tac, sched, stats),
            "equal": compose.manual_compose([ex_vis, ex_tac], [0.5, 0.5], sched, stats),
            "learned": compose.compose_policy([ex_vis, ex_tac], router, "soft",
                                              sched, stats),
            "concat": cpt.fusion_from_checkpoint(cpt.load_checkpoint(paths["concat"])),
            "moe": cpt.fusion_from_checkpoint(cpt.load_checkpoint(paths["moe"])),
        }
        dataset = envs.Dataset.read(data_path)
        sigmas = an.probe_sigmas(dataset, cfg.probe.sigma_scale)
        return Model(cfg, data_path, paths, dataset, policies, sigmas)

    # -- phases -------------------------------------------------------------------
    # Each operation adds its work and time to `ph`; `keep` also stores what
    # the output checks need (only the workload's own, seeded phase keeps it).

    def train_op(self, ph: Phases, cfg: RunConfig, keep: bool) -> None:
        if keep:
            data_path = self.op(pl.gen_data, cfg)
            if data_path is None:
                return
        t0 = CLOCK()
        paths = self.op(pl.run_training, cfg)
        dt = CLOCK() - t0
        if paths is not None:
            ph.timed.append(["train", _train_steps(cfg), dt, t0])
            if keep:
                ph.train_rounds.append((data_path, paths))

    def eval_op(self, ph: Phases, model: Model, kind: str, n: int, seed: int,
                keep: bool) -> list:
        """run_eval of n episodes of one kind; returns the observations seen."""
        rec = Recorder(model.policies[kind])
        t0 = CLOCK()
        rows = self.op(pl.run_eval, rec, n, seed, env_name=ENV, method=kind)
        dt = CLOCK() - t0
        if rows is None:
            return []
        ph.timed.append(["eval", len(rec.steps), dt, t0])
        if keep:
            ph.eval_rounds.append((kind, seed, n, rows[0], rec.steps))
        return [obs for obs, _ in rec.steps]

    def latency_op(self, ph: Phases, policy, obs, rng) -> None:
        t0 = CLOCK()
        a = self.op(policy.act, obs, rng)
        dt = CLOCK() - t0
        if a is not None:
            ph.timed.append(["act", 1, dt, t0])

    def probe_op(self, ph: Phases, model: Model, seed: int, ep: int, keep: bool) -> None:
        t0 = CLOCK()
        trace = self.op(an.perturb_importance, model.policies["learned"], self.spec,
                        seed, model.cfg.probe, model.sigmas, episode=ep)
        dt = CLOCK() - t0
        if trace is not None:
            ph.timed.append(["probe", trace.steps, dt, t0])
            if keep:
                ph.probe_traces.append((seed, ep, trace))

    def robust_op(self, ph: Phases, model: Model, label: str, scenario, n: int,
                  seed: int, keep: bool) -> None:
        t0 = CLOCK()
        res = self.op(an.robustness_eval, model.policies["learned"], self.spec,
                      scenario, n, seed)
        dt = CLOCK() - t0
        if res is not None:
            # failed episodes run to t_max, so this is every step taken
            ph.timed.append(["robust", round(res[1] * n), dt, t0])
            if keep:
                ph.robust_results.append((label, seed, n, res))

    def round(self, ph: Phases, model: Model, r: int) -> None:
        """One unit of each phase: the workload's own on round r's seeded
        inputs, the other two on the fixed reference inputs.

        Every operation covers one episode (or one training run), and the
        operations of the phases are interleaved evenly over the round, so
        each metric is timed in many short pieces across the whole run. The
        learned policy's episodes run first: the latency calls replay their
        observations.
        """
        sz, own = self.sizes, self.workload
        if own == "train":
            steps = max(1, int(sz.train_steps_per_run_s * self.seconds))
            cfgs = [(RunConfig()
                     .with_section("run", seed=self.round_seed(r, i), demos=DEMOS,
                                   out=str(self.out / "train"))
                     .with_section("train", steps=steps, router_steps=max(1, steps // 3)))
                    for i in range(sz.train_ops)]
        else:
            cfgs = [model.cfg
                    .with_section("run", dataset=str(model.data_path),
                                  out=str(self.out / "ref-train"))
                    .with_section("train", steps=REF_TRAIN_STEPS,
                                  router_steps=max(1, REF_TRAIN_STEPS // 3))]
        # input slots within a round: eval 0-59 (10 per repeat), latency 69,
        # probed episodes 70, scenarios 80-99 (3 per repeat)
        if own == "eval":
            n_eval = n_learned = sz.eval_n
            eval_seed = lambda i, k: self.round_seed(r, 10 * i + k)
            lat_seed = self.round_seed(r, 69)
        else:
            n_eval, n_learned = 1, REF_LEARNED_N
            eval_seed = lambda i, k: REF_SEED + 10 * i + k
            lat_seed = REF_SEED + 69
        if own == "probe":
            n_probe, n_robust = sz.probe_n, sz.robust_n
            probe_seed = lambda k: self.round_seed(r, k)
        else:
            n_probe, n_robust = REF_PROBE_N, 1
            probe_seed = lambda k: REF_SEED + k

        wall0, cpu0 = CLOCK(), _cpu_seconds()
        learned = KINDS.index("learned")
        observed = []
        for i in range(n_learned):
            observed += self.calibrated(ph, partial(
                self.eval_op, ph, model, "learned", 1, eval_seed(i, learned),
                own == "eval"), "eval")
        policy = model.policies["learned"]
        lanes = [
            [("train", partial(self.train_op, ph, cfg, own == "train")) for cfg in cfgs],
            [("eval", partial(self.eval_op, ph, model, kind, 1, eval_seed(i, k),
                              own == "eval"))
             for i in range(n_eval) for k, kind in enumerate(KINDS) if k != learned],
            [("eval", partial(self.latency_op, ph, policy, obs,
                              rngstream.stream(lat_seed, rngstream.TAG_ACT, i)))
             for i, obs in enumerate(observed)],
            [("probe", partial(self.probe_op, ph, model, probe_seed(70), ep,
                               own == "probe"))
             for ep in range(n_probe)]
            + [("probe", partial(self.robust_op, ph, model, label, scenario, 1,
                                 probe_seed(80 + 3 * i + j), own == "probe"))
               for i in range(n_robust) for j, (label, scenario) in
               enumerate(SCENARIOS)],
        ]
        for lane, operation in _interleave(lanes):
            self.calibrated(ph, operation, lane)
        self.calibrated(ph, lambda: None)
        self.check(_one_thread(CLOCK() - wall0, _cpu_seconds() - cpu0))

    def calibrated(self, ph: Phases, operation, lane: str | None = None):
        """Run one operation right after calibrating: one calibration per
        CALIB_EVERY_S since the last (at most CALIB_MAX), so a long operation
        has as many calibrations beside it as a run of short ones. Under
        tracing, the operation's spans go to `lane`."""
        gap = CLOCK() - ph.calib[-1][0] if ph.calib else 0.0
        ph.calibrate(self.calibration, min(CALIB_MAX, 1 + int(gap / CALIB_EVERY_S)))
        if self.tracer is not None and lane is not None:
            self.tracer.select(lane)
        return operation()

    # -- checks -------------------------------------------------------------------

    def run_checks(self, ph: Phases, model: Model) -> None:
        if self.workload == "train":
            self.check_train(ph)
        elif self.workload == "eval":
            self.check_eval(ph, model)
        else:
            self.check_probe(ph, model)

    def check_train(self, ph: Phases) -> None:
        tmp = self.out / "roundtrip.mcpf"
        for data_path, paths in ph.train_rounds:
            dataset = envs.Dataset.read(data_path)
            for method, path in paths.items():
                self.check(rc.check_eps_mse(paths, method, dataset))
                self.check(rc.check_round_trip(path, tmp, cpt, paths["expert:vis"]))

    def check_eval(self, ph: Phases, model: Model) -> None:
        refs = _reference_policies(model.paths)
        first = {}
        for kind, seed, n, row, steps in ph.eval_rounds:
            first.setdefault(kind, steps)
            resets = []
            for ep in range(n):
                state, _ = envs.env_reset(
                    self.spec, rngstream.stream(seed, rngstream.TAG_EVAL, ep))
                resets.append((state.p, state.q))
            self.check(rc.check_replay(resets, steps, row, self.spec,
                                       f"{kind} seed {seed}"))
        for kind, steps in first.items():
            picks = np.linspace(0, len(steps) - 1, CHECK_OBS).astype(int)
            obs = [steps[i][0] for i in picks]
            self.check(rc.check_act_matches(
                model.policies[kind], refs[kind], obs,
                lambda i: rngstream.stream(REF_SEED, rngstream.TAG_ACT, 999, i), kind))
        learned = [(s, n, row) for kind, s, n, row, _ in ph.eval_rounds
                   if kind == "learned"]
        short = LEARNED_CHECK_N - sum(n for _, n, _ in learned)
        if short > 0:
            # too few timed episodes to tell a policy from chance: add more
            seed = self.round_seed(99, 3)
            rows = self.op(pl.run_eval, model.policies["learned"], short, seed,
                           env_name=ENV, method="learned")
            if rows is not None:
                learned.append((seed, short, rows[0]))
        wins = sum(round(row["success_rate"] * n) for _, n, row in learned)
        rand = 0
        for seed, n, _ in learned:
            rows = pl.run_eval(pl.RandomPolicy(self.spec.action_dim), n, seed,
                               env_name=ENV, method="random")
            rand += round(rows[0]["success_rate"] * n)
        self.check(rc.check_beats_random(wins, rand, sum(n for _, n, _ in learned)))

    def check_probe(self, ph: Phases, model: Model) -> None:
        policy = model.policies["learned"]
        if not ph.probe_traces:
            self.check((False, "no probe trace recorded"))
        else:
            seed, ep, trace = ph.probe_traces[0]
            rec = rollout.run_policy_episode(policy, self.spec, seed, ep)
            self.check(rc.check_probe_positions(trace, rec, f"seed {seed} episode {ep}"))
            zero = {m: np.zeros_like(s) for m, s in model.sigmas.items()}
            self.check(rc.check_zero_importance(an.perturb_importance(
                policy, self.spec, seed, model.cfg.probe, zero, episode=ep)))
        baseline = [x for x in ph.robust_results if x[0] == "baseline"]
        if not baseline:
            self.check((False, "no baseline scenario result recorded"))
        else:
            _, seed, n, res = baseline[0]
            plain = rollout.evaluate_policy(policy, self.spec, seed, n)
            self.check(rc.check_baseline(res, plain, f"seed {seed}, {n} episodes"))

    # -- runs -------------------------------------------------------------------

    def run(self) -> dict:
        """Untraced run: every end-to-end metric."""
        ph = Phases()
        # set-up time is wall time, not scaled: calibrations around a set-up
        # tracked its time less well than none did (see README)
        setup_s = []
        for _ in range(self.sizes.setups):
            t0 = CLOCK()
            model = self.setup()
            setup_s.append(CLOCK() - t0)
        # the first round's first operation gets calibrations ahead of it
        ph.calibrate(self.calibration, START_CALIBRATIONS)
        deadline = CLOCK() + self.seconds
        r = 0
        last = 0.0
        # start a round while it would end no later than half a round past
        # the deadline, so the run length stays close to `seconds`
        while r < self.sizes.min_rounds or CLOCK() + last / 2 < deadline:
            t0 = CLOCK()
            self.round(ph, model, r)
            last = CLOCK() - t0
            r += 1
        self.run_checks(ph, model)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        act_ms = 1e3 * ph.seconds("act")
        raw = {p: ph.rate(p, scaled=False) for p in PHASES if p != "act"}
        calib = np.array([c for _, c in ph.calib])
        print(f"{r} rounds; calibration {np.median(calib):.3f} ms median "
              f"(reference {CALIB_REF_MS} ms); unscaled: act() p50/p90/p99 "
              + "/".join(f"{np.percentile(1e3 * ph.seconds('act', False), q):.3f}"
                         for q in (50, 90, 99))
              + f" ms over {act_ms.size} calls, "
              + ", ".join(f"{p} {v:.4g} steps/s" for p, v in raw.items()), file=self.log)
        for kind in KINDS:
            done = [(n, row) for k, _, n, row, _ in ph.eval_rounds if k == kind]
            if done:
                wins = sum(round(row["success_rate"] * n) for n, row in done)
                print(f"success {kind}: {wins}/{sum(n for n, _ in done)}", file=self.log)
        return {
            "setup_s": (float(np.median(setup_s)), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "train_steps_per_s": (ph.rate("train"), "steps/s"),
            "eval_steps_per_s": (ph.rate("eval"), "steps/s"),
            "act_ms_p50": (float(np.percentile(act_ms, 50)), "ms"),
            "act_ms_p90": (float(np.percentile(act_ms, 90)), "ms"),
            "probe_steps_per_s": (ph.rate("probe"), "steps/s"),
            "robust_steps_per_s": (ph.rate("robust"), "steps/s"),
        }

    def run_traced(self, tracer, trace_path: Path) -> dict:
        """Traced run: per-layer metrics and the tracing overhead.

        The set-up and `trace_rounds` rounds are traced, each phase's
        operations into a lane of their own (`LANES`, plus "setup"), so a
        layer's figures on a workload come from that workload's own phase;
        see `_layer_metrics`. Each traced round runs untraced just before,
        so the overhead is the traced minus the untraced time of the same
        operations, both at the reference speed.
        """
        tracer.install()
        try:
            tracer.select("setup")
            model = self.setup()
        finally:
            tracer.uninstall()
        plain, ph = Phases(), Phases()
        for r in range(self.sizes.trace_rounds):
            self.round(plain, model, r)
            tracer.install()
            self.tracer = tracer
            try:
                self.round(ph, model, r)
            finally:
                self.tracer = None
                tracer.uninstall()
        self.run_checks(ph, model)
        tracer.write(trace_path)
        print(f"{self.sizes.trace_rounds} rounds traced; {len(tracer.span_start)} "
              f"spans -> {trace_path}", file=self.log)
        untraced, traced = (sum(float(np.sum(x.seconds(p))) for p in PHASES)
                            for x in (plain, ph))
        metrics, borrowed = _layer_metrics(tracer, self.workload, traced, untraced)
        if borrowed:
            print("layers that do not run in this workload's own phase, read from "
                  "the lane where they run on reference inputs: "
                  + ", ".join(f"{k} ({v})" for k, v in borrowed.items()), file=self.log)
        return metrics


def _cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def _one_thread(wall: float, cpu: float) -> tuple[bool, str]:
    """The calibration scaling assumes one thread in one process: work on
    another thread or process would slow the calibration too and be scaled
    away. So a round may not leave a thread or child process running, nor
    use more CPU time than its wall time."""
    threads = threading.active_count()
    children = len(multiprocessing.active_children())
    ok = threads == 1 and children == 0 and cpu <= 1.01 * wall + 0.01
    return ok, (f"one thread: {threads} thread(s), {children} child process(es), "
                f"{cpu:.2f} s CPU in {wall:.2f} s")


def _interleave(lanes: list[list]) -> list:
    """Merge lists so each one's items are spread evenly over the result."""
    keyed = [((i + 0.5) / len(lane), j, item)
             for j, lane in enumerate(lanes) for i, item in enumerate(lane)]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def _train_steps(cfg: RunConfig) -> int:
    """Optimizer steps of one run_training call over all five methods."""
    return 4 * cfg.train.steps + cfg.train.router_steps


def _reference_policies(paths: dict) -> dict:
    vis, tac = rc.RefExpert(paths["expert:vis"]), rc.RefExpert(paths["expert:tac"])
    return {
        "vis": rc.RefComposed([vis], weights=[1.0]),
        "tac": rc.RefComposed([tac], weights=[1.0]),
        "equal": rc.RefComposed([vis, tac], weights=[0.5, 0.5]),
        "learned": rc.RefComposed([vis, tac], router_path=paths["router"]),
        "concat": rc.RefFusion(paths["concat"]),
        "moe": rc.RefFusion(paths["moe"]),
    }


# layers whose work is part of the set-up as well as of a workload's phase
SETUP_LAYERS = ("envs.generate_dataset", "envs.dataset_read", "checkpoint.load_checkpoint")


def _layer_metrics(tracer, own: str, traced: float, untraced: float):
    """Per-layer metrics of the workload `own` from its traced lanes.

    A layer's metrics are read from the workload's own lane when the layer
    runs there; otherwise from the first lane in LANES, then the set-up,
    where it runs (on fixed reference inputs), and that lane is returned in
    `borrowed`. The SETUP_LAYERS add up the set-up and the own lane.
    """
    out, borrowed = {}, {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def lane_of(layer):
        for lane in (own,) + tuple(x for x in LANES + ("setup",) if x != own):
            if tracer.total(layer, lane)[0]:
                if lane != own:
                    borrowed[layer] = lane
                return lane
        return own

    def total(layer):
        return tracer.total(layer, lane_of(layer))

    def count(layer, key):
        return tracer.counts_of(lane_of(layer)).get(key, 0)

    for name in ("numcore.mlp_infer", "diffusion.ddpm_sample", "experts.score_rows",
                 "experts.encode_rows", "router.weights_rows",
                 "rollout.run_policy_episode", "envs.env_step", "rngstream.stream"):
        calls, _, self_s = total(name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
    for name in ("numcore.mlp_forward", "numcore.backward", "numcore.adam_step",
                 "diffusion.fit_denoiser", "diffusion.denoise_loss", "envs.observe",
                 "analysis.perturb_importance", "analysis.robustness_eval"):
        put(f"{name}.self_s", total(name)[2], "s")
    for name in ("experts.train_expert", "router.train_router",
                 "compose.train_concat_policy", "compose.train_moe_policy",
                 "checkpoint.save_checkpoint",
                 "pipeline.gen_data", "pipeline.run_training", "pipeline.run_eval"):
        put(f"{name}.s", total(name)[1], "s")
    for name in SETUP_LAYERS:
        put(f"{name}.s", sum(tracer.total(name, lane)[1] for lane in ("setup", own)), "s")
    for kind in KINDS:
        calls, busy, _ = total(f"compose.act.{kind}")
        put(f"compose.act_ms.{kind}", 1e3 * ratio(busy, calls), "ms")
    put("numcore.mlp_infer.rows_per_call",
        ratio(count("numcore.mlp_infer", "mlp_infer.rows"), total("numcore.mlp_infer")[0]),
        "rows/call")
    put("experts.encode_rows.repeat_share",
        ratio(count("experts.encode_rows", "encode_rows.repeats"),
              count("experts.encode_rows", "encode_rows.inputs")), "share")
    put("rollout.steps_per_episode",
        ratio(count("rollout.run_policy_episode", "rollout.episode_steps"),
              total("rollout.run_policy_episode")[0]), "steps/episode")
    put("analysis.acts_per_probe_step",
        ratio(count("analysis.perturb_importance", "probe.acts"),
              count("analysis.perturb_importance", "probe.steps")), "acts/step")
    put("trace.overhead_s", traced - untraced, "s")
    put("trace.overhead_share", (traced - untraced) / untraced, "share")
    return out, borrowed
