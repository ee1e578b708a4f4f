"""Span tracing from outside the program.

`Tracer.install()` replaces each traced function of `modalcompose` with a
wrapper at every place it is bound: the defining module, every module that
imported it by name, and the class dictionary for methods. A wrapper records
one span (name, lane, start, end, parent span) per call in flat in-memory
arrays and folds the call into per-name totals of the current lane: calls,
busy time and self time (busy time minus the time its child spans cover).
`select(lane)` switches the lane between operations, so each phase of a run
keeps totals of its own. `uninstall()` puts the original functions back;
`write()` saves the spans once the run is over.

A few wrappers also count what their arguments or results show: rows per
`mlp_infer` call, repeated encoder inputs within one control step, policy
samples per probed step and steps per rolled-out episode.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

_CLOCK = time.perf_counter


def _policy_kind(policy) -> str:
    """The six kinds the gate evaluates, told apart by the policy object."""
    cls = type(policy).__name__
    if cls == "ConcatPolicy":
        return "concat"
    if cls == "MoEFeaturePolicy":
        return "moe"
    if getattr(policy, "router", None) is not None:
        return "learned"
    if len(policy.experts) == 1:
        return policy.experts[0].modality
    return "equal"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_lane = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.lanes: dict[str, tuple[dict, dict]] = {}   # lane -> (totals, counts)
        self.lane_names: list[str] = []
        self.select("main")
        self.open: dict[str, int] = {}
        self._stack: list[list] = []              # [span index, child time]
        self._seen_inputs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.open[name] = 0
        return nid

    def select(self, lane: str) -> None:
        """Fold the calls from now on into `lane`'s totals and counts."""
        if lane not in self.lanes:
            self.lanes[lane] = ({}, {})   # name -> [calls, busy, self]; key -> n
            self.lane_names.append(lane)
        self.totals, self.counts = self.lanes[lane]
        self.lane_id = self.lane_names.index(lane)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, *, name_of=None, before=None, after=None):
        tracer = self
        stack = self._stack
        fixed_id = None if name_of else self._nid(name)

        def wrapper(*args, **kwargs):
            nid = fixed_id if name_of is None else tracer._nid(name_of(args))
            label = tracer.names[nid]
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_lane.append(tracer.lane_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.open[label] += 1
            t0 = _CLOCK()
            tracer.span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _CLOCK()
                stack.pop()
                tracer.open[label] -= 1
                tracer.span_end[idx] = t1
                dur = t1 - t0
                tot = tracer.totals.get(label)
                if tot is None:
                    tot = tracer.totals[label] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- hooks for the derived counts ----------------------------------------

    def _mlp_rows(self, args, kwargs):
        self.count("mlp_infer.rows", args[2].shape[0])

    def _encode_input(self, args, kwargs):
        key = (id(args[0]), args[1].tobytes(), args[2].tobytes())
        self.count("encode_rows.inputs")
        if key in self._seen_inputs:
            self.count("encode_rows.repeats")
        else:
            self._seen_inputs.add(key)

    def _new_step(self, args, kwargs):
        # encoder inputs are compared within one control step (or one
        # training step); a new step starts a fresh set
        self._seen_inputs.clear()

    def _env_step(self, args, kwargs):
        self._seen_inputs.clear()
        if self.open.get("analysis.perturb_importance"):
            self.count("probe.steps")

    def _act(self, args, kwargs):
        if self.open.get("analysis.perturb_importance"):
            self.count("probe.acts")

    def _episode_done(self, args, rec):
        self.count("rollout.episode_steps", rec.steps)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from modalcompose import (analysis, checkpoint, compose, diffusion, envs,
                                  experts, numcore, pipeline, rngstream, router,
                                  rollout)

        functions = [
            (numcore, "mlp_infer", dict(before=self._mlp_rows)),
            (numcore, "mlp_forward", {}),
            (numcore, "backward", {}),
            (numcore, "adam_step", {}),
            (diffusion, "fit_denoiser", {}),
            (diffusion, "denoise_loss", dict(before=self._new_step)),
            (diffusion, "ddpm_sample", {}),
            (experts, "train_expert", {}),
            (router, "train_router", {}),
            (compose, "train_concat_policy", {}),
            (compose, "train_moe_policy", {}),
            (rollout, "run_policy_episode", dict(after=self._episode_done)),
            (envs, "env_step", dict(before=self._env_step)),
            (envs, "observe", {}),
            (envs, "generate_dataset", {}),
            (rngstream, "stream", {}),
            (analysis, "perturb_importance", {}),
            (analysis, "robustness_eval", {}),
            (checkpoint, "save_checkpoint", {}),
            (checkpoint, "load_checkpoint", {}),
            (pipeline, "gen_data", {}),
            (pipeline, "run_training", {}),
            (pipeline, "run_eval", {}),
        ]
        modules = [m for n, m in sys.modules.items()
                   if n == "modalcompose" or n.startswith("modalcompose.")]
        for module, attr, hooks in functions:
            orig = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped = self._wrap(name, orig, **hooks)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

        methods = [
            (experts.ModalityExpert, "score_rows", "experts.score_rows", {}),
            (experts.ModalityExpert, "encode_rows", "experts.encode_rows",
             dict(before=self._encode_input)),
            (router.Router, "weights_rows", "router.weights_rows", {}),
        ]
        for cls, attr, name, hooks in methods:
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], **hooks))
        for cls in (compose.ComposedPolicy, compose.ConcatPolicy,
                    compose.MoEFeaturePolicy):
            self._patch(cls, "act", self._wrap(
                "compose.act", vars(cls)["act"], before=self._act,
                name_of=lambda args: f"compose.act.{_policy_kind(args[0])}"))
        read = vars(envs.Dataset)["read"].__func__
        self._patch(envs.Dataset, "read",
                    classmethod(self._wrap("envs.dataset_read", read)))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def total(self, name: str, lane: str) -> tuple[int, float, float]:
        totals = self.lanes.get(lane, ({}, {}))[0]
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        return int(calls), busy, self_s

    def counts_of(self, lane: str) -> dict:
        return self.lanes.get(lane, ({}, {}))[1]

    def write(self, path: Path) -> None:
        """Save every span: name, lane, parent index (-1 at the top), start,
        end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(self.names), lanes=np.array(self.lane_names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            lane=np.frombuffer(self.span_lane, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
