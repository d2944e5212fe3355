"""Span tracer that instruments vhsim from outside, by wrapping functions.

Each wrapped call records one span: name, start, end, parent span and trial
id. Spans live in flat typed arrays while the workload runs and are written
out once at the end. Self time is a span's duration minus the durations of
its direct children.

The tracer's own work is timed too. Each child span costs its parent the
wrapper's bookkeeping around the call (list appends, stack push and pop) and
any counter hook, none of which is inside the child's span. `span_cost`
measures that cost on an empty function, the hooks are clocked per call, and
`summary` takes both out of every span's self and inclusive time. The
corrected self times of the spans under a root plus the tracer's estimated
cost then add up to the root's duration, and the corrected times can be
compared with an untraced run of the same work.

A function is wrapped at the module attribute its caller looks it up under:
`planner` imports `predict_trajectory` by name, so `vhsim.planner` is the
module whose attribute is replaced. A name that no longer exists is reported
as absent instead of failing, so refactors of the program do not break the
benchmark; its metrics then read zero.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

Hook = Callable[[dict, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")
        self.counters: dict[str, float] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._trial_id = -1
        self._trial_depth = 0
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[str, Callable]] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner: object, attr: str, name: str, hook: Hook | None = None,
             new_trial: bool = False) -> None:
        """Replace `owner.attr` with a span-recording wrapper.

        When the attribute holds a function already wrapped under another span
        name (the same object imported under two names, like `cli.run_trial`),
        the new wrapper calls that wrapper, so both spans are recorded, nested.
        Under the same span name it calls the function itself, so a call is
        never counted twice. A `new_trial` span that is not inside another one
        starts a new trial id.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{name} ({attr})")
            return
        chained_name, chained = self._wrappers.get(id(original), (name, None))
        inner = chained if chained_name != name else original
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, trials, starts, ends = self.name_id, self.parent, self.trial, self.start, self.end
        hooks = self.hook
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            if new_trial and tracer._trial_depth == 0:
                tracer._trial_id += 1
            tracer._trial_depth += new_trial
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            trials.append(tracer._trial_id)
            ends.append(0.0)
            hooks.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                tracer._trial_depth -= new_trial
            if hook is not None:
                hook_start = clock()
                hook(counters, args, result)
                hooks[idx] = clock() - hook_start
            return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        self._wrappers.setdefault(id(original), (name, wrapper))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self._wrappers.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "hook": np.frombuffer(self.hook, dtype=np.float64).copy(),
        }

    def tracer_seconds(self, outside: float, inside: float) -> np.ndarray:
        """Per span: the tracer's cost inside it but outside its children's
        spans, given `span_cost`'s estimates."""
        a = self.arrays()
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], minlength=a["start"].size)
        child_hooks = np.zeros(a["start"].size)
        np.add.at(child_hooks, a["parent"][has_parent], a["hook"][has_parent])
        return children * outside + child_hooks + inside

    def summary(self, outside: float = 0.0, inside: float = 0.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, durations.

        The counter hooks' time, clocked per call, is always taken out of
        every self and inclusive time (and durations); with the per-span costs
        of `span_cost`, the wrapper's own time is taken out too.
        """
        a = self.arrays()
        cost = self.tracer_seconds(outside, inside)
        # Spans are recorded in start order, so a span's descendants are the
        # spans after it that start before it ends.
        subtree_end = np.searchsorted(a["start"], a["end"], side="left")
        cumulative = np.concatenate(([0.0], np.cumsum(cost)))
        duration = a["end"] - a["start"] - (cumulative[subtree_end] - cumulative[:-1])
        child = np.zeros(duration.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        own = duration - child
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "durations": duration[mask],
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span, plus the name table, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_cost(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one span of an empty function costs: (outside, inside).

    `outside` is what the wrapper adds to the caller's time outside the span,
    measured as the traced caller's self time less the same loop untraced;
    `inside` is the span's own duration. Each is the median of `repeats`.
    """
    def empty():
        pass

    def loop():
        for _ in range(calls):
            owner.empty()

    owner = SimpleNamespace(empty=empty, loop=loop)
    outside, inside = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        owner.loop()
        untraced = time.perf_counter() - start
        probe = Tracer()
        probe.wrap(owner, "empty", "empty")
        probe.wrap(owner, "loop", "loop")
        try:
            owner.loop()
        finally:
            probe.uninstall()
        spans = probe.summary()
        outside.append((spans["loop"]["self_s"] - untraced) / calls)
        inside.append(spans["empty"]["total_s"] / calls)
    return statistics.median(outside), statistics.median(inside)
