"""Spans recorded from outside the package, and the per-layer metrics.

`Tracer.install` replaces public functions where their callers look
them up: module globals that `coordinator` imported by name, methods
reached through their class, and the `protocol` functions its own
transports call.  Nothing under `src/` changes.  Spans stay in memory,
tagged with the thread that ran them, and are written once the run has
ended.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
import weakref

MAIN = "MainThread"


class Tracer:
    """Collects spans as [name, thread, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # a serial number per qp workspace: id() is reused once a
        # workspace is freed, and would merge workspaces solved in turn
        self._workspaces = weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, threading.current_thread().name, time.perf_counter(),
                  None, stack[-1] if stack else -1, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        """Wrap each layer's public entry points in place."""
        from hvactrade import agent, coordinator, protocol, qp, scenario

        for fname in ("hlp_update", "dual_update", "convergence_error"):
            setattr(coordinator, fname,
                    self.wrap("coordinator.update", getattr(coordinator, fname)))
        coordinator.barrier_collect = self.wrap(
            "coordinator.barrier", coordinator.barrier_collect)
        coordinator.solve_emp = self.wrap("agent.emp", coordinator.solve_emp)
        agent.build_user_qp = self.wrap("agent.build", agent.build_user_qp)
        agent.LocalAgent.solve_llp = self.wrap(
            "agent.step", agent.LocalAgent.solve_llp)
        protocol.encode = self.wrap("protocol.encode", protocol.encode)
        protocol.decode = self.wrap("protocol.decode", protocol.decode)
        for cls in (protocol.InProcTransport, protocol.SocketTransport):
            cls.send_to = self.wrap("protocol.send", cls.send_to)
        scenario.synth_traces = self.wrap("scenario.synth",
                                          scenario.synth_traces)

        solve = qp.Workspace.solve

        @functools.wraps(solve)
        def traced_solve(ws, *args, **kwargs):
            with self.span("qp.solve") as record:
                sol = solve(ws, *args, **kwargs)
            # dense splitting KKT of this workspace: (n + m) squared doubles
            p = ws.problem
            with self._lock:
                if ws not in self._workspaces:
                    self._workspaces[ws] = next(self._serials)
                serial = self._workspaces[ws]
            record[5] = (sol.iterations, serial, 8 * (p.n + p.n_eq + p.n_ineq) ** 2)
            return sol

        qp.Workspace.solve = traced_solve

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, thread, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "thread": thread,
                                     "start_s": start - t0, "end_s": end - t0,
                                     "parent": parent, "info": info}) + "\n")


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, rounds: int, frames) -> dict:
    """Per-layer figures of one traced operation.

    Durations are medians per call (or per round for the coordinator);
    counts and sizes are totals for the operation.
    """
    def dur(s):
        return s[3] - s[2]

    by_name: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
        if s[4] >= 0:
            child_time[s[4]] += dur(s)

    def get(name):
        return by_name.get(name, [])

    def parent_name(s):
        return spans[s[4]][0] if s[4] >= 0 else None

    # top-level synthesis only: synth_traces inside build_synth_scenario
    # is already inside its caller's span
    synth = [s for s in get("scenario.synth") if parent_name(s) != "scenario.synth"]
    out = {
        "scenario.load_ms": 1e3 * sum(dur(s) for s in get("scenario.load")),
        "scenario.synth_ms": 1e3 * sum(dur(s) for s in synth),
        "scenario.save_ms": 1e3 * sum(dur(s) for s in get("scenario.save")),
    }

    step_solves = [s for s in get("qp.solve") if parent_name(s) == "agent.step"]
    # factor sizes: the agents' own workspaces where they run in this
    # process, otherwise the coordinator's final re-solve workspaces
    sizes = {}
    for s in step_solves:
        key = (s[1].startswith("agent-"), s[1], s[5][1])
        sizes[key] = s[5][2]
    agent_side = [v for k, v in sizes.items() if k[0]]
    factor = agent_side if agent_side else list(sizes.values())

    step_self = [dur(s) - child_time[i] for i, s in enumerate(spans)
                 if s[0] == "agent.step"]

    barriers = [s for s in get("coordinator.barrier") if s[1] == MAIN]
    starts = [s[2] for s in barriers]
    sends = [s for s in get("protocol.send") if s[1] == MAIN]
    ends = starts[1:] + [max((s[3] for s in sends), default=barriers[-1][3])]
    updates = [0.0] * len(starts)
    for s in get("coordinator.update"):
        if s[1] == MAIN:
            updates[bisect.bisect_right(starts, s[2]) - 1] += dur(s)

    wire_bytes = sum(len(f) for f in frames)
    out.update({
        "qp.solve_ms": _median([dur(s) for s in step_solves], 1e3),
        "qp.solves": len(step_solves),
        "qp.split_iters": sum(s[5][0] for s in step_solves),
        "qp.warm_hits": sum(1 for s in step_solves if s[5][0] == 0),
        "qp.factor_mb": sum(factor) / 1e6,
        "agent.build_ms": _median([dur(s) for s in get("agent.build")], 1e3),
        "agent.builds": len(get("agent.build")),
        "agent.step_ms": _median(step_self, 1e3),
        "agent.emp_ms": _median([dur(s) for s in get("agent.emp")], 1e3),
        "coordinator.update_ms": _median(updates, 1e3),
        "coordinator.barrier_wait_ms": _median([dur(s) for s in barriers], 1e3),
        "coordinator.round_ms": _median([e - s for s, e in zip(starts, ends)], 1e3),
        "protocol.encode_us": _median([dur(s) for s in get("protocol.encode")], 1e6),
        "protocol.decode_us": _median([dur(s) for s in get("protocol.decode")], 1e6),
        "protocol.send_ms": _median([dur(s) for s in get("protocol.send")], 1e3),
        "protocol.frames": len(frames),
        "protocol.wire_kb_per_round": wire_bytes / 1024.0 / max(rounds, 1),
        "reports.write_ms": 1e3 * sum(dur(s) for s in get("reports.write")),
    })
    return out
