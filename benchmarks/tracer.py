"""Spans around the calls into each layer of gossipgrad, for the traced run.

A span records its metric name, start, end and parent span. Calls that happen
hundreds of thousands of times per solve (schedule lookups, local gradients)
are leaf spans: they are aggregated per (name, parent span) into a count and a
total time, which keeps memory bounded while self times stay exact, because a
leaf has no children. Spans stay in memory and are written out when the run
ends.

Hooks are the module attributes that gossipgrad looks up at call time. Each is
resolved by dotted name when tracing starts; one that no longer exists is
reported as absent and never fails the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (metric, dotted owner, attribute, leaf). The owner is a module or a class;
# a metric may be fed by several hooks.
HOOKS = (
    ("cli.emit", "gossipgrad.cli", "cmd_run", False),
    ("config.load", "gossipgrad.cli", "load_run_config", False),
    ("config.load", "gossipgrad.cli", "resolve_params", False),
    ("config.load", "gossipgrad.cli", "initial_states", False),
    ("objective.problem", "gossipgrad.cli", "build_problem", False),
    ("gossip.schedule", "gossipgrad.cli", "build_schedule", False),
    ("gossip.spectral_gap", "gossipgrad.config", "spectral_gap", False),
    ("algorithm.run", "gossipgrad.cli", "run_algorithm", False),
    ("netsim.run", "gossipgrad.cli", "run_netsim", False),
    ("algorithm.centralized", "gossipgrad.cli", "centralized_gd", False),
    ("analysis.fixed_point", "gossipgrad.analysis", "fixed_point", False),
    ("analysis.lyapunov", "gossipgrad.analysis", "lyapunov_trace", False),
    ("analysis.decrease", "gossipgrad.analysis", "decrease_terms", False),
    ("gossip.mix", "gossipgrad.algorithm", "algorithm_iteration", False),
    ("gossip.matrix_at", "gossipgrad.algorithm", "matrix_at", True),
    ("gossip.matrix_at", "gossipgrad.netsim", "matrix_at", True),
    ("objective.gradient", "gossipgrad.objective.QuadraticObjective", "gradient", True),
    ("objective.gradient", "gossipgrad.localization.RangeResidualObjective", "gradient", True),
)

# Runner results feed counters; see observe_run.
RUNNERS = {"algorithm.run", "netsim.run"}


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(dotted)


def ledger_bytes(ledger) -> int:
    """Bytes held by a delivery ledger, computed from its arrays or from one sample record."""
    if hasattr(ledger, "nbytes"):
        return int(ledger.nbytes)
    if isinstance(ledger, dict):
        return sys.getsizeof(ledger) + sum(ledger_bytes(v) for v in ledger.values())
    size = sys.getsizeof(ledger)
    if isinstance(ledger, (list, tuple)) and ledger:
        item = ledger[0]
        per_item = sys.getsizeof(item) + (sys.getsizeof(vars(item)) if hasattr(item, "__dict__") else 0)
        size += per_item * len(ledger)
    return size


class NullTracer:
    """Calls straight through; the timed run uses it so that it installs no wrappers."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder with call-time hooks into gossipgrad."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.counts = defaultdict(lambda: defaultdict(int))  # root span -> counter -> value
        self._stack = []
        self._installed = []
        self.absent = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if name in RUNNERS:
            self.observe_run(name, result)
        return result

    def leaf(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry = self.leaves[(name, self._stack[-1] if self._stack else -1)]
            entry[0] += 1
            entry[1] += time.perf_counter() - start

    def observe_run(self, name, trace):
        """Counters read off a runner's RunTrace; a field a refactor drops is left out."""
        root = self.counts[self._stack[0] if self._stack else -1]
        try:
            m = trace.params.m
            iterations, n, d = trace.x.shape
            iterations -= 1
            root["trace.mb"] += sum(getattr(trace, key).nbytes for key in ("x", "y", "v", "u")) / 1e6
        except AttributeError:
            return
        rounds = m * iterations
        root["algorithm.m"] = max(root["algorithm.m"], m)
        root["gossip.mix.agent_rounds"] += getattr(trace, "row_communications", n * rounds)
        if name == "netsim.run":
            root["netsim.rounds"] += rounds
            ledger = getattr(trace, "deliveries", None)
            if ledger is not None:
                root["netsim.messages"] += len(ledger)
                root["netsim.ledger.mb"] += ledger_bytes(ledger) / 1e6
        else:
            # Dense mixing reads W (n x n) and v, and writes the new v, each round.
            root["gossip.mix.bytes"] += rounds * (n * n + 2 * n * d) * 8

    # -- hooks -------------------------------------------------------------
    def install(self):
        """Wrap every hook that resolves; record the rest as absent."""
        self.absent = []
        for metric, owner_name, attr, leaf in HOOKS:
            try:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(metric, original, leaf))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, metric, original, leaf):
        record = self.leaf if leaf else self.call

        def wrapper(*args, **kwargs):
            return record(metric, original, *args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis ----------------------------------------------------------
    def _members(self, root: int) -> set:
        """The root span and every span below it (children always come after their parent)."""
        members = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in members:
                members.add(index)
        return members

    def self_times(self, root: int) -> dict:
        """Self time per metric name inside one root span (root included)."""
        members = self._members(root)
        covered = defaultdict(float)
        totals = defaultdict(float)
        for index in members:
            name, start, end, parent = self.spans[index]
            totals[name] += end - start
            if index != root:
                covered[parent] += end - start
        for (name, parent), (_, seconds) in self.leaves.items():
            if parent in members:
                totals[name] += seconds
                covered[parent] += seconds
        for index in members:
            totals[self.spans[index][0]] -= covered[index]
        return dict(totals)

    def leaf_calls(self, root: int) -> dict:
        members = self._members(root)
        calls = defaultdict(int)
        for (name, parent), (count, _) in self.leaves.items():
            if parent in members:
                calls[name] += count
        return dict(calls)

    def roots(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[3] == -1 and span[0] == name]

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "leaves": [
                {"name": n, "parent": p, "calls": c, "seconds": s} for (n, p), (c, s) in self.leaves.items()
            ],
            "absent": self.absent,
        }
