"""Per-layer tracing by replacing module attributes at run time.

Spans follow the Dapper model (Sigelman et al., 2010): each wrapped call
is a span with a start, an end and the span that caused it. A span's self
time is its duration minus the time of its wrapped children. Hot calls
(thousands of sends in a pass) are not recorded one by one; they are
aggregated per (op, parent op) into count, total and self time. Only ``cli.main`` calls and scenario calls (the units) are kept as
individual spans, with an id and the id of their parent.

Nothing under ``src/`` changes: every name a function is bound to in a
``neuromesh`` module is replaced, so a call through any import path is seen.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import time

import numpy as np

from neuromesh import aggregation, assignment, cli, control, netsim, tensors, wire

# (op, owner, attribute). Functions are replaced wherever a neuromesh module
# binds them; methods are replaced on their class.
FUNCTIONS = (
    ("netsim.derive_seed", netsim, "derive_seed"),
    ("wire.encode", wire, "encode_envelope"),
    ("wire.decode", wire, "decode_envelope"),
    ("aggregation.resolve", aggregation, "resolve_neighborhood"),
    ("aggregation.diff_sum", aggregation, "diff_sum_aggregate"),
    ("tensors.mlp_forward", tensors, "mlp_forward"),
    ("assignment.scenario", assignment, "run_assignment_scenario"),
    ("assignment.solve", assignment, "hungarian_solve"),
    ("control.scenario", control, "run_navigation_scenario"),
    ("config.load", cli, "load_config"),
    ("reporting.write_csv", cli, "write_csv"),
)
METHODS = (
    ("netsim.sim_init", netsim.MeshSimulator, "__init__"),
    ("netsim.send", netsim.MeshSimulator, "send"),
    ("netsim.run_until", netsim.MeshSimulator, "run_until"),
    ("wire.insert", wire.NeighborBuffer, "insert"),
    ("wire.snapshot", wire.NeighborBuffer, "snapshot"),
)
# Ops recorded as individual spans: one per cli call and one per scenario call.
SPAN_OPS = frozenset({"cli.main", "assignment.scenario", "control.scenario"})


def mlp_cost(spec) -> tuple[int, int]:
    """FLOP and bytes of one ``mlp_forward`` call, from the layer shapes.

    For layers l with W_l of shape (out_l, in_l):
    FLOP  = sum_l (2 * in_l * out_l + out_l)                 (matvec, bias add)
    bytes = 4 * (sum_l (in_l * out_l + out_l) + in_0 + out_L)  (float32 weights,
            biases, input and output read or written once)
    """
    flop = 0
    params = 0
    for w in spec.weights:
        out_dim, in_dim = w.shape
        flop += 2 * in_dim * out_dim + out_dim
        params += in_dim * out_dim + out_dim
    return flop, 4 * (params + spec.input_dim + spec.output_dim)


class Tracer:
    """Holds the open-span stack, the per-op aggregates and the unit spans."""

    def __init__(self):
        self._stack = []  # open frames: [op, child_ns, span_id]
        self.ops = {}  # (op, parent op) -> [count, total_ns, self_ns]
        self.spans = []  # dicts for SPAN_OPS calls, in order of completion
        self._span_ids = itertools.count()
        self.sims = []
        self.encode_bytes = 0
        self.insert_accepted = 0
        self.resolve_pending = 0
        self.agent_steps = 0
        self.mlp_flop = 0
        self.mlp_bytes = 0
        self.solve_keys = set()
        self._mlp_costs = {}  # id(spec) -> (spec, flop, bytes)

    def wrap(self, op, fn, after=None):
        stack = self._stack
        ops = self.ops
        spans = self.spans
        keep_span = op in SPAN_OPS
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = next(self._span_ids) if keep_span else None
            frame = [op, 0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns = dt - frame[1]
                key = (op, parent[0] if parent else None)
                agg = ops.get(key)
                if agg is None:
                    ops[key] = [1, dt, self_ns]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += self_ns
                if parent is not None:
                    parent[1] += dt
                if keep_span:
                    spans.append({"id": span_id, "parent": _span_parent(stack), "op": op,
                                  "start_ns": t0, "dur_ns": dt, "self_ns": self_ns})
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", op)
        return traced

    def install(self):
        """Replace every bound name of each traced function and method."""
        hooks = {
            "wire.encode": lambda args, r: self._add("encode_bytes", len(r)),
            "wire.insert": lambda args, r: self._add("insert_accepted", int(r)),
            "aggregation.resolve": lambda args, r: self._add(
                "resolve_pending", int(r.status.value == "pending")),
            "tensors.mlp_forward": self._count_mlp,
            "assignment.solve": self._key_solve,
            "control.scenario": lambda args, r: self._add(
                "agent_steps", r.steps * len(args[0])),
            "netsim.sim_init": lambda args, r: self.sims.append(args[0]),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "neuromesh" or name.startswith("neuromesh.")]
        for op, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            traced = self.wrap(op, original, hooks.get(op))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
        for op, cls, attr in METHODS:
            setattr(cls, attr, self.wrap(op, getattr(cls, attr), hooks.get(op)))

    def _add(self, field, amount):
        setattr(self, field, getattr(self, field) + amount)

    def _count_mlp(self, args, result):
        spec = args[0]
        cached = self._mlp_costs.get(id(spec))
        if cached is None or cached[0] is not spec:
            cached = (spec,) + mlp_cost(spec)
            self._mlp_costs[id(spec)] = cached
        self.mlp_flop += cached[1]
        self.mlp_bytes += cached[2]

    def _key_solve(self, args, result):
        matrix = np.ascontiguousarray(args[0], dtype=np.float64)
        self.solve_keys.add(hashlib.blake2b(matrix.tobytes(), digest_size=16).digest())

    def totals(self):
        """Per-op count, total and self time summed over parent ops."""
        out = {}
        for (op, _), (count, total, self_ns) in self.ops.items():
            acc = out.setdefault(op, [0, 0, 0])
            acc[0] += count
            acc[1] += total
            acc[2] += self_ns
        return out

    def drain_sims(self) -> int:
        """Deliver what is still in flight; returns how many messages that was.

        Call after reading the counts: the deliveries run traced callbacks.
        """
        in_flight = 0
        for sim in self.sims:
            before = sim.delivered
            sim.drain()
            in_flight += sim.delivered - before
        return in_flight


def _span_parent(stack):
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None
