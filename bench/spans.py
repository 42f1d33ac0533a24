"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps each function named in ``SPANS`` and rebinds the
wrapper wherever a ``bsde_stackelberg.*`` module namespace holds the
original object (so ``from .odeint import guarded_inv`` call sites are
traced too); ``uninstall`` puts the originals back.  No source file of
the package changes.  A name that no longer exists is reported as absent
and simply yields no spans.

Spans are kept in memory as flat arrays (name, id, parent id, op id,
start, end) and written out once, when the run ends.  ``summarize`` turns
them into per-operation self times, call counts and layer aggregates; it
is a pure function so that it can be tested on a synthetic span tree.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "bsde_stackelberg"

DETERMINISTIC = (
    "riccati.solve_p1",
    "riccati.solve_p2",
    "riccati.build_stacked_system",
    "riccati.solve_pi1",
    "riccati.solve_pi2",
    "leader.solve_tilde_phi",
    "follower.solve_phi_eta",
)
PATH = (
    "sampling.sample_brownian",
    "follower.simulate_varphi",
    "follower.reconstruct_follower_state",
    "follower.follower_feedback",
    "follower.quadratic_cost",
    "leader.simulate_tilde_varphi",
    "leader.reconstruct_XYZ",
    "leader.leader_feedback",
    "leader.equilibrium_follower_control",
    "leader.leader_cost",
    "leader.leader_bsde_residual",
    "leader.check_leader_stationarity",
    "leader.decoupling_consistency",
    "finance.initial_reserve",
)
CHECK = (
    "oracle.build_discrete_problem",
    "oracle.deterministic_follower_oracle",
    "oracle.deterministic_leader_oracle",
    "riccati.pi1_closed_form",
    "riccati.pi2_closed_form",
    "riccati.riccati_residual",
)
IO = (
    "scenario.load_scenario",
    "model.validate_spec",
    "riccati.riccati_csv",
    "leader.leader_paths_csv",
    "finance.consumption_paths_csv",
    "cli.main",
)
# numerical helpers: their self time goes to the layer of the nearest
# enclosing span that is not itself a helper
HELPERS = (
    "model.eval_coefficient",
    "odeint.integrate_matrix_ode",
    "odeint.guarded_inv",
    "odeint.transition_steps",
    "odeint.matrix_exponential",
)
# orchestrators: traced for their self time, in no layer
UNGROUPED = (
    "follower.follower_pipeline",
    "leader.solve_equilibrium",
    "finance.consumption_equilibrium",
)

LAYERS = {"deterministic": DETERMINISTIC, "path": PATH, "check": CHECK, "io": IO}
SPANS = (*HELPERS, *DETERMINISTIC, *PATH, *CHECK, *IO, *UNGROUPED)
GROUP_OF = {name: layer for layer, names in LAYERS.items() for name in names}

# the ensemble arrays returned by this span are sized into path.arrays_mb
ARRAYS_SPAN = "leader.reconstruct_XYZ"


def ndarray_bytes(obj) -> int:
    """Bytes of the ndarray attributes of a dataclass instance, from their shapes."""
    total = 0
    for value in vars(obj).values():
        shape = getattr(value, "shape", None)
        itemsize = getattr(getattr(value, "dtype", None), "itemsize", None)
        if shape is not None and itemsize is not None:
            size = 1
            for dim in shape:
                size *= dim
            total += size * itemsize
    return total


class Tracer:
    """Wraps the span functions and records one span per call."""

    def __init__(self):
        self.names = list(SPANS)
        self.absent: list[str] = []
        self.op = -1
        self.enabled = False
        self.name_id = array("i")
        self.span_id = array("q")
        self.parent_id = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arrays_bytes: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next = 0
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, sid: int, sizes_result: bool):
        stack = self._stack
        rec_name, rec_id, rec_parent = self.name_id.append, self.span_id.append, self.parent_id.append
        rec_op, rec_start, rec_end = self.op_id.append, self.start.append, self.end.append
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            me = tracer._next
            tracer._next = me + 1
            stack.append(me)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec_name(sid)
                rec_id(me)
                rec_parent(parent)
                rec_op(tracer.op)
                rec_start(t0)
                rec_end(t1)
            if sizes_result:
                tracer.arrays_bytes[tracer.op] += ndarray_bytes(out)
            return out

        return span

    def install(self):
        """Rebind a span wrapper for every function in SPANS that still exists."""
        originals = {}
        for sid, qual in enumerate(self.names):
            mod_name, func = qual.split(".")
            try:
                originals[sid] = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), func)
            except (ImportError, AttributeError):
                self.absent.append(qual)
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for sid, original in originals.items():
            wrapper = self._wrap(original, sid, self.names[sid] == ARRAYS_SPAN)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "span_id": self.span_id.tolist(),
            "parent_id": self.parent_id.tolist(),
            "op_id": self.op_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


def summarize(spans: dict) -> dict[int, dict]:
    """Per operation: self time and calls per span name, self time per layer.

    Self time is a span's duration minus the durations of its direct
    children.  A helper span's self time also counts toward the layer of
    its nearest enclosing non-helper span; a root span counts only
    toward its own layer.
    """
    names = spans["names"]
    ids = spans["span_id"]
    row_of = {sid: row for row, sid in enumerate(ids)}
    duration = [e - s for s, e in zip(spans["start"], spans["end"])]
    child_time = [0.0] * len(ids)
    for row, parent in enumerate(spans["parent_id"]):
        if parent >= 0 and parent in row_of:
            child_time[row_of[parent]] += duration[row]

    helpers = set(HELPERS)
    layer_of_id: dict[int, str | None] = {}
    out: dict[int, dict] = {}
    # ids grow with start time, so a parent is resolved before its children
    for row in sorted(range(len(ids)), key=ids.__getitem__):
        name = names[spans["name_id"][row]]
        parent = spans["parent_id"][row]
        if name in helpers:
            layer = layer_of_id.get(parent)
        else:
            layer = GROUP_OF.get(name)
        layer_of_id[ids[row]] = layer
        op = out.setdefault(
            spans["op_id"][row],
            {"self_s": defaultdict(float), "calls": defaultdict(int), "layer_s": defaultdict(float)},
        )
        own = duration[row] - child_time[row]
        op["self_s"][name] += own
        op["calls"][name] += 1
        if layer is not None:
            op["layer_s"][layer] += own
    return out


def per_layer_metrics(spans: dict, op_seconds: dict[int, float], arrays_bytes: dict[int, int]) -> dict:
    """Median over traced operations of every per-layer figure.

    op_seconds maps each traced operation to its wall time; operations
    without spans (none of the package ran) contribute zeros.
    """
    per_op = summarize(spans)
    ops = sorted(op_seconds)
    empty = {"self_s": {}, "calls": {}, "layer_s": {}}

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    metrics = {}
    for name in spans["names"]:
        metrics[f"{name}.self_s"] = med([per_op.get(o, empty)["self_s"].get(name, 0.0) for o in ops])
        metrics[f"{name}.calls"] = med([per_op.get(o, empty)["calls"].get(name, 0) for o in ops])
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = med([per_op.get(o, empty)["layer_s"].get(layer, 0.0) for o in ops])
    metrics["path.arrays_mb"] = med([arrays_bytes.get(o, 0) / 2**20 for o in ops])
    metrics["trace.coverage"] = med(
        [sum(per_op.get(o, empty)["self_s"].values()) / op_seconds[o] for o in ops]
    )
    return metrics
