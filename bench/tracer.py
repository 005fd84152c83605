"""Spans around every call into the public functions of modmckay's
modules, recorded from outside the package by rebinding those names.

A span's self time is its duration minus the part covered by the spans
it encloses.  Spans are folded into per-function totals as they close,
so memory stays flat however many millions of calls a round makes.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("weights", "char0", "conormal", "moves", "planner", "graph", "cli")
# Rendering is CLI work wherever the code sits; the CSV writer's span
# encloses the all-pairs BFS, which stays a graph span of its own.
RENDER = (("cli", "_json"), ("planner", "PathPlan.to_json_dict"), ("graph", "distance_matrix_csv"))


class Tracer:
    """Per-function span totals for one process; ``install`` starts
    recording, ``uninstall`` puts the original functions back."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}  # (layer, name) -> [calls, total_s, self_s]
        self.hooks: dict[tuple[str, str], object] = {}  # (layer, name) -> fn(args, result)
        self._stack: list[float] = []  # time covered by children, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, key: tuple[str, str], fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hooks = self.hooks

        @functools.wraps(fn)
        def span(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack[depth]
                # Cut back to this span's depth even if a child left early.
                del stack[depth:]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if depth:
                    stack[depth - 1] += dur
            hook = hooks.get(key)
            if hook is not None:
                hook(args, result)
            return result

        return span

    def install(self) -> None:
        """Rebind every public function of each layer, and the render
        functions, in every modmckay module that holds a reference."""
        holders = [m for name, m in sys.modules.items()
                   if name == "modmckay" or name.startswith("modmckay.")]
        holders.append(sys.modules["modmckay.planner"].PathPlan)
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"modmckay.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[obj] = (layer, name)
        for layer, name in RENDER:
            owner = sys.modules[f"modmckay.{layer}"]
            for part in name.split("."):
                fn = owner = vars(owner)[part]
            targets[fn] = ("render", name)
        for fn, key in targets.items():
            wrapped = self._span(key, fn)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict[tuple[str, str], tuple]:
        return {key: tuple(v) for key, v in self.stats.items()}


def layer_metrics(before: dict, after: dict, moves_emitted: int) -> dict[str, float]:
    """Per-layer metrics for the calls made between two snapshots."""
    def delta(key, i):
        a, b = before.get(key), after.get(key)
        return (b[i] if b else 0) - (a[i] if a else 0)

    keys = set(after)

    def layer_sum(layer, i):
        return sum(delta(k, i) for k in keys if k[0] == layer)

    plan_s = delta(("planner", "plan_path"), 1)
    return {
        "weights.calls": layer_sum("weights", 0),
        "weights.self_s": layer_sum("weights", 2),
        "weights.is_p_restricted_calls": delta(("weights", "is_p_restricted"), 0),
        "moves.calls": layer_sum("moves", 0),
        "moves.self_s": layer_sum("moves", 2),
        "moves.apply_move_calls": delta(("moves", "apply_move"), 0),
        "moves.validate_move_calls": delta(("moves", "validate_move"), 0),
        "planner.plans": delta(("planner", "plan_path"), 0),
        "planner.plan_path_s": plan_s,
        "planner.self_s": layer_sum("planner", 2),
        "planner.moves_emitted": moves_emitted,
        "planner.moves_per_s": moves_emitted / plan_s if plan_s else 0.0,
        "graph.build_s": delta(("graph", "build_certified_graph"), 1),
        "graph.all_pairs_s": delta(("graph", "all_pairs_distances"), 1),
        "graph.bfs_sources": delta(("graph", "bfs_distances"), 0),
        "graph.self_s": layer_sum("graph", 2),
        "conormal.calls": layer_sum("conormal", 0),
        "conormal.self_s": layer_sum("conormal", 2),
        "char0.distance_s": delta(("char0", "char0_distance"), 1),
        "char0.lr_neighbors_calls": delta(("char0", "lr_neighbors"), 0),
        "char0.self_s": layer_sum("char0", 2),
        "cli.render_s": layer_sum("render", 2),
    }
