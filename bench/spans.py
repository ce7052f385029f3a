"""In-memory span recorder for the traced benchmark run.

A span is one call into a library layer: its name (``<layer>.<function>``),
start, end, the span that was open when it began (its parent) and the id of
the benchmark op it belongs to.  Spans are kept in flat arrays while the run
is timed and written out once at the end.

Spans are recorded only by the benchmark's own code: around each op it
issues, and, during the traced phase only, by wrappers that the benchmark
installs on the names a layer uses to call another layer (for example the
``factor_sp`` that ``framedhom.theta`` calls).  No library file is changed.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# (module, attribute, span name): cross-layer call sites wrapped in the
# traced phase.  Attributes a module no longer has are skipped, so a change
# that removes a call site simply stops producing its spans.
CALL_SITES = (
    ("framedhom.theta", "factor_sp", "paut.factor_sp"),
    ("framedhom.theta", "v_kappa_star", "theta.v_kappa_star"),
    ("framedhom.kernel", "theta", "theta.theta"),
    ("framedhom.kernel", "kernel_test", "kernel.kernel_test"),
    ("framedhom.kernel", "compose", "paut.compose"),
    ("framedhom.words", "compose", "paut.compose"),
    ("framedhom.moves", "arf", "framing.arf"),
    ("framedhom.bruteforce", "theta_table", "bruteforce.theta_table"),
    ("framedhom.bruteforce", "kernel_order_mod2", "bruteforce.kernel_order_mod2"),
)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _factor_counts(args, result) -> dict:
    s = args[0]
    return {
        "len": len(result),
        "exp_bits": _bits(k for _, k in result),
        "entry_bits": _bits(v for row in s for v in row),
    }


def _compose_counts(args, result) -> dict:
    return {"entry_bits": _bits(v for row in result.S for v in row)}


# exact counters taken from a layer's arguments and result
COUNTERS = {
    "paut.factor_sp": _factor_counts,
    "paut.compose": _compose_counts,
    "moves.match_framings": lambda args, result: {"moves": len(result)},
    "bruteforce.enumerate_sp2": lambda args, result: {"order": len(result)},
}


class Tracer:
    """Spans of one traced phase; counters only for ops with id below `counted_ops`."""

    def __init__(self, counted_ops: int) -> None:
        self.counted_ops = counted_ops
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: list[tuple[int, dict]] = []  # (span index, counters)
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None and self.op_id < self.counted_ops:
            self.counts.append((i, counter(args, result)))
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap the cross-layer call sites of the already imported modules."""
        saved = []
        for module_name, attr, span in CALL_SITES:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(span, getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self, wall: float, pool) -> tuple[dict, dict]:
        """Per-name durations, busy time and self time, plus exact counters.

        Op ids count from 0 at the start of the traced phase, which starts at
        the head of the pool, so op id i ran ``pool[i % len(pool)]``.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name: dict[str, list[float]] = {}
        by_cls: dict[tuple[str, str], list[float]] = {}
        busy: dict[str, float] = {}
        layer_busy: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            layer = name.split(".", 1)[0]
            per_name.setdefault(name, []).append(dur[i])
            by_cls.setdefault((name, pool[self.op[i] % len(pool)].cls), []).append(dur[i])
            p = self.parent[i]
            if p < 0 or self.names[self.name[p]] != name:
                busy[name] = busy.get(name, 0.0) + dur[i]
            if p < 0 or self.names[self.name[p]].split(".", 1)[0] != layer:
                layer_busy[layer] = layer_busy.get(layer, 0.0) + dur[i]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]
        counts: dict[str, list[dict]] = {}
        for i, values in self.counts:
            counts.setdefault(self.names[self.name[i]], []).append(values)
        return {
            "p50": {k: median(v) for k, v in per_name.items()},
            "p50_by_cls": {k: median(v) for k, v in by_cls.items()},
            "n": {k: len(v) for k, v in per_name.items()},
            "busy_share": {k: v / wall for k, v in busy.items()},
            "layer_busy_share": {k: v / wall for k, v in layer_busy.items()},
            "layer_self_share": {k: v / wall for k, v in layer_self.items()},
        }, counts

    def write(self, path, pool) -> None:
        """Write every span as gzipped JSON; op id i ran pool op ``i % len(pool)``."""
        doc = {
            "names": self.names,
            "pool_labels": [op.label for op in pool],
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

