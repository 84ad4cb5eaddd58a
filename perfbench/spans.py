"""Spans around the public functions of the bcct layers, installed from outside.

``instrument`` wraps every public function and public method defined in
the eight layer modules and rebinds each wrapper wherever a ``bcct.*``
namespace holds the original: module attributes, aliases made by
``from .x import y as z``, and module-level dicts such as the CLI's suite
table.  Nothing under ``src/`` is edited; ``restore`` puts the originals
back.  ``fixtures`` and ``_expderiv`` are not wrapped, so their time counts
toward the layer that calls them.

Spans are kept in memory (one list per ``Tracer``) and reduced per round
by ``round_metrics``.  A span's self time is its duration minus the union
of the intervals its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from collections import defaultdict

import numpy as np

import bcct

LAYERS = (
    "cli",
    "circle_sets",
    "cutoff",
    "boundary_calculus",
    "factors",
    "transforms",
    "spaces",
    "dbr",
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "trace", "error")

    def __init__(self, id, name, layer, start, end, parent, trace, error=False):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace
        self.error = error

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder for one single-threaded process.

    ``trace`` is the round number; spans opened while another is open get
    it as parent.  ``counts`` holds per-round work counters and ``keys``
    the distinct inputs seen per counted function, both keyed by round.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.keys = defaultdict(lambda: defaultdict(set))

    def open(self, name: str, layer: str | None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), None, parent, self.trace)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        span = self.open(name, layer)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self.close(span)


# ---------------------------------------------------------------------------
# work counters: name -> fn(bound arguments) -> (counts, distinct-input key)
# ---------------------------------------------------------------------------


def _size(x) -> int:
    return int(np.size(x))


def _array_key(a) -> tuple:
    """Cheap identity of a sample array: shape, dtype and a strided sample."""
    a = np.asarray(a)
    flat = a.reshape(-1)
    return (a.shape, a.dtype.str, hash(flat[:: max(1, flat.size // 4096)].tobytes()))


COUNTERS = {
    "cutoff.eval_h": lambda a: ({"pole_evals": _size(a["z"]) * len(a["c"].poles)}, None),
    "transforms.flip_check": lambda a: (
        {"kernel_entries": a.get("n_points", 64) * a["member"].size},
        None,
    ),
    "factors.herglotz_exp": lambda a: (
        {"kernel_entries": _size(a["log_modulus"]) * _size(a["z"])},
        None,
    ),
    "factors.InnerFunction.coefficients": lambda a: (
        {"band_sum": a["band"]},
        (repr(a["self"]), a["band"]),
    ),
    "boundary_calculus.analytic_coefficients": lambda a: (
        {"fft_points": _size(a["samples"])},
        _array_key(a["samples"]),
    ),
}


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            tracer.close(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts, key = counter(bound.arguments)
            per_round = tracer.counts[tracer.trace]
            for k, v in counts.items():
                per_round[f"{name}.{k}"] += v
            if key is not None:
                tracer.keys[tracer.trace][name].add(key)
        return result

    return traced


def _bcct_modules():
    mods = [bcct]
    for info in pkgutil.iter_modules(bcct.__path__):
        mods.append(importlib.import_module(f"bcct.{info.name}"))
    return mods


def _span_names(layer_mod, layer: str) -> dict:
    """Original callable -> span name, for one layer module."""
    names = {}
    for attr, obj in vars(layer_mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != layer_mod.__name__:
            continue
        if inspect.isfunction(obj):
            names[obj] = f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for mname, m in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(m) or isinstance(m, (classmethod, staticmethod)):
                    names[(obj, mname)] = f"{layer}.{obj.__name__}.{mname}"
    if layer == "cli":
        for suite, fn in getattr(layer_mod, "_SUITE_FN", {}).items():
            names[fn] = f"cli.suite.{suite}"
    return names


def instrument(tracer: Tracer):
    """Wrap every layer's public callables; return a function that undoes it."""
    mods = _bcct_modules()
    by_name = {m.__name__: m for m in mods}
    wrappers = {}
    undo = []
    for layer in LAYERS:
        layer_mod = by_name[f"bcct.{layer}"]
        for target, name in _span_names(layer_mod, layer).items():
            if isinstance(target, tuple):
                cls, mname = target
                raw = vars(cls)[mname]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(_wrap(tracer, name, layer, raw.__func__))
                else:
                    wrapped = _wrap(tracer, name, layer, raw)
                setattr(cls, mname, wrapped)
                undo.append((setattr, cls, mname, raw))
            else:
                wrappers[target] = _wrap(tracer, name, layer, target)
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                undo.append((setattr, mod, attr, val))
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if inspect.isfunction(v) and v in wrappers:
                        val[k] = wrappers[v]
                        undo.append((dict.__setitem__, val, k, v))

    def restore() -> None:
        for setter, obj, key, original in reversed(undo):
            setter(obj, key, original)

    return restore


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - union_length(clipped)
    return out


def round_metrics(spans, counts=None, keys=None) -> dict[str, float]:
    """Per-layer figures of one round from its spans.

    ``<name>.s`` (self time), ``.total_s`` (duration, children included),
    ``.calls`` and ``.errors`` per wrapped callable,
    ``<layer>.self_s``/``.calls``/``.errors`` per layer, the round's own
    duration (``traced_round_s``) and the part of it no layer span covers
    (``unattributed_s``).  Each ``.s``, ``.total_s`` and ``.self_s`` also
    appears as a percentage of the round: ``.share``, ``.total_share`` and
    ``<layer>.share``.  Counters add ``<name>.<count>`` and, where the
    counter names a distinct-input key, ``<name>.unique_ratio``.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.errors"] = 0.0
    top_level = []
    round_s = 0.0
    for s in spans:
        if s.layer is None:
            if s.parent is None:
                round_s += s.end - s.start
            continue
        out[f"{s.name}.s"] += selfs[s.id]
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.errors"] += s.error
        out[f"{s.layer}.self_s"] += selfs[s.id]
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.errors"] += s.error
        parent = by_id.get(s.parent)
        if parent is None or parent.layer is None:
            top_level.append((s.start, s.end))
    for key, seconds in list(out.items()):
        for suffix, share in ((".total_s", ".total_share"), (".self_s", ".share"), (".s", ".share")):
            if key.endswith(suffix):
                out[key[: -len(suffix)] + share] = 100.0 * seconds / round_s if round_s else 0.0
                break
    out["traced_round_s"] = round_s
    out["unattributed_s"] = round_s - union_length(top_level)
    for k, v in (counts or {}).items():
        out[k] += v
    for name, distinct in (keys or {}).items():
        calls = out.get(f"{name}.calls", 0.0)
        out[f"{name}.unique_ratio"] = len(distinct) / calls if calls else 0.0
    return dict(out)


def per_round_medians(tracer: Tracer, rounds) -> dict[str, float]:
    """Median over the given rounds of each per-round figure (0 where absent)."""
    grouped = defaultdict(list)
    for s in tracer.spans:
        grouped[s.trace].append(s)
    per_round = [round_metrics(grouped[r], tracer.counts[r], tracer.keys[r]) for r in rounds]
    names = set().union(*per_round) if per_round else set()
    return {n: statistics.median(m.get(n, 0.0) for m in per_round) for n in sorted(names)}
