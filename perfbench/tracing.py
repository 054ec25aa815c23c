"""Span tracing of expwalk, installed from outside the program.

``Tracer.install`` wraps every public function of each layer module in
every ``expwalk`` module namespace that bound it (``lll_reduce`` lives in
``lattices``, ``dioph`` and ``cli``; ``siegel_count`` in ``lattices`` and
``dioph``), and ``scipy.optimize.minimize`` as bound in ``expansion``.
``uninstall`` restores the originals, so untraced passes run unwrapped
code.  Spans are kept in memory as
``[name, start, end, parent index, op id, work, error]``.
"""
from __future__ import annotations

import inspect
import statistics
import sys
import time
from math import floor

LAYERS = ("cli", "expansion", "measures", "linalg", "lattices", "kau", "fractal", "dioph")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dim_label(pos, name):
    def label(base, args, kwargs):
        x = _arg(args, kwargs, pos, name)
        d = x.dim if hasattr(x, "dim") else len(x)
        return f"{base}.d{d}"

    return label


def _flow_label(base, args, kwargs):
    w = _arg(args, kwargs, 1, "weights")
    return f"{base}.d{w.m + w.n}"


def _flow_points(args, kwargs, result):
    t_max = _arg(args, kwargs, 2, "t_max")
    dt = kwargs.get("dt", args[3] if len(args) > 3 else 0.05)
    return int(floor(t_max / dt + 1e-9)) + 1


def _box_points(args, kwargs, result):
    t_max = _arg(args, kwargs, 2, "t_max")
    box = 1
    for s in _arg(args, kwargs, 1, "weights").s:
        box *= 2 * floor(t_max**s + 1e-12) + 1
    return box


# span name overrides, name suffixes from the arguments, and work counts
RENAME = {"expansion.certificate_from_rep_atoms": "expansion.certificate"}
LABELS = {
    "lattices.lll_reduce": _dim_label(0, "basis"),
    "lattices.shortest_vector": _dim_label(0, "x"),
    "lattices.siegel_count": _dim_label(0, "x"),
    "dioph.flow_trace": _flow_label,
}
WORK = {
    "dioph.flow_trace": _flow_points,
    "dioph.brute_force_quality": _box_points,
    "cli.emit_plotdata": lambda args, kwargs, result: result.count("\n") - 1,
    "expansion.optimizer": lambda args, kwargs, result: result.nfev,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label, work = LABELS.get(name), WORK.get(name)
        name = RENAME.get(name, name)

        def traced(*args, **kwargs):
            span = [label(name, args, kwargs) if label else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[6] = type(err).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "expwalk" or n.startswith("expwalk.")]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"expwalk.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)][1])
        expansion = sys.modules["expwalk.expansion"]
        self._patches.append((expansion, "minimize", expansion.minimize))
        expansion.minimize = self._wrap("expansion.optimizer", expansion.minimize)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


def _child_time(spans) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return child


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive s, self_s, summed work, error counts."""
    child = _child_time(spans)
    stats: dict[str, dict] = {}
    for i, (name, t0, t1, _parent, _op, work, error) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "errors": {}})
        st["calls"] += 1
        st["s"] += t1 - t0
        st["self_s"] += (t1 - t0) - child[i]
        if work is not None:
            st["work"] += work
        if error is not None:
            st["errors"][error] = st["errors"].get(error, 0) + 1
    return stats


def op_totals(spans, name) -> dict:
    """Inclusive s, self s and work of one span name, summed per op id."""
    child = _child_time(spans)
    out: dict[str, list] = {}
    for i, span in enumerate(spans):
        if span[0] == name:
            acc = out.setdefault(span[4], [0.0, 0.0, 0])
            acc[0] += span[2] - span[1]
            acc[1] += span[2] - span[1] - child[i]
            acc[2] += span[5] or 0
    return out


def median_stats(per_pass: list[dict]) -> dict:
    """Median over traced passes of every (name, field)."""
    names = set().union(*per_pass) if per_pass else set()
    out = {}
    for name in names:
        rows = [p.get(name) for p in per_pass]
        out[name] = {key: statistics.median_low(r[key] if r else 0 for r in rows)
                     for key in ("calls", "work")}
        out[name].update({key: statistics.median(r[key] if r else 0 for r in rows)
                          for key in ("s", "self_s")})
        out[name]["errors"] = rows[0]["errors"] if rows[0] else {}
    return out


def write_spans(path, traced_passes) -> None:
    """One CSV of every span of every traced pass; parent is a row index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,index,name,start,end,parent,op,work,error\n")
        for k, spans in enumerate(traced_passes):
            for i, (name, t0, t1, parent, op, work, error) in enumerate(spans):
                fh.write(f"{k},{i},{name},{t0:.9f},{t1:.9f},{parent},{op},"
                         f"{'' if work is None else work},{error or ''}\n")
