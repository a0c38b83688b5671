"""Span tracing of dipolerg from the outside.

`Tracer.install()` replaces the public functions of each layer module (and a
few listed class methods) with thin wrappers that record one span per call:
name, start, end, parent span and operation id.  Nothing inside `src/` is
changed; `uninstall()` puts the original objects back, so traced and
untraced operations can run in the same process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "dipolerg"
# layer name -> module; `cli` is a thin JSON wrapper and is not measured
LAYERS = ("model", "fockspace", "kernels", "wick", "feshbach", "firststep",
          "rgflow", "oracle", "selfcheck")

# class methods traced besides the module-level public functions; a
# constructor's span carries the class name
METHODS = (
    ("kernels", "KernelGrid", "__init__"),
    ("fockspace", "FockBasis", "__init__"),
    ("rgflow", "StageMap", "inverse"),
)


def _basis_dim(args, _out):
    # spin (x) Fock dimension of the basis just built
    return 2 * len(args[0])


def _all_zero(_args, out):
    vals, _per_L = out
    return not np.any(vals)


# spans that record one number about the call besides its timing
TAGS = {
    "fockspace.FockBasis": _basis_dim,
    "wick.assemble_target": _all_zero,
}

# span fields, in order
NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """Collects spans in memory while installed.

    Spans are kept column by column in flat lists of names and numbers, so
    recording one allocates no container the garbage collector has to scan.
    """

    def __init__(self):
        self.op_id = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __len__(self):
        return len(self.starts)

    def _wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, tags, stack = self.parents, self.ops, self.tags, self._stack
        clock = time.perf_counter
        tag = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        # rebind every reference held by a package module, including names
        # imported with `from .x import f`
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            span = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{cls_name}.{meth}"
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def spans(self, a: int = 0, b: int | None = None) -> list[tuple]:
        """Spans a..b-1 as (name, start, end, parent, op, tag) tuples, with
        parents renumbered from a (a parent outside the range becomes -1)."""
        b = len(self) if b is None else b
        return [(self.names[i], self.starts[i], self.ends[i],
                 self.parents[i] - a if self.parents[i] >= a else -1,
                 self.ops[i], self.tags.get(i)) for i in range(a, b)]

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\ttag\n")
            for i, s in enumerate(self.spans()):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}"
                         f"\t{s[OP]}\t{'' if s[TAG] is None else s[TAG]}\n")


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> list[float]:
    """Per-span duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, cursor = 0.0, lo
        for a, b in sorted(children.get(i, ())):
            b = min(b, hi)
            if b > max(a, cursor):
                covered += b - max(a, cursor)
                cursor = b
        out.append((hi - lo) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def op_summary(spans) -> dict:
    """Per-name and per-layer totals for the spans of one operation.

    Returns {"names": {name: {"calls", "time_s", "self_s", "tags", "tag_time"}},
    "callers": {(name, caller_layer): same}, "layers": {layer: self_s}}.
    `time_s` counts only the outermost span of a name, so a recursive call
    is not counted twice.
    """
    selfs = self_times(spans)
    names: dict = {}
    callers: dict = {}
    layers = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        parent = s[PARENT]
        caller = layer_of(spans[parent][NAME]) if parent >= 0 else "none"
        nested = False
        p = parent
        while p >= 0:
            if spans[p][NAME] == name:
                nested = True
                break
            p = spans[p][PARENT]
        for key, table in ((name, names), ((name, caller), callers)):
            rec = table.setdefault(key, {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                         "tags": [], "tag_time": 0.0})
            rec["calls"] += 1
            rec["self_s"] += selfs[i]
            if not nested:
                rec["time_s"] += dur
            if s[TAG] is not None:
                rec["tags"].append(s[TAG])
                if s[TAG] is True:
                    rec["tag_time"] += dur
        layers[layer_of(name)] += selfs[i]
    return {"names": names, "callers": callers, "layers": layers}
