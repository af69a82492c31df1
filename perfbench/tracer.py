"""In-memory span recorder for the traced run.

The benchmark wraps public functions of the program from its own files
(see :mod:`layers`); nothing inside ``src/`` records spans.  Each call
to a wrapped function appends one span -- name, start, end and the index
of the span open around it -- to flat arrays, so a million spans cost a
few tens of MB and no per-call allocation of objects.  Spans are
summarised (and optionally written out) when the measured work ends.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Spans on one thread nest strictly, so the children
of a span cover exactly the sum of their durations; the self times of
all spans therefore add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Iterable


class Tracer:
    """Records spans around wrapped callables of one process."""

    def __init__(self, clock: Callable | None = None) -> None:
        #: the time source of every span (``time.perf_counter`` unless
        #: given, e.g. one that leaves out the benchmark's own sampling)
        self.clock = clock or time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: free-form totals that wrappers add to (see ``on_return``)
        self.counters: dict[str, float] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span (also used after a fork)."""
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self, name: str, fn: Callable, on_return: Callable | None = None
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call;
        ``on_return`` (if given) sees each result after the span ends."""
        nid = self.name_id(name)
        perf = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.name_ids)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.perfbench_span = name
        return traced

    def durations(self, name: str) -> list[float]:
        """Duration of every recorded span called ``name``."""
        nid = self._ids.get(name)
        return [
            self.ends[k] - self.starts[k]
            for k, n in enumerate(self.name_ids)
            if n == nid
        ]

    def spans(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every recorded span called ``name``."""
        nid = self._ids.get(name)
        return [
            (self.starts[k], self.ends[k])
            for k, n in enumerate(self.name_ids)
            if n == nid
        ]

    def summary(self) -> dict[str, dict]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` of all spans."""
        return summarize(
            self.names, self.name_ids, self.parents, self.starts, self.ends
        )

    def dump(self, prefix: str) -> None:
        """Write every span: ``<prefix>.json`` holds the names and the
        span count, ``<prefix>.<column>`` each column as raw machine
        values (``array.fromfile`` reads them back)."""
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name_ids)}, fh)
        for column in ("name_ids", "parents", "starts", "ends"):
            with open(f"{prefix}.{column}", "wb") as fh:
                getattr(self, column).tofile(fh)


def summarize(
    names: list[str],
    name_ids: Iterable[int],
    parents: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
) -> dict[str, dict]:
    """Calls, total and self time per span name.

    ``parents[k]`` is the index of the span open around span ``k`` (or
    -1).  Self time is a span's duration minus its direct children's
    durations.
    """
    durs = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(durs)
    for k, p in enumerate(parents):
        if p >= 0:
            child[p] += durs[k]
    out: dict[str, dict] = {}
    for k, nid in enumerate(name_ids):
        rec = out.setdefault(
            names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        rec["calls"] += 1
        rec["total_s"] += durs[k]
        rec["self_s"] += durs[k] - child[k]
    return out


def merge(into: dict[str, dict], other: dict[str, dict]) -> dict[str, dict]:
    """Add the per-name sums of ``other`` into ``into``."""
    for name, rec in other.items():
        acc = into.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for key in acc:
            acc[key] += rec[key]
    return into


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every loaded program module
    that imported it by name."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(
    tracer: Tracer,
    targets: Iterable[tuple],
    on_return: Callable | None = None,
) -> None:
    """Wrap every target for the rest of the process.

    A target is ``(span_name, owner, attr)``.  ``owner`` is a class --
    the method is wrapped on it and on every subclass that overrides it
    -- or a module, whose function is rebound wherever it was imported.
    A function wrapped before is left as it is.
    """
    for name, owner, attr in targets:
        if isinstance(owner, type):
            for cls in {owner, *_subclasses(owner)}:
                fn = vars(cls).get(attr)
                if fn is not None and not hasattr(fn, "perfbench_span"):
                    setattr(cls, attr, tracer.wrap(name, fn, on_return))
        else:
            fn = getattr(owner, attr)
            if not hasattr(fn, "perfbench_span"):
                _replace_everywhere(fn, tracer.wrap(name, fn, on_return))


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
