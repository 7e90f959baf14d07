"""In-memory span tracer that instruments a program from outside.

A span records a name, a start, an end and the span open when it started
(its parent). Functions are instrumented by rebinding module or class
attributes; `Tracer.close` restores every original binding.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: dict[int, str] = {}  # span -> tape op created directly inside it
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def innermost(self) -> int:
        return self._stack[-1] if self._stack else -1

    def spanned(self, fn, name: str, after=None):
        """`fn` wrapped in a span; `after(args, result)` runs once the span
        has closed, so its cost is not charged to `name`."""

        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, fn, key: str):
        """`fn` wrapped with a call counter only (for functions called too
        often for a span each)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- binding ---------------------------------------------------------

    def rebind(self, owners, name: str, make_wrapper) -> None:
        """Replace `name` in every owner whose binding is the same object as
        in the first owner (modules that imported the function by name hold
        their own binding)."""
        orig = getattr(owners[0], name)
        wrapper = make_wrapper(orig)
        for owner in owners:
            if getattr(owner, name, None) is orig:
                self._undo.append((owner, name, orig))
                setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # ---- analysis --------------------------------------------------------

    def arrays(self):
        """(duration, self time, parent) arrays, times in seconds. Self time
        is the duration minus the durations of direct children."""
        if self._stack:
            raise RuntimeError("spans still open")
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child, parents

    def by_name(self):
        """{name: (calls, total seconds, total self seconds)}."""
        dur, self_t, _ = self.arrays()
        out: dict = {}
        for i, name in enumerate(self.names):
            c, d, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + 1, d + dur[i], s + self_t[i])
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                rec = {
                    "id": i,
                    "name": name,
                    "start_us": round((self.starts[i] - t0) * 1e6, 3),
                    "end_us": round((self.ends[i] - t0) * 1e6, 3),
                    "parent": self.parents[i],
                }
                if i in self.ops:
                    rec["op"] = self.ops[i]
                f.write(json.dumps(rec) + "\n")
