"""In-memory span tracer that wraps layer functions from outside the program.

A span is (name, start, end, parent index).  Self time is a span's duration
minus the durations of its direct children; spans nest strictly because the
traced code is single-threaded, so the self times of all spans under a root
sum to that root's duration.

``Tracer.wrap`` replaces one attribute (a module global or a class
attribute) with a timing wrapper and remembers the original, and
``Tracer.restore`` puts every original back.  Modules import layer functions
by name, so the binding has to be wrapped in each consuming module.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str | Callable[..., str]) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a function of the call's arguments that
        returns it (used to label forward passes by batch size).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(label(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def problems(self) -> list[str]:
        """What is wrong with the recorded spans: a span left open or closed
        before it started, a span that sticks out of its parent, or a
        negative self time.  Empty when the spans nest as they should."""
        out = [f"{len(self._stack)} span(s) left open"] if self._stack else []
        for i, name in enumerate(self.names):
            start, end, parent = self.starts[i], self.ends[i], self.parents[i]
            if end < start:
                out.append(f"span {i} ({name}) ends before it starts")
            elif parent >= 0 and not self.starts[parent] <= start <= end <= self.ends[parent]:
                out.append(f"span {i} ({name}) lies outside its parent {parent}")
        out += [
            f"span {i} ({self.names[i]}) has negative self time {own}"
            for i, own in enumerate(self.self_times()) if own < -1e-9  # float rounding
        ]
        return out

    def by_name(self) -> dict[str, dict[str, list[float]]]:
        """Durations and self times grouped by span name."""
        own = self.self_times()
        groups: dict[str, dict[str, list[float]]] = {}
        for i, name in enumerate(self.names):
            g = groups.setdefault(name, {"dur": [], "self": []})
            g["dur"].append(self.ends[i] - self.starts[i])
            g["self"].append(own[i])
        return groups

    def to_csv(self) -> str:
        lines = ["index,name,start,end,parent"]
        t0 = self.starts[0] if self.starts else 0.0
        for i, name in enumerate(self.names):
            lines.append(
                f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},{self.parents[i]}"
            )
        return "\n".join(lines) + "\n"
