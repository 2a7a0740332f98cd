"""Outside-in span tracing, recorded from the benchmark's own files.

A span is opened around a call into one layer of the program: directly with
:meth:`Tracer.span` where the benchmark makes the call itself, and through
:class:`Patcher` for functions the program calls internally (the wrapper is
installed for the traced run only and removed afterwards, so untraced runs
execute the program's own code objects).

Every span has a name, a start, an end and a parent.  The tracer folds them
into a tree keyed by *path* — the chain of span names from the root — so a
run that opens millions of spans holds a few hundred nodes.  A node's self
time is its span time minus the time its child spans cover; spans nest
strictly (the program is single-threaded per process), so that is the span
time minus the sum of the children's span times.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Node:
    """Aggregate of every span recorded at one path."""

    calls: int = 0
    total_s: float = 0.0   # inclusive span time
    self_s: float = 0.0    # span time not covered by child spans


class Tracer:
    """Nested span recorder with aggregated self/inclusive times and counters.

    ``keep_spans=True`` also keeps every raw span as ``[name, start, end,
    parent_id]`` (``parent_id`` indexes the same list; ``None`` for a root).
    Spans recorded in a process forked from the tracer's owner (pool
    workers inherit the wrappers) are not recorded: that process's tree
    would never reach the parent.
    """

    def __init__(self, keep_spans: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.nodes: dict[tuple[str, ...], Node] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] | None = [] if keep_spans else None
        self._stack: list[list] = []   # open spans: [path, start, child_s, id]
        self._pid = os.getpid()

    @property
    def recording(self) -> bool:
        return os.getpid() == self._pid

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        path = parent[0] + (name,) if parent is not None else (name,)
        span_id = None
        if self.spans is not None:
            span_id = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               parent[3] if parent is not None else None])
        self._stack.append([path, self.clock(), 0.0, span_id])

    def end(self) -> None:
        path, start, child_s, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = Node()
        node.calls += 1
        node.total_s += duration
        node.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id][1] = start
            self.spans[span_id][2] = end

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn: Callable, name: str,
             after: Callable | None = None) -> Callable:
        """``fn`` inside a span named ``name``.

        ``after(tracer, args, result)`` runs once the span has closed, to
        read counts off the call's arguments and result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def _matching(self, name: str, under: str | None):
        for path, node in self.nodes.items():
            if path[-1] == name and (under is None or under in path[:-1]):
                yield node

    def total(self, name: str, under: str | None = None) -> float:
        """Inclusive seconds of every ``name`` span (below an ``under`` span)."""
        return sum(node.total_s for node in self._matching(name, under))

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(node.calls for node in self._matching(name, under))

    @property
    def span_count(self) -> int:
        return sum(node.calls for node in self.nodes.values())

    def tree_errors(self, rel_tol: float = 1e-9) -> list[str]:
        """Nodes whose self time plus children's time is not their span time."""
        children: dict[tuple[str, ...], float] = {}
        for path, node in self.nodes.items():
            if len(path) > 1:
                children[path[:-1]] = children.get(path[:-1], 0.0) + node.total_s
        errors = []
        for path, node in self.nodes.items():
            covered = node.self_s + children.get(path, 0.0)
            tolerance = rel_tol * max(1.0, node.total_s)
            if abs(covered - node.total_s) > tolerance or node.self_s < -tolerance:
                errors.append(f"{'/'.join(path)}: self {node.self_s:.9f} s + "
                              f"children {children.get(path, 0.0):.9f} s != "
                              f"span {node.total_s:.9f} s")
        return errors

    def tree(self) -> list[dict]:
        """The span tree as rows sorted by path (parents before children)."""
        return [{"path": "/".join(path), "calls": node.calls,
                 "total_s": node.total_s, "self_s": node.self_s}
                for path, node in sorted(self.nodes.items())]


class Patcher:
    """Replaces module or class attributes and restores the originals.

    Use as a context manager; :meth:`replace` swaps one attribute, passing
    the original function to ``make`` and installing what it returns.
    ``classmethod``/``staticmethod`` descriptors are unwrapped and rewrapped
    so the replacement binds exactly as the original did.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
