"""In-memory span tracer installed from the benchmark's own files.

Wrappers replace module attributes named by dotted paths, such as
``rfmc.kernels.layer_forward``. The package looks these attributes up at
call time, so the wrappers see every call, including calls made by the
in-process stream server's threads. A path the code no longer has is
recorded in ``absent`` instead of raising, so the tracer keeps working
when functions are renamed or deleted.

Each call records a span (name, start, end, parent, thread). Self time is
a span's duration minus the time covered by its direct children. Spans
stay in memory while the run lasts and are written out at its end.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``tag`` maps the call's positional arguments to a suffix of the span
    name. With ``wraps_result`` the attribute is a factory returning
    ``(callable, ...)``; the returned callable is wrapped instead of the
    factory call itself.
    """

    path: str
    name: str
    tag: Callable[[tuple], str] | None = None
    wraps_result: bool = False


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "child_time")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


def resolve(path: str):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Records spans while ``recording`` is true; wrappers stay installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self.absent: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for target in targets:
            found = resolve(target.path)
            if found is None:
                self.absent.append(target.path)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            if target.wraps_result:
                wrapper = self._wrap_factory(original, target.name)
            else:
                wrapper = self._wrap(original, target.name, target.tag)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name: str, tag):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(name + tag(args) if tag else name, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                spans.append(span)

        return traced

    def _wrap_factory(self, factory, name: str):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            result = factory(*args, **kwargs)
            if isinstance(result, tuple) and result and callable(result[0]):
                return (self._wrap(result[0], name, None), *result[1:])
            return result

        return traced_factory

    def write(self, path) -> None:
        """Save all spans as parallel arrays in an .npz file."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        names = sorted({s.name for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names, dtype=str),
            name=np.array([name_id[s.name] for s in self.spans], dtype=np.int32),
            start=np.array([s.start for s in self.spans]),
            end=np.array([s.end for s in self.spans]),
            parent=np.array(
                [index.get(id(s.parent), -1) for s in self.spans], dtype=np.int64
            ),
            thread=np.array([s.thread for s in self.spans], dtype=np.uint64),
            self_time=np.array([s.self_time for s in self.spans]),
        )
