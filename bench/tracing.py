"""Spans around calls into ``scorefuse`` layers, recorded from outside the package.

:func:`traced` replaces a layer function with a timing wrapper under every
name a ``scorefuse`` module binds it to (``cli`` and ``protocol`` import the
layers' functions by name), and restores the originals on exit. Spans stay
in memory; a span's self time is its duration minus that of the traced calls
made inside it on the same thread. No file under the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    duration: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of one traced round, from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives the span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
                self.spans.append(span)  # list.append is atomic under the interpreter lock
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))


@contextlib.contextmanager
def traced(tracer: Tracer, targets):
    """Wrap each ``(module, attribute, span name, count)`` target while the block runs.

    A module-level function is rebound in every loaded ``scorefuse`` module
    that holds it; a class attribute (``Class.method``) is rebound on the class.
    """
    restore = []
    try:
        for module, attr, name, count in targets:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[module], owner_name)
                original = getattr(owner, method)
                setattr(owner, method, tracer.wrap(name, original, count))
                restore.append((owner, method, original))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = tracer.wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "scorefuse" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
