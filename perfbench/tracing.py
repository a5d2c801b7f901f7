"""Spans recorded from outside the program, at the boundaries of its layers.

The benchmark never edits `src/`. It measures a layer by replacing that
layer's public functions with timing wrappers for the length of a run and
putting the originals back afterwards. Python copies a name into a module
that imports it (`from .grad import grad_free_energy_v` in `sampler.py`),
so a wrapper is installed under every name in every `mpkrbm` module that
refers to the original object, not only in the defining module.

A span records its name, start, end, the span that was open on the same
thread when it began (its parent) and that thread. Spans stay in memory;
the caller summarises them when the run ends.
"""

import contextlib
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

# the span of a counting hook, so that its cost leaves the caller's self time
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self):
        return self.end - self.start


def program_modules(package="mpkrbm"):
    """Every loaded module of the package, the package itself included."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


class Patcher:
    """Replaces an object under every name that refers to it, and restores."""

    def __init__(self, modules):
        self.modules = modules
        self.replaced = []          # (module, attribute, original, replacement)

    def replace(self, original, replacement):
        hits = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.replaced.append((mod, attr, original, replacement))
                    hits += 1
        if hits == 0:
            raise LookupError(f"{original!r} is not referenced by any traced module")
        return hits

    @contextlib.contextmanager
    def suspended(self):
        """The originals in place for the length of the block, so that
        calls made there (the benchmark's own checks) are not recorded."""
        for mod, attr, original, _ in reversed(self.replaced):
            setattr(mod, attr, original)
        try:
            yield
        finally:
            for mod, attr, _, replacement in self.replaced:
                setattr(mod, attr, replacement)

    def restore(self):
        for mod, attr, original, _ in reversed(self.replaced):
            setattr(mod, attr, original)
        self.replaced.clear()


@dataclass
class Tracer:
    """Collects spans from any thread; each thread keeps its own open stack."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    # name -> {counter: total}, filled by the hooks given to `wrap`
    counters: dict = field(default_factory=dict)

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else None, name, self.clock()]
        stack.append(span)
        return span

    def end(self, span):
        end = self.clock()
        self._stack().pop()
        record = Span(span[0], span[1], span[2], span[3], end, threading.get_ident())
        with self._lock:
            self.spans.append(record)
        return record

    def count(self, name, **amounts):
        with self._lock:
            totals = self.counters.setdefault(name, {})
            for key, value in amounts.items():
                totals[key] = totals.get(key, 0) + value

    def wrap(self, func, name, hook=None):
        """A wrapper that records one span named `name` per call.
        `hook(tracer, name, args, kwargs, result)` runs after the call, in
        a span of its own (HOOK_SPAN) beside the call's: its cost is then
        neither the call's time nor the caller's self time."""
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if hook is not None:
                span = self.begin(HOOK_SPAN)
                try:
                    hook(self, name, args, kwargs, result)
                finally:
                    self.end(span)
            return result

        traced.__wrapped__ = func
        return traced

    def pool_class(self, name):
        """A ThreadPoolExecutor whose `with` block is recorded as one span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.begin(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        return TracedPool


def self_times(spans):
    """span id -> self time: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s"} over every span of that name."""
    own = self_times(spans)
    out = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return out


def worker_busy(spans, pool_name):
    """Sum of root-span time on threads other than the one that ran the
    pool, inside the pool's spans, and the pools' own wall time."""
    pools = [s for s in spans if s.name == pool_name]
    wall = sum(p.duration for p in pools)
    busy = 0.0
    for pool in pools:
        busy += sum(s.duration for s in spans
                    if s.parent is None and s.thread != pool.thread
                    and s.start >= pool.start and s.end <= pool.end)
    return busy, wall
