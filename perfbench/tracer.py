"""Spans around a package's functions, installed from outside the package.

A Tracer replaces each target function at every module binding that holds
it, including the copies that `from .x import f` makes in other modules, so
a call through any name is recorded.  Each call becomes a span with a
parent, a start and an end; self time is a span's duration minus the time
covered by its child spans.  Targets that no longer exist are reported as
missing instead of failing, so the tracer outlives refactors of the code it
watches.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts; install() wraps functions, uninstall() undoes it."""

    def __init__(self, clock=time.perf_counter, groups=None):
        self.clock = clock
        # group name -> span names; a group's time counts only the outermost
        # of its spans on the stack, so nested members are not counted twice
        self.groups = {g: frozenset(names) for g, names in (groups or {}).items()}
        self._member = defaultdict(list)
        for g, names in self.groups.items():
            for name in names:
                self._member[name].append(g)
        self.missing = []
        self._installed = []
        self.job = None
        self.job_state = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and totals; keep installed wrappers."""
        self.spans = []            # (span id, parent id, job, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edge_s = defaultdict(float)    # (parent name, name) -> seconds
        self.group_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0]
        self._stack.append(frame)
        for g in self._member.get(name, ()):
            self._depth[g] += 1
        return frame

    def exit(self, frame):
        end = self.clock()
        top = self._stack.pop()
        assert top is frame, "span stack out of order"
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.edge_s[(parent[1] if parent else None, name)] += dur
        for g in self._member.get(name, ()):
            self._depth[g] -= 1
            if self._depth[g] == 0:
                self.group_s[g] += dur
        self.spans.append((span_id, parent[0] if parent else None, self.job,
                           name, start, end))
        return dur

    def start_job(self, job):
        self.job = job
        self.job_state = {}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Wrapper of fn recording a span `name`; hook(tracer, bound, result) adds counts."""
        sig = None
        if hook is not None:
            sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def install(self, package, targets):
        """Wrap each (module, function, span name, hook) target at every binding.

        Every loaded module whose name starts with `package` is searched for
        attributes bound to the target function object.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, func_name, span_name, hook in targets:
            home = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(home, func_name, None) if home is not None else None
            if not callable(fn):
                if f"{module_name}.{func_name}" not in self.missing:
                    self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(span_name, fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    # -- reading -----------------------------------------------------------

    def layer_self(self):
        """Self seconds summed per layer (the span name up to its first dot)."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)
