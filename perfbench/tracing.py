"""Spans around the public functions of ``mlpmod``, recorded from outside.

Each traced function is replaced, inside :meth:`Tracer.installed`,
on every ``mlpmod`` module attribute bound to it, because the harness, the
CLI and ``mlp.train`` call functions through names in their own
namespaces. Spans (name, start, end, parent) stay in memory until
:meth:`Tracer.write`. A traced name that no longer exists is listed in
``missing`` instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


# figures taken from a call's arguments once it returns
PROBES = {
    "checkpoint.save_checkpoint": lambda args, kwargs: os.path.getsize(args[1]),
    "checkpoint.load_checkpoint": lambda args, kwargs: os.path.getsize(args[0]),
    "spectral.smallest_eigenvectors": lambda args, kwargs: int(np.shape(args[0])[0]),
}


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []  # [name, start, end, parent index, probe value]
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if probe is not None:
                    try:
                        span[4] = probe(args, kwargs)
                    except (IndexError, OSError, TypeError):
                        pass  # a changed signature loses the figure, not the run

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        originals = {}
        self.missing = []
        for target in self.targets:
            module_name, fn_name = target.rsplit(".", 1)
            try:
                originals[target] = getattr(importlib.import_module("mlpmod." + module_name), fn_name)
            except (ImportError, AttributeError):
                self.missing.append(target)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mlpmod"]
        patches = []
        for target, original in originals.items():
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    def durations(self, name) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def self_time(self, name) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return total - children

    def probes(self, name) -> list:
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def write(self, path) -> None:
        payload = {"missing": self.missing, "spans": [
            {"name": n, "start": a, "end": b, "parent": p, "probe": v}
            for n, a, b, p, v in self.spans
        ]}
        with open(path, "w") as f:
            json.dump(payload, f)
