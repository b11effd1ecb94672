"""Spans around flagnef's public functions, recorded from the benchmark's side.

``Tracer`` wraps each function named in LAYERS and patches every flagnef
namespace that binds it (``flagnef.cli.theta`` as well as
``flagnef.theta.theta``), and methods on their class.  A span is (name,
start, end, parent).  Self time is a span's duration minus the durations of
its direct children.  Aggregates cover every span; the span list itself is
kept up to SPAN_CAP entries and written out at the end of a run.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Layer metric name -> (module, attribute path) of each function it covers.
LAYERS = {
    "cli.run_command": [("flagnef.cli", "run_command")],
    "cli.build_parser": [("flagnef.cli", "build_parser")],
    "cli.render_report": [("flagnef.cli", "render_report")],
    "hn.make_hn_type": [("flagnef.hn", "make_hn_type")],
    "hn.hn_from_splitting_type": [("flagnef.hn", "hn_from_splitting_type")],
    "hn.transforms": [("flagnef.hn", "HNType." + m)
                      for m in ("twist", "dual", "cover_pullback", "frobenius_pullback")],
    "theta.theta": [("flagnef.theta", "theta")],
    "theta.threshold_index": [("flagnef.theta", "threshold_index")],
    "theta.theta_oracle": [("flagnef.theta", "theta_oracle")],
    "theta.enumerate_va": [("flagnef.theta", "enumerate_va")],
    "positivity.classify_tautological": [("flagnef.positivity", "classify_tautological")],
    "positivity.anticanonical_is_nef": [("flagnef.positivity", "anticanonical_is_nef")],
    "cones.grassmann_nef_cone": [("flagnef.cones", "grassmann_nef_cone")],
    "cones.flag_nef_cone": [("flagnef.cones", "flag_nef_cone")],
    "cones.primitive_ray": [("flagnef.cones", "primitive_ray")],
    "cones.membership": [("flagnef.cones", f) for f in ("is_nef_gr", "is_ample_gr", "is_nef_flag")],
    "corpus.iter_hn_types": [("flagnef.corpus", "iter_hn_types")],
}

ROOT = "bench.op"
SPAN_CAP = 20000


class Tracer:
    """Patches flagnef while active (``with tracer:``) and accumulates spans."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.spans = []
        self.dropped = 0
        self._stack = []  # open spans: [child_total, span_id]
        self._next_id = 0
        self._restore = []

    # -- recording --

    def _open(self):
        frame = [0.0, self._next_id]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, start, end, frame, parent):
        self._stack.pop()
        child_s, span_id = frame
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_s)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, span_id, parent[1] if parent else None))
        else:
            self.dropped += 1
        if parent is not None:
            parent[0] += end - start

    def wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, name, fn(*args, **kwargs))
            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, start, perf_counter(), frame, parent)
        return wrapper

    def root(self, fn, *args):
        """Run one benchmark op as the root span of its layer spans."""
        return self.wrap(ROOT, fn)(*args)

    # -- patching --

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "flagnef" or n.startswith("flagnef.")]
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                if owner is None:
                    continue  # not imported by this workload, so never called
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original)
                if outer:
                    self._patch(owner, attr, original, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": span_id, "parent": parent}) + "\n")


class _TracedIterator:
    """Each resumption of a traced generator is one span."""

    def __init__(self, tracer, name, gen):
        self.tracer, self.name, self.gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        frame, parent = self.tracer._open()
        start = perf_counter()
        try:
            return next(self.gen)
        finally:
            self.tracer._close(self.name, start, perf_counter(), frame, parent)
