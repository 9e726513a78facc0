"""Span recording around the package's public functions, for the traced run.

``install`` replaces each traced function by a wrapper in every
``curvednbody`` module that holds it, so calls made between the package's
own modules are seen too (``midpoint_step`` from both ``dynamics`` and
``reduction``, ``assemble_blocks`` from both ``stability`` and
``dynamics``).  A wrapper records one span (name, start, end, parent,
failed) and returns exactly what the wrapped function returns.  Spans stay in
memory until ``take`` hands them over; nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# (module, function) pairs whose calls become spans named "module.function".
TRACED = (
    ("integrators", "midpoint_step"),
    ("dynamics", "hamiltonian"),
    ("dynamics", "integrate"),
    ("dynamics", "growth_rate_experiment"),
    ("reduction", "integrate_reduced"),
    ("reduction", "lyapunov_certificate"),
    ("stability", "assemble_blocks"),
    ("stability", "spectral_analysis"),
    ("stability", "invariant_subspaces"),
    ("stability", "assemble_L_general"),
    ("fixedpoints", "shape_from_masses"),
    ("fixedpoints", "fixed_point_residual"),
    ("fixedpoints", "solve_fixed_point_numeric"),
    ("geometry", "force_gradient"),
    ("report", "write_csv"),
    ("report", "atomic_write_text"),
)

PACKAGE = "curvednbody"


class Tracer:
    """Collects spans from any thread; each thread keeps its own parent stack."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = {}
        self.names = []
        self.bytes_written = 0
        self._clear()

    def _clear(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.failed = array("b")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Wrapper of ``fn`` that records a span named ``name`` around each call."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.failed.append(0)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()

        return traced

    def wrap_stepper(self, fn, field_name):
        """Wrapper of an integrator step that also wraps the ``field`` it is handed,
        so each field evaluation becomes a child span named ``field_name``."""
        step = self.wrap("integrators." + fn.__name__, fn)
        last = {}

        @functools.wraps(fn)
        def traced(field, *args, **kwargs):
            if last.get("field") is not field:
                last["field"] = field
                last["traced"] = self.wrap(field_name, field)
            return step(last["traced"], *args, **kwargs)

        return traced

    def wrap_writer(self, name, fn):
        """Wrapper of ``atomic_write_text(path, text)`` that also counts bytes."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(path, text, *args, **kwargs):
            self.bytes_written += len(text.encode())
            return inner(path, text, *args, **kwargs)

        return traced

    def take(self):
        """Hand over the spans recorded so far as numpy arrays (views of the
        recorded buffers, which are no longer written) and start afresh."""
        spans = {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "bytes_written": self.bytes_written,
        }
        self._clear()
        self.bytes_written = 0
        return spans


def summarize(spans, names):
    """Per span name: calls, failed calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans recorded on pool threads have no parent.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    out = {}
    for nid, name in enumerate(names):
        mask = spans["name"] == nid
        if mask.any():
            out[name] = {
                "calls": int(mask.sum()),
                "failed": int(spans["failed"][mask].sum()),
                "total": float(dur[mask].sum()),
                "self": float(self_time[mask].sum()),
            }
    return out


def _package_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def install(tracer):
    """Route every traced function, and each CLI handler, through ``tracer``.

    Returns a function that puts the original functions back.
    """
    modules = _package_modules()
    undo = []
    for modname, attr in TRACED:
        original = getattr(sys.modules["%s.%s" % (PACKAGE, modname)], attr)
        span = "%s.%s" % (modname, attr)
        for mod in modules:
            if getattr(mod, attr, None) is not original:
                continue
            if attr == "midpoint_step":
                owner = mod.__name__.rpartition(".")[2]
                wrapper = tracer.wrap_stepper(original, owner + ".field")
            elif attr == "atomic_write_text":
                wrapper = tracer.wrap_writer(span, original)
            else:
                wrapper = tracer.wrap(span, original)
            setattr(mod, attr, wrapper)
            undo.append((mod, attr, original))
    cli = sys.modules.get(PACKAGE + ".cli")
    handlers = dict(cli.HANDLERS) if cli is not None else {}
    for command, handler in handlers.items():
        cli.HANDLERS[command] = tracer.wrap("cli." + command, handler)

    def uninstall():
        for mod, attr, original in undo:
            setattr(mod, attr, original)
        if cli is not None:
            cli.HANDLERS.update(handlers)

    return uninstall
