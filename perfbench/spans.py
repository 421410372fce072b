"""Span tracing from outside the package.

The package has no instrumentation of its own, so the benchmark wraps the
package's public functions and rebinds every module-level reference to them
(module globals and module-level tables such as the CLI's engine map). A
span's self time is its duration minus the durations of the spans it
directly contains, so the self times of all spans add up to the time spent
in the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "iharazeta"


class Tracer:
    """Records the self time of every call, by span name.

    ``root_time`` is the summed duration of spans opened while no other
    span was open; the sum of every span's self time equals ``root_time -
    excluded``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_times: dict[str, list[float]] = {}
        self.root_time = 0.0
        self.excluded = 0.0
        self._open: list[float] = []  # child time accumulated per open span

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                else:
                    self.root_time += duration
                self.self_times.setdefault(name, []).append(duration - children)
            if on_result is not None:
                on_result(name, result)
            return result

        return traced

    def exclude(self, seconds):
        """Take time that belongs to no span (a measuring probe's own work)
        out of the innermost open span's self time."""
        if self._open:
            self._open[-1] += seconds
            self.excluded += seconds

    def self_time_sum(self) -> float:
        return sum(sum(times) for times in self.self_times.values())


def rebind(original, replacement, package=PACKAGE):
    """Point every module-level reference to ``original`` inside ``package``
    at ``replacement``: module globals, and values of module-level dicts
    (so ``cli._ENGINES["bass"]`` follows ``zeta.zeta_bass``). Returns a
    function that restores the originals.
    """
    undo = []
    prefix = package + "."
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(prefix)):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                undo.append((namespace, key))
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        undo.append((value, k))

    def restore():
        for table, key in reversed(undo):
            table[key] = original

    return restore


def resolve(module_name: str, attr: str):
    """The public function ``module_name.attr``, or None when a later
    version of the package no longer has it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def install(tracer: Tracer, targets, on_result=None):
    """Wrap each available ``(module, attr, span_name)`` target.

    Returns ``(restore, absent)``: a function that removes every wrapper,
    and the span names whose function does not exist.
    """
    restores, absent = [], []
    for module_name, attr, span in targets:
        fn = resolve(module_name, attr)
        if fn is None:
            absent.append(span)
            continue
        restores.append(rebind(fn, tracer.wrap(span, fn, on_result)))

    def restore():
        for r in reversed(restores):
            r()

    return restore, absent
