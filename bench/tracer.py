"""Per-layer tracing of dualeq from outside the package.

A Tracer wraps the public functions of each dualeq module and keeps, per
layer, a call count and a self time: a call's duration minus the time
covered by the traced calls it made.  Nothing inside ``src/`` changes; the
wrappers are installed by rebinding every module attribute that holds the
original function, so a caller that bound the name at import (``engine``
binds ``expand_in_schur``, ``involutions`` binds ``is_standard``) reaches
the wrapper too.

``core`` is not traced: its helpers run millions of times and their cost
stays inside their callers' self time.  Times are kept in integer
nanoseconds, so a self time is exact and never negative.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# layer -> (module, public functions timed as that layer)
LAYERS = {
    "qsym.expand": ("qsym", ("expand_in_schur", "expand_in_P")),
    "qsym.vector": ("qsym", ("schur_in_F", "P_in_F", "Q_in_F", "P_in_G", "G_to_F")),
    "involutions.apply": ("involutions", ("d", "b", "phi", "psi", "d_tab", "b_tab")),
    "tableaux.check": ("tableaux", ("is_standard",)),
    "tableaux.enumerate": (
        "tableaux",
        (
            "enumerate_syt",
            "enumerate_shsyt",
            "enumerate_ssyt",
            "enumerate_shssyt",
            "enumerate_signed_standard",
        ),
    ),
    "tableaux.descent": ("tableaux", ("descent_set_word", "descent_set_tab")),
    "engine.build": ("engine", ("build_ground", "parse_deg")),
    "engine.verify": (
        "engine",
        ("verify_strong", "verify_weak", "verify_shifted", "lemma_axiom4_check"),
    ),
    "engine.classes": ("engine", ("classes", "restricted_class", "classify_shifted_class")),
    "engine.genfn": ("engine", ("class_genfn",)),
    "engine.iso": ("engine", ("find_isomorphism",)),
    "engine.subground": ("engine", ("subground", "relabel_peak_minus_one")),
    "cli.main": ("cli", ("main",)),
}

# every per-layer metric a traced pass reports, with its unit
METRICS = {
    "qsym.expand_s": "s",
    "qsym.expand_calls": "count",
    "qsym.expand_distinct": "count",
    "qsym.expand_failed": "count",
    "qsym.expand_first_s": "s",
    "qsym.vector_s": "s",
    "qsym.vector_calls": "count",
    "involutions.apply_s": "s",
    "involutions.apply_calls": "count",
    "tableaux.check_s": "s",
    "tableaux.check_calls": "count",
    "tableaux.enumerate_s": "s",
    "tableaux.enumerate_calls": "count",
    "tableaux.enumerate_objects": "count",
    "tableaux.descent_s": "s",
    "tableaux.descent_calls": "count",
    "engine.build_s": "s",
    "engine.build_calls": "count",
    "engine.build_distinct": "count",
    "engine.verify_s": "s",
    "engine.classes_s": "s",
    "engine.genfn_s": "s",
    "engine.genfn_calls": "count",
    "engine.iso_s": "s",
    "engine.iso_calls": "count",
    "engine.iso_found": "count",
    "engine.subground_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
}


class Tracer:
    """Call counts, self times and named counters for wrapped functions."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.keys = {}  # counter name -> set of distinct keys seen
        self._open = []  # per open call: ns covered by its traced children

    def wrap(self, layer, fn, observe=None):
        """Return fn timed as one call of layer; observe(tracer, args,
        result, elapsed_ns) runs after a call that returned."""

        def traced(*args, **kwargs):
            covered = [0]
            self._open.append(covered)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._open.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += elapsed - covered[0]
                if self._open:
                    self._open[-1][0] += elapsed
            if observe is not None:
                # counting is tracing overhead: keep it out of the
                # caller's self time as well
                mark = self.clock()
                observe(self, args, result, elapsed)
                if self._open:
                    self._open[-1][0] += self.clock() - mark
            return result

        return traced

    def distinct(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    def add_ns(self, name, ns):
        self.counters[name] += ns

    def metrics(self):
        """Every metric in METRICS (zero for layers that were not called)."""
        out = {}
        for name in METRICS:
            layer, _, stat = name.rpartition("_")
            if name in ("qsym.expand_first_s", "cli.import_s"):
                out[name] = self.counters[name] / 1e9
            elif stat == "s":
                out[name] = self.self_ns[layer] / 1e9
            elif stat == "calls":
                out[name] = self.calls[layer]
            elif stat == "distinct":
                out[name] = len(self.keys.get(name, ()))
            else:
                out[name] = self.counters[name]
        return out


def _observe_expand(tracer, args, result, elapsed):
    f = args[0]
    basis = type(f).__name__
    tracer.distinct("qsym.expand_distinct", (basis, f.n, frozenset(f.coeffs.items())))
    # the first call per basis and degree pays the lazy solver build
    firsts = tracer.keys.setdefault("qsym.expand_first", set())
    if (basis, f.n) not in firsts:
        firsts.add((basis, f.n))
        tracer.add_ns("qsym.expand_first_s", elapsed)
    if type(result).__name__ in ("NotSymmetric", "NotInSpan"):
        tracer.counters["qsym.expand_failed"] += 1


def _observe_enumerate(tracer, args, result, elapsed):
    tracer.counters["tableaux.enumerate_objects"] += len(result)


def _observe_build(tracer, args, result, elapsed):
    tracer.distinct("engine.build_distinct", repr(args[0]))


def _observe_iso(tracer, args, result, elapsed):
    if result is not None:
        tracer.counters["engine.iso_found"] += 1


OBSERVERS = {
    "qsym.expand": _observe_expand,
    "tableaux.enumerate": _observe_enumerate,
    "engine.build": _observe_build,
    "engine.iso": _observe_iso,
}


def install(tracer):
    """Wrap the LAYERS functions of every imported dualeq module, rebinding
    each name wherever a dualeq module holds it."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "dualeq" or name.startswith("dualeq."))
    ]
    for layer, (module, names) in LAYERS.items():
        home = sys.modules.get(f"dualeq.{module}")
        if home is None:  # cli is imported only by CLI requests
            continue
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.wrap(layer, original, OBSERVERS.get(layer))
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapped)
