"""Spans around freelevy's public functions, recorded from outside the library.

`Tracer.install()` wraps each traced function once and puts the wrapper
under every name that refers to it in a loaded `freelevy` module: the
package imports with `from .x import y`, so `freelevy.cli.verify_variation`
and `freelevy.rmt.verify_variation` are separate names a caller may look up.
Methods are wrapped on their class. A wrapper records a span (name, start,
end, parent) in memory; `uninstall()` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans in a window plus the window's
time outside any span add up to the window's length.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    count: int = 0  # work done, where the span defines a counter
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _kernel_evals(args, kwargs, result):
    """Points times grid nodes of one cauchy / cauchy_derivative call."""
    mu, z = args[0], args[1]
    if mu.grid is None:
        return 0
    return int(np.size(z)) * len(mu.grid.values)


def _listed(args, kwargs, result):
    return len(result)


# (span name, module, attribute, counter). A dotted attribute is a method.
TRACED = [
    ("cli.main", "freelevy.cli", "main", None),
    ("rmt.verify_variation", "freelevy.rmt", "verify_variation", None),
    ("rmt.mixed_decay", "freelevy.rmt", "mixed_decay", None),
    ("rmt.verify_integral_identity", "freelevy.rmt", "verify_integral_identity", None),
    ("rmt.sample_gue", "freelevy.rmt", "sample_gue", None),
    ("rmt.stream", "freelevy.rmt", "stream", None),
    ("rmt.esd", "freelevy.rmt", "esd", None),
    ("rmt.trace_moments", "freelevy.rmt", "trace_moments", None),
    ("rmt.power_sums", "freelevy.rmt", "power_sums", None),
    ("rmt.predicted_variation_moments", "freelevy.rmt", "predicted_variation_moments", None),
    ("rmt.finite_n_power_sum_moments", "freelevy.rmt", "finite_n_power_sum_moments", None),
    ("rmt.matricial_cauchy", "freelevy.rmt", "matricial_cauchy", None),
    ("cumulants.moments_to_cumulants", "freelevy.cumulants", "moments_to_cumulants", None),
    ("cumulants.cumulants_to_moments", "freelevy.cumulants", "cumulants_to_moments", None),
    ("cumulants.mixed_free_cumulant", "freelevy.cumulants", "mixed_free_cumulant", None),
    ("cumulants.free_joint_functional", "freelevy.cumulants", "free_joint_functional", None),
    ("cumulants.power_sum_joint_cumulant", "freelevy.cumulants", "power_sum_joint_cumulant", None),
    ("partitions.enumerate_nc", "freelevy.partitions", "enumerate_nc", _listed),
    ("partitions.kreweras", "freelevy.partitions", "kreweras", None),
    ("transforms.free_convolve", "freelevy.transforms", "free_convolve", None),
    ("transforms.boxplus_power", "freelevy.transforms", "boxplus_power", None),
    ("transforms.voiculescu", "freelevy.transforms", "voiculescu", None),
    ("transforms.cauchy", "freelevy.transforms", "cauchy", _kernel_evals),
    ("transforms.cauchy_derivative", "freelevy.transforms", "cauchy_derivative", _kernel_evals),
    ("transforms.free_multiply_moments", "freelevy.transforms", "free_multiply_moments", None),
    ("transforms.free_convolve_moments", "freelevy.transforms", "free_convolve_moments", None),
    ("levy.compound_poisson_triple", "freelevy.levy", "compound_poisson_triple", None),
    ("levy.variation_triple", "freelevy.levy", "variation_triple", None),
    ("levy.pushforward_levy", "freelevy.levy", "pushforward_levy", None),
    ("levy.triple_to_pair", "freelevy.levy", "triple_to_pair", None),
    ("levy.pair_to_triple", "freelevy.levy", "pair_to_triple", None),
    ("levy.triple_to_cumulants", "freelevy.levy", "triple_to_cumulants", None),
    ("levy.bp_limit_check", "freelevy.levy", "bp_limit_check", None),
    ("ncsym.p_basis", "freelevy.ncsym", "p_basis", None),
    ("ncsym.stochastic_integral_poly", "freelevy.ncsym", "stochastic_integral_poly", None),
    ("ncsym.psi_poly", "freelevy.ncsym", "psi_poly", None),
    ("ncsym.expand_letters", "freelevy.ncsym", "expand_letters", None),
    ("ncsym.distinct_neighbor_bruteforce", "freelevy.ncsym", "distinct_neighbor_bruteforce", None),
    ("ncsym.evaluate", "freelevy.ncsym", "NCPolynomial.evaluate", None),
    ("measures.integrate", "freelevy.measures", "GridMeasure.integrate", None),
    ("measures.integral", "freelevy.measures", "DensityGrid.integral", None),
]

# functions that return a function worth tracing: span name of the returned one
TRACED_RESULTS = {"cumulants.free_joint_functional": "cumulants.joint_functional_eval"}


class Tracer:
    """In-memory span recorder; spans are kept in start order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = Span(name, tracer.clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = tracer.clock()
                if parent >= 0:
                    tracer.spans[parent].child_time += span.duration
            if counter is not None:
                span.count = counter(args, kwargs, result)
            if name in TRACED_RESULTS:
                result = tracer.wrap(TRACED_RESULTS[name], result)
            return result

        return wrapper

    def install(self, traced=TRACED):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "freelevy"]
        for name, module_name, attr, counter in traced:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, counter), original)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, original)

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def window(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if s.start >= start and s.end <= end]

    def to_json(self) -> dict:
        """Spans as rows [name index, start, end, parent, count] under a name table."""
        names = sorted({s.name for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.count] for s in self.spans]
        return {"names": names, "columns": ["name", "start", "end", "parent", "count"],
                "spans": rows}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_layer(spans) -> dict:
    out = {}
    for s in spans:
        layer = layer_of(s.name)
        out[layer] = out.get(layer, 0.0) + s.self_time
    return out


def root_time(spans) -> float:
    return sum(s.duration for s in spans if s.parent < 0)
