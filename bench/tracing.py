"""Spans around the calls into each ``giwa`` module, recorded from outside.

The tracer wraps public functions of ``src/giwa`` at every name an importing
module looks them up by (``giwa.iwasawa.bareiss_determinant`` as well as
``giwa.graphs.bareiss_determinant`` and ``giwa.bareiss_determinant``), so no
file under ``src/`` changes.  Spans are kept in memory as flat arrays and
written out when the run ends.  Self time is span time minus the time of its
direct child spans; all arithmetic is in integer nanoseconds, so the self
times of a pass tree sum to the pass wall time exactly.

``cyclotomic.mul`` is called hundreds of thousands of times per pass; its
calls are folded into one aggregate span per parent span, which keeps the
tree exact (the aggregate's duration is the sum of its calls) without
storing one record per multiplication.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (span name, module, attribute, observer) -- the observer sees the call's
# arguments and result and returns {counter suffix: value} size maxima.


def _vertices_arg(args, _result):
    return {"max_vertices": args[0].vertex_count}


def _bareiss_sizes(args, result):
    matrix = args[0]
    n = len(matrix)
    bits = max((abs(x).bit_length() for row in matrix for x in row), default=0)
    return {"cells": n ** 3, "max_entry_bits": max(bits, abs(result).bit_length())}


def _interpolate_sizes(args, _result):
    return {"max_points": len(args[0])}


def _ring_det_sizes(args, _result):
    return {"max_n": len(args[0])}


def _derived_sizes(_args, result):
    return {"max_vertices": result.graph.vertex_count}


def _closure_sizes(_args, result):
    return {"max_elements": len(result)}


HOOKS = (
    ("graphs.kappa", "giwa.graphs", "spanning_tree_count", _vertices_arg),
    ("graphs.bareiss", "giwa.graphs", "bareiss_determinant", _bareiss_sizes),
    ("iwasawa.invariants", "giwa.iwasawa", "iwasawa_invariants", None),
    ("iwasawa.characteristic_series", "giwa.iwasawa", "characteristic_series", None),
    ("iwasawa.kappa_ord_sequence", "giwa.iwasawa", "kappa_ord_sequence", None),
    ("iwasawa.kida_verify", "giwa.iwasawa", "kida_verify", None),
    ("iwasawa.uniform_tower_check", "giwa.iwasawa", "uniform_tower_check", None),
    ("iwasawa.factorization_check", "giwa.iwasawa", "factorization_check", None),
    ("iwasawa.laurent_determinant", "giwa.iwasawa", "_laurent_determinant", None),
    ("polys.interpolate", "giwa.polys", "interpolate_at_integers", _interpolate_sizes),
    ("series.ring_determinant", "giwa.series", "ring_determinant", _ring_det_sizes),
    ("series.binomial_series", "giwa.series", "binomial_series", None),
    ("series.mu_lambda", "giwa.series", "mu_lambda", None),
    ("cyclotomic.mul", "giwa.cyclotomic", "CyclotomicElement.__mul__", None),
    ("cyclotomic.norm", "giwa.cyclotomic", "CyclotomicElement.norm", None),
    ("characters.all_characters", "giwa.characters", "all_characters", None),
    ("lfunctions.h_polynomial", "giwa.lfunctions", "h_polynomial", None),
    ("lfunctions.artin_product_check", "giwa.lfunctions", "artin_product_check", None),
    ("lfunctions.class_number_check", "giwa.lfunctions", "class_number_check", None),
    ("voltage.derived_graph", "giwa.voltage", "derived_graph", _derived_sizes),
    ("voltage.connectedness", "giwa.voltage", "voltage_connectedness", None),
    ("groups.closure", "giwa.groups", "closure", _closure_sizes),
    ("groups.sl2_level_quotient", "giwa.groups", "sl2_level_quotient", None),
    ("cli.main", "giwa.cli", "main", None),
)

HOT = frozenset({"cyclotomic.mul"})
PASS, JOB = "bench.pass", "bench.job"

# Names of the refusal exceptions; matched by name so the tracer does not
# import the program before the caller has put it on the path.
REFUSALS = ("PrecisionError", "ResourceLimitError")


class Tracer:
    """Records spans and counters; install() wraps the hooks, uninstall() undoes it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one record per span: name id, start, end, parent index, job id, calls, duration
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.job_of = array("l")
        self.calls_of = array("l")
        self.dur = array("q")
        self.counters = {}
        self.towers = set()
        self._stack = []          # frames: [span index, start ns, child name counts]
        self._hot = {}            # (parent index, name) -> aggregate span index
        self._job = -1
        self._patches = []
        self.observe_ns = 0       # time spent in the size observers

    # -- recording -----------------------------------------------------

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _new_span(self, name, start):
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job_of.append(self._job)
        self.calls_of.append(0)
        self.dur.append(0)
        return idx

    def _count(self, key, value=1, op="add"):
        c = self.counters
        if op == "max":
            if value > c.get(key, 0):
                c[key] = value
        else:
            c[key] = c.get(key, 0) + value

    def enter(self, name):
        if self._stack:
            children = self._stack[-1][2]
            children[name] = children.get(name, 0) + 1
        start = time.perf_counter_ns()
        self._stack.append([self._new_span(name, start), start, {}])

    def leave(self):
        # the frame is popped last: the budget alarm can interrupt any line,
        # and a frame left open is closed later by unwind()
        end = time.perf_counter_ns()
        idx, start, children = self._stack[-1]
        self.end[idx] = end
        self.dur[idx] = end - start
        self.calls_of[idx] = 1
        self._stack.pop()
        return children

    def unwind(self, depth):
        """Close the spans an interrupted job left open above the given depth."""
        while len(self._stack) > depth:
            self.leave()

    def job(self, job_id):
        self._job = job_id

    def _hot_call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        key = (parent, name)
        idx = self._hot.get(key)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            if idx is None:
                idx = self._hot[key] = self._new_span(name, start)
            self.end[idx] = end
            self.dur[idx] += end - start
            self.calls_of[idx] += 1

    def _call(self, name, site, fn, observe, args, kwargs):
        if name in HOT:
            return self._hot_call(name, fn, args, kwargs)
        caller = self._stack[-1] if self._stack else None
        caller_name = self.names[self.name_of[caller[0]]] if caller else ""
        if name == "iwasawa.laurent_determinant":
            self._count("iwasawa.p_builds")
            self.towers.add((self._job, _tower_key(args[0])))
        if name == "graphs.bareiss" and site == "giwa.iwasawa":
            self._count("iwasawa.laurent_evals")
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            children = self.leave()
            kind = type(exc).__name__
            if kind in REFUSALS and name.startswith("iwasawa.") \
                    and not caller_name.startswith("iwasawa."):
                self._count("iwasawa.refusals")
            if kind == "PrecisionError" and name.startswith("series."):
                self._count("series.precision_refusals")
            self._after(name, children)
            raise
        children = self.leave()
        self._after(name, children)
        if observe is not None:
            start = time.perf_counter_ns()
            for suffix, value in observe(args, result).items():
                self._count(f"{name}.{suffix}", value,
                            "add" if suffix == "cells" else "max")
            self.observe_ns += time.perf_counter_ns() - start
        return result

    def _after(self, name, children):
        if name == "iwasawa.invariants":
            attempts = children.get("series.mu_lambda", 0)
            self._count("series.cap_doublings", max(0, attempts - 1))

    # -- installation --------------------------------------------------

    def install(self):
        for name, module, attr, observe in HOOKS:
            mod = sys.modules.get(module) or __import__(module, fromlist=["_"])
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[leaf]
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._patch(cls, key, original,
                                    self._wrap(name, module, original, observe))
                continue
            original = getattr(mod, leaf)
            for modname, other in list(sys.modules.items()):
                if other is None or not (modname == "giwa" or modname.startswith("giwa.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original,
                                    self._wrap(name, modname, original, observe))

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrap(self, name, site, fn, observe):
        call = self._call

        def traced(*args, **kwargs):
            return call(name, site, fn, observe, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Self time of every span, in ns: its duration minus its children's."""
        own = array("q", self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.dur[i]
        return own

    def check_tree(self):
        """(ok, message): self times are >= 0 and sum to the wall of the pass spans."""
        own = self.self_times()
        if self._stack:
            return False, f"{len(self._stack)} spans left open"
        if any(v < 0 for v in own):
            return False, "a span has negative self time"
        pass_id = self._ids.get(PASS)
        wall = sum(d for n, d in zip(self.name_of, self.dur) if n == pass_id)
        if sum(own) != wall:
            return False, f"self times sum to {sum(own)} ns, pass walls to {wall} ns"
        for i, p in enumerate(self.parent):
            if p >= 0 and not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                return False, f"span {i} is not inside its parent"
        return True, "ok"

    def overhead_seconds(self, rounds: int = 5, n: int = 4000) -> float:
        """Estimated seconds the tracer added to what it recorded.

        Each recorded call is charged the extra cost of a wrapper over a bare
        call, timed here on a no-op function (median of ``rounds`` batches of
        ``n`` calls), separately for folded hot calls; the observers' measured
        time is added.  Subtracting an untraced pass from a traced one
        instead gave a figure drowned in the machine's drift, often negative.
        """
        def noop(_x):
            return None

        def per_call(name):
            probe = Tracer()
            wrapped = probe._wrap(name, "bench", noop, None)
            probe.enter(PASS)
            costs = []
            for _ in range(rounds):
                start = time.perf_counter_ns()
                for _ in range(n):
                    noop(0)
                bare = time.perf_counter_ns() - start
                start = time.perf_counter_ns()
                for _ in range(n):
                    wrapped(0)
                costs.append((time.perf_counter_ns() - start - bare) / n)
            probe.leave()
            return max(0.0, sorted(costs)[rounds // 2])

        hot = plain = 0
        for nid, calls in zip(self.name_of, self.calls_of):
            name = self.names[nid]
            if name in HOT:
                hot += calls
            elif name not in (PASS, JOB):
                plain += calls
        cost = plain * per_call("bench.probe") + hot * per_call(next(iter(HOT)))
        return (cost + self.observe_ns) / 1e9

    def self_seconds(self):
        """Total self time per span name, in seconds, and the call count per name."""
        own = self.self_times()
        totals, calls = {}, {}
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            totals[name] = totals.get(name, 0) + own[i]
            calls[name] = calls.get(name, 0) + self.calls_of[i]
        return {k: v / 1e9 for k, v in totals.items()}, calls

    def write(self, path):
        """Write the spans as gzip'd JSON columns; returns the span count."""
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "job", "calls", "dur_ns"],
            "spans": [list(self.name_of), list(self.start), list(self.end),
                      list(self.parent), list(self.job_of), list(self.calls_of),
                      list(self.dur)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(self.start)


def _tower_key(t):
    """Value identity of a tower: graph incidence, orientation, ell and voltages."""
    values = tuple(sorted((d, repr(v)) for d, v in t.values.items()))
    return (t.graph.origin, t.graph.terminus, tuple(t.orientation.edges), t.ell, values)
