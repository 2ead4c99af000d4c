"""Tracing from outside the program: spans around ncmatch's public functions.

Nothing in ``src/`` changes.  A traced function is replaced, in every
``ncmatch`` module namespace that holds it, by a wrapper that records a
span (name, operation, start, end, parent span).  While a span of a name is
open its references point back at the original, so recursive calls cost
nothing extra and add no stack frames.  Predicate call counts come from a
separate pass with plain counting wrappers, because wrapping predicates
that run millions of times would distort the self times.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns


def _resolve(qualname: str):
    """'offline.matching_to_bt' -> (function, every (holder, attribute)
    through which ncmatch code reaches it)."""
    mod_name, attr = qualname.split(".")
    owner = sys.modules[f"ncmatch.{mod_name}"]
    fn = getattr(owner, attr)
    if hasattr(fn, "callback"):  # a click command: trace its callback
        return fn.callback, [(fn, "callback")]
    sites = [
        (mod, key)
        for name, mod in list(sys.modules.items())
        if name == "ncmatch" or name.startswith("ncmatch.")
        for key, value in list(vars(mod).items())
        if value is fn
    ]
    return fn, sites


@contextmanager
def _patched(sites, replacement):
    saved = [getattr(holder, key) for holder, key in sites]
    for holder, key in sites:
        setattr(holder, key, replacement)
    try:
        yield
    finally:
        for (holder, key), value in zip(sites, saved):
            setattr(holder, key, value)


class Tracer:
    """Spans kept in memory; self time of a span is its duration minus the
    durations of its direct children."""

    def __init__(self):
        self.spans: list = []  # (name, op, start_ns, end_ns, parent index)
        self.stack: list[int] = []
        self.op = 0
        self.active = False

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, self.op, start, end, parent)

    def _wrap(self, name, fn, sites):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name), _patched(sites, fn):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, layers):
        """Trace every qualified name in ``layers`` while the block runs.

        ``engine.oracle`` is not a function of its own: it is the oracle of
        whatever algorithm ``engine.simulate`` receives, so the simulate
        wrapper hands the original a copy of the algorithm whose oracle is
        traced.
        """
        with ExitStack() as stack:
            for qualname in layers:
                if qualname == "engine.oracle":
                    continue
                fn, sites = _resolve(qualname)
                if qualname == "engine.simulate":
                    fn = self._simulate_with_traced_oracle(fn)
                stack.enter_context(_patched(sites, self._wrap(qualname, fn, sites)))
            yield

    def _simulate_with_traced_oracle(self, simulate):
        def run(alg, instance, *args, **kwargs):
            if self.active and alg.oracle is not None:
                oracle = alg.oracle

                def traced_oracle(inst):
                    with self.span("engine.oracle"):
                        return oracle(inst)

                alg = dataclasses.replace(alg, oracle=traced_oracle)
            return simulate(alg, instance, *args, **kwargs)

        return run

    def self_seconds(self, scale: dict[int, float]) -> dict[str, float]:
        """Self time per span name, each span scaled by its operation's
        factor in ``scale``."""
        child = [0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, op, start, end, _), c in zip(self.spans, child):
            totals[name] += (end - start - c) * scale[op]
        return {name: ns / 1e9 for name, ns in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, op, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "op": op, "start_ns": start, "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )


@contextmanager
def counting(names, counts: Counter):
    """Count calls of each qualified name into ``counts`` while the block runs."""
    with ExitStack() as stack:
        for qualname in names:
            fn, sites = _resolve(qualname)
            stack.enter_context(_patched(sites, _counted(qualname, fn, counts)))
        yield


def _counted(qualname, fn, counts):
    def counted(*args, **kwargs):
        counts[qualname] += 1
        return fn(*args, **kwargs)

    return counted
