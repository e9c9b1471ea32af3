"""Outside-in tracing: timing proxies for the public constructor seams.

Nothing under ``src/`` is patched.  A traced run hands the engine a spec
proxy, a store proxy, a timed ``fingerprint_fn`` and a timed reducer
through the same constructor arguments any caller can use, and the
harness wraps whole calls (``run_check``, ``materialize_graph``, ...) in
phase spans.  Spans are aggregated per (phase, layer) as call count,
busy seconds and a 1-in-64 sample of durations for p50/p99; they stay in
memory until the child exits.
"""

import time

SAMPLE_MASK = 63  # keep one duration in 64


class Span:
    """Aggregate of every call into one layer during one phase."""

    __slots__ = ("count", "busy", "samples")

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self.samples = []

    def to_dict(self):
        out = {"count": self.count, "busy_s": self.busy}
        if self.samples:
            ordered = sorted(self.samples)
            out["p50_us"] = ordered[len(ordered) // 2] * 1e6
            out["p99_us"] = ordered[min(len(ordered) - 1, len(ordered) * 99 // 100)] * 1e6
            out["sampled"] = len(ordered)
        return out


def timed(fn, span):
    """``fn`` with its calls counted and timed into ``span``."""
    clock = time.perf_counter
    samples = span.samples

    def wrapper(*args):
        started = clock()
        result = fn(*args)
        elapsed = clock() - started
        span.busy += elapsed
        span.count += 1
        if not span.count & SAMPLE_MASK:
            samples.append(elapsed)
        return result

    return wrapper


def timed_generator(fn, span, items):
    """A generator function timed per resumption, so the consumer's work
    between two items is not charged to it.  ``span.count`` counts the
    calls, ``items.count`` the items produced."""
    clock = time.perf_counter
    samples = span.samples

    def wrapper(*args):
        busy = 0.0
        produced = 0
        try:
            started = clock()
            for item in fn(*args):
                busy += clock() - started
                produced += 1
                yield item
                started = clock()
            busy += clock() - started
        finally:
            # Also reached when the consumer drops the generator early.
            span.busy += busy
            span.count += 1
            items.count += produced
            if not span.count & SAMPLE_MASK:
                samples.append(busy)

    return wrapper


class _Delegate:
    """Forwards everything it does not override to the wrapped object."""

    def __init__(self, inner):
        self.__dict__["_inner"] = inner

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)


class Tracer:
    """Owns the spans of one traced child run, keyed (phase, layer)."""

    def __init__(self):
        self.spans = {}

    def span(self, phase, layer):
        return self.spans.setdefault((phase, layer), Span())

    def spec(self, compiled, phase):
        """A proxy for a ``CompiledSpec`` with its hot entry points timed.

        Pass it with ``compiled=False`` where the callee would otherwise
        compile (and so unwrap) it: it already delegates to compiled code.
        """
        proxy = _Delegate(compiled)
        proxy.successors = timed_generator(
            compiled.successors, self.span(phase, "successors"), self.span(phase, "transitions")
        )
        for name in ("check_state", "check_transition", "state_constraint"):
            setattr(proxy, name, timed(getattr(compiled, name), self.span(phase, name)))
        return proxy

    def store(self, store, phase):
        proxy = _Delegate(store)
        proxy.seen = timed(store.seen, self.span(phase, "store_seen"))
        proxy.record = timed(store.record, self.span(phase, "store_record"))
        return proxy

    def reducer(self, reducer, phase):
        proxy = _Delegate(reducer)
        proxy.canonical = timed(reducer.canonical, self.span(phase, "canonical"))
        return proxy

    def fn(self, fn, phase, layer):
        return timed(fn, self.span(phase, layer))

    def to_dict(self):
        phases = {}
        for (phase, layer), span in self.spans.items():
            if span.count:
                phases.setdefault(phase, {})[layer] = span.to_dict()
        return phases
