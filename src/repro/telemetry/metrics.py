"""Counters, gauges, and fixed-bucket histograms behind one registry.

Naming convention: ``repro_<layer>_<name>_<unit>`` — e.g.
``repro_cluster_wire_bytes_total``, ``repro_serve_latency_seconds``.
Counter names end in ``_total``; histogram and gauge names end in their
unit (``_seconds``, ``_gbps``, ``_depth``).

Histograms store only fixed bucket counts plus a running sum — p50/p95/
p99 come from log-linear interpolation inside the owning bucket, so
recording a sample is O(log buckets) and memory is O(buckets) no matter
how many observations arrive (the property that makes it safe to observe
every request of a heavy-traffic service).

There is one process-wide default registry (:func:`get_registry`), but
every instrumented constructor accepts an injected registry so tests and
benches can isolate their counts.  A disabled registry
(:data:`NULL_REGISTRY`, or any ``MetricsRegistry(enabled=False)``) hands
out shared no-op instruments: call sites keep a plain attribute call and
pay no accounting when telemetry is off.
"""

from __future__ import annotations

import bisect
import re

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_REGISTRY",
    "DEFAULT_SECONDS_BUCKETS", "get_registry", "set_registry",
]

_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)+$")

#: Log-spaced latency buckets: 1 us .. ~100 s in half-decade steps.
DEFAULT_SECONDS_BUCKETS = tuple(
    b * 10.0 ** e for e in range(-6, 3) for b in (1.0, 3.0))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, achieved GB/s)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit +inf bucket catches the rest.  No samples are stored.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum",
                 "_min", "_max")
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be a sorted non-empty "
                             "sequence")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (0 < q < 1); 0.0 when empty.

        Linear interpolation inside the owning bucket, clamped by the
        observed min/max so tiny sample counts do not report a bucket
        edge orders of magnitude away from any real observation.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0.0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                frac = (target - seen) / c
                est = lo + (hi - lo) * frac
                return min(max(est, self._min), self._max)
            seen += c
        return self._max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _NullInstrument:
    """No-op counter/gauge/histogram handed out by a disabled registry."""

    __slots__ = ("name", "help")
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0
    p50 = p95 = p99 = mean = 0.0

    def __init__(self, name: str = "", help: str = ""):
        self.name = name
        self.help = help

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace.

    ``counter``/``gauge``/``histogram`` are idempotent: the first call
    creates the instrument, later calls return the same object (and
    reject a kind mismatch).  Names must follow the
    ``repro_<layer>_<name>_<unit>`` convention.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind: str, factory):
        if not self.enabled:
            return _NULL_INSTRUMENT
        inst = self._instruments.get(name)
        if inst is None:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"metric name {name!r} must match repro_<layer>_<name>_"
                    f"<unit> (lowercase, underscore-separated)")
            inst = factory()
            self._instruments[name] = inst
        elif inst.kind != kind:
            raise ValueError(f"{name!r} already registered as {inst.kind}")
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help))

    def histogram(self, name: str, help: str = "",
                  bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
                  ) -> Histogram:
        return self._get(name, "histogram",
                         lambda: Histogram(name, help, bounds))

    def get(self, name: str):
        """Look up an existing instrument (None if never registered)."""
        return self._instruments.get(name)

    def collect(self) -> list:
        """All instruments, name-sorted (the export order)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """name -> {kind, help, ...instrument state} (JSON-ready)."""
        return {
            inst.name: {"kind": inst.kind, "help": inst.help,
                        **inst.snapshot()}
            for inst in self.collect()
        }

    def reset(self) -> None:
        """Drop every instrument (tests; a fresh scrape namespace)."""
        self._instruments.clear()


#: Shared disabled registry: hands out no-op instruments.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (injectable via set_registry)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default; returns the previous one."""
    global _default_registry
    prev = _default_registry
    _default_registry = registry
    return prev
