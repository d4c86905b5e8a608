"""Labeled metric primitives: counters, gauges, log2-bucket histograms.

The registry is the *aggregate* side of telemetry: at finalize time
the trace-derived counts and the components' own statistics (see
:mod:`repro.telemetry.runtime`) are folded into named, labeled metrics
that exporters understand.  Everything here is mergeable, so per-run
registries from a campaign can be combined into one fleet view:

* ``Counter.merge`` adds values;
* ``Histogram.merge`` adds bucket-wise;
* ``Gauge.merge`` keeps the maximum (gauges snapshot level state, and
  "worst observed" is the useful cross-run aggregate).

Histogram buckets are **fixed log2 buckets**: an observation ``v`` lands
in bucket ``i = max(0, ceil(log2(v+1)))`` — computed as
``int(v).bit_length()`` — i.e. bucket ``i`` covers ``[2**(i-1), 2**i)``
with bucket 0 collecting non-positive values.  Fixed buckets are what
makes the merge law exact: two histograms always share bucket edges.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NBUCKETS"]

#: Number of log2 buckets; bucket 63 covers values up to 2**63-1, far
#: beyond any byte count the simulator produces.
NBUCKETS = 64

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (float-valued: byte totals fit)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        self.value += other.value
        return self

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Level measurement (queue depth, backlog bytes, in-flight count)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> "Gauge":
        if other.value > self.value:
            self.value = other.value
        return self

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed log2-bucket histogram of non-negative observations."""

    __slots__ = ("name", "labels", "counts", "sum")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.counts = [0] * NBUCKETS
        self.sum: float = 0

    def observe(self, value: float) -> None:
        # int.bit_length() is the whole bucketing function.  The total
        # count is derived from the buckets (see :attr:`count`) rather
        # than maintained here.
        i = int(value).bit_length() if value > 0 else 0
        if i >= NBUCKETS:
            i = NBUCKETS - 1
        self.counts[i] += 1
        self.sum += value

    @property
    def count(self) -> int:
        """Total observations — exact, derived from the fixed buckets."""
        return sum(self.counts)

    @staticmethod
    def bucket_upper(i: int) -> int:
        """Exclusive upper edge of bucket ``i`` (``2**i``; bucket 0 holds <= 0)."""
        return 1 << i if i else 1

    def nonzero_buckets(self) -> Dict[int, int]:
        return {i: c for i, c in enumerate(self.counts) if c}

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return float(self.bucket_upper(i))
        return float(self.bucket_upper(NBUCKETS - 1))

    def merge(self, other: "Histogram") -> "Histogram":
        for i, c in enumerate(other.counts):
            if c:
                self.counts[i] += c
        self.sum += other.sum
        return self

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(i): c for i, c in self.nonzero_buckets().items()},
        }


class MetricsRegistry:
    """Get-or-create store of labeled metrics, keyed on (name, labels).

    Iteration yields metrics in sorted (name, labels) order so every
    export of an equal registry is byte-identical.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    def _get(self, cls, name: str, labels: Mapping[str, object]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    def get(self, name: str, **labels: object) -> Optional[object]:
        return self._metrics.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (kind-wise merge laws)."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                fresh = type(metric)(metric.name, key[1])
                fresh.merge(metric)
                self._metrics[key] = fresh
            else:
                if type(mine) is not type(metric):
                    raise TypeError(
                        f"cannot merge {metric.kind} into {mine.kind} for {key[0]!r}"
                    )
                mine.merge(metric)
        return self

    def as_dict(self) -> dict:
        """Exporter-facing snapshot (see also :meth:`from_dict`)."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for metric in self:
            out[metric.kind + "s"].append(metric.as_dict())
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        reg = cls()
        for rec in data.get("counters", ()):
            reg.counter(rec["name"], **rec.get("labels", {})).value = rec["value"]
        for rec in data.get("gauges", ()):
            reg.gauge(rec["name"], **rec.get("labels", {})).value = rec["value"]
        for rec in data.get("histograms", ()):
            hist = reg.histogram(rec["name"], **rec.get("labels", {}))
            hist.sum = rec["sum"]
            for bucket, count in rec.get("buckets", {}).items():
                hist.counts[int(bucket)] = count
        return reg
