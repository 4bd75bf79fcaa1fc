"""Thread-safe metrics primitives: Counter, Gauge, Histogram, Registry.

Dependency-free runtime telemetry for the PoEm server stack.  Design
constraints (docs/observability.md):

* **Ingest fast path stays hot.**  :class:`Counter` and :class:`Histogram`
  keep one *shard* per writer thread (a plain Python list cell reached
  through ``threading.local``), so an increment is an unsynchronized
  in-place add on thread-private storage — no lock, no CAS.  Shards are
  folded under a lock only on *read* (scrapes, snapshots), which is rare
  and off the forwarding path.  PR 2's 58.8 µs broadcast-ingest number
  must not regress more than 5 % with telemetry enabled.
* **Fixed log-scale buckets.**  Histograms use geometric bucket bounds
  (quarter-decades from 1 µs to 10 s by default) so one layout serves
  per-stage pipeline durations and the scheduler-lag deadline metric
  without per-run tuning.
* **Prometheus-text exposition.**  :meth:`MetricsRegistry.render` emits
  the standard ``# HELP``/``# TYPE`` + samples format consumed by any
  scraper; :meth:`MetricsRegistry.snapshot` returns the same data as a
  JSON-friendly dict for :func:`repro.stats.export.export_metrics_json`.

Label support is deliberately minimal: a metric family declares its label
*names* at registration and hands out per-label-value children via
:meth:`MetricFamily.labels` (cached, so steady-state lookup is one dict
hit).  That covers the stack's needs (drop reasons, pipeline stages,
wire encodings) without growing a dependency.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SnapshotMerger",
    "default_latency_buckets",
]


def default_latency_buckets() -> tuple[float, ...]:
    """Fixed log-scale bucket upper bounds: quarter-decades, 1 µs → 10 s.

    29 finite buckets (a +Inf bucket is implicit); geometric growth of
    ``10**0.25 ≈ 1.78×`` keeps relative quantile error below ~39 % per
    bucket — plenty for latency/deadline telemetry.
    """
    return tuple(10.0 ** (-6 + i / 4.0) for i in range(29))


_DEFAULT_BUCKETS = default_latency_buckets()


class Counter:
    """Monotonic counter with per-thread shards folded on read.

    ``inc`` touches only thread-private storage (one list cell reached
    through ``threading.local``), so concurrent writers never contend.
    A shard created by a thread that later exits stays referenced from
    ``_shards`` — its contribution to :meth:`value` is never lost.
    """

    __slots__ = ("name", "help", "label_values", "_shards", "_local",
                 "_lock", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        label_values: tuple[tuple[str, str], ...] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.label_values = label_values
        self._shards: list[list[float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fn = fn

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (must be >= 0) to this thread's shard. Lock-free."""
        try:
            self._local.cell[0] += n
        except AttributeError:
            cell = [float(n)]
            self._local.cell = cell
            with self._lock:
                self._shards.append(cell)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """(Re)bind a read-time callback.

        A callback counter mirrors a total already maintained elsewhere
        (e.g. the engine's lock-folded ``ingested``) at *zero* hot-path
        cost — the scrape pays one call, the forwarding path nothing.
        ``inc`` contributions are added on top of the callback value.
        """
        self._fn = fn

    def value(self) -> float:
        """Fold every shard (including those of finished threads)."""
        with self._lock:
            total = sum(cell[0] for cell in self._shards)
        if self._fn is not None:
            try:
                total += float(self._fn())
            # Read path of /metrics: a broken user callback must not
            # kill a scrape, and there is no registry to report into.
            except Exception:  # poem: ignore[POEM005]
                pass
        return total

    def kind(self) -> str:
        return "counter"


class Gauge:
    """A value that goes up and down; optionally callback-backed.

    A callback gauge (``fn`` given) is evaluated at *read* time — the
    idiom for zero-hot-path-cost depth/size metrics (schedule depth,
    connected clients): the forwarding path pays nothing, the scrape
    pays one call.
    """

    __slots__ = ("name", "help", "label_values", "_value", "_fn", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        label_values: tuple[tuple[str, str], ...] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.label_values = label_values
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        # Must take the lock: an unlocked store can land inside a
        # concurrent ``inc``'s read-modify-write and be silently undone.
        with self._lock:
            self._value = v

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """(Re)bind the read-time callback (None reverts to stored value)."""
        self._fn = fn

    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return float("nan")  # a broken callback must not kill a scrape
        return self._value

    def kind(self) -> str:
        return "gauge"


class Histogram:
    """Fixed-bucket histogram with per-thread shards folded on read.

    ``buckets`` is the sorted sequence of finite upper bounds (Prometheus
    ``le`` semantics: ``bucket[i]`` counts observations ``<= bounds[i]``);
    an implicit +Inf bucket catches the tail.  Defaults to the log-scale
    latency layout of :func:`default_latency_buckets`.

    Each shard is ``[counts_list, sum, count]``; ``observe`` does one
    bisect over ~30 bounds plus three thread-private writes.
    """

    __slots__ = (
        "name", "help", "label_values", "bounds", "_nb",
        "_shards", "_local", "_lock", "_merge_shard",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        label_values: tuple[tuple[str, str], ...] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else _DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be sorted: {bounds}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be distinct: {bounds}")
        self.name = name
        self.help = help
        self.label_values = label_values
        self.bounds = bounds
        self._nb = len(bounds) + 1  # + the +Inf bucket
        self._shards: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._merge_shard: Optional[list] = None

    def observe(self, v: float, n: int = 1) -> None:
        """Record ``n`` observations of ``v``. Lock-free (thread-private
        shard)."""
        try:
            shard = self._local.shard
        except AttributeError:
            shard = [[0] * self._nb, 0.0, 0]
            self._local.shard = shard
            with self._lock:
                self._shards.append(shard)
        shard[0][bisect_left(self.bounds, v)] += n
        shard[1] += v * n
        shard[2] += n

    def merge_folded(self, counts: Sequence[int], total: float) -> None:
        """Bucket-wise add an already-folded ``(counts, sum)`` delta.

        The cluster merge path: worker registries ship folded snapshots,
        the parent injects the per-pull delta here.  All merges share one
        dedicated shard (folded on read like any other), so repeated
        pulls accumulate instead of growing the shard list.
        """
        if len(counts) != self._nb:
            raise ValueError(
                f"{self.name}: merge has {len(counts)} buckets, "
                f"expected {self._nb}"
            )
        with self._lock:
            acc = self._merge_shard
            if acc is None:
                acc = [[0] * self._nb, 0.0, 0]
                self._merge_shard = acc
                self._shards.append(acc)
            ac = acc[0]
            n = 0
            for i, c in enumerate(counts):
                ac[i] += c
                n += c
            acc[1] += total
            acc[2] += n

    # -- folded reads ----------------------------------------------------------

    def folded(self) -> tuple[list[int], float, int]:
        """``(per_bucket_counts, sum, count)`` across all shards."""
        counts = [0] * self._nb
        total = 0.0
        n = 0
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            sc = shard[0]
            for i in range(self._nb):
                counts[i] += sc[i]
            total += shard[1]
            n += shard[2]
        return counts, total, n

    def count(self) -> int:
        return self.folded()[2]

    def sum(self) -> float:
        return self.folded()[1]

    def value(self) -> float:
        """Mean observation (NaN when empty) — the scalar summary."""
        _, total, n = self.folded()
        return total / n if n else float("nan")

    def percentile(self, q: float) -> float:
        """Estimate the ``q`` (0..1) quantile by linear interpolation
        within the winning bucket (log-scale buckets keep the relative
        error below one bucket's growth factor)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _, n = self.folded()
        if n == 0:
            return float("nan")
        rank = q * n
        seen = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i] if i < len(self.bounds) else lo
                if hi <= lo:  # +Inf bucket: report its lower bound
                    return lo
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += c
        return self.bounds[-1] if self.bounds else float("nan")

    def kind(self) -> str:
        return "histogram"


Metric = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """A labelled metric: one ``(name, label_names)`` declaration handing
    out cached per-label-value children."""

    __slots__ = ("name", "help", "label_names", "_kind", "_buckets",
                 "_children", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        kind: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._kind = kind
        self._buckets = buckets
        self._children: dict[tuple[str, ...], Metric] = {}
        self._lock = threading.Lock()

    def labels(self, *values: object) -> Metric:
        """Child metric for these label values (created on first use)."""
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is not None:
            return child
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"values {self.label_names}, got {key}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                lv = tuple(zip(self.label_names, key))
                if self._kind == "counter":
                    child = Counter(self.name, self.help, lv)
                elif self._kind == "gauge":
                    child = Gauge(self.name, self.help, lv)
                else:
                    child = Histogram(self.name, self.help, lv,
                                      buckets=self._buckets)
                self._children[key] = child
        return child

    def children(self) -> list[Metric]:
        with self._lock:
            return list(self._children.values())

    def kind(self) -> str:
        return self._kind


def _fmt(v: float) -> str:
    """Prometheus sample-value formatting (ints without the .0 noise)."""
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return "NaN" if math.isnan(v) else ("+Inf" if v > 0 else "-Inf")
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _label_str(pairs: Iterable[tuple[str, str]]) -> str:
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in pairs
    )
    return "{" + inner + "}" if inner else ""


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """The process-wide (or per-server) catalog of metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: registering the
    same name twice returns the existing object (and raises when the
    second registration disagrees on kind or labels — silent type drift
    is how dashboards rot).
    """

    def __init__(self, namespace: str = "poem") -> None:
        self.namespace = namespace
        self._metrics: dict[str, Union[Metric, MetricFamily]] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Optional[Sequence[str]],
        buckets: Optional[Sequence[float]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Union[Metric, MetricFamily]:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind() != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind()!r}, not {kind!r}"
                    )
                is_family = isinstance(existing, MetricFamily)
                if bool(labels) != is_family:
                    raise ValueError(
                        f"metric {name!r} label declaration mismatch"
                    )
                if (
                    isinstance(existing, MetricFamily)
                    and tuple(labels or ()) != existing.label_names
                ):
                    raise ValueError(
                        f"metric {name!r} labels {existing.label_names} "
                        f"!= {tuple(labels or ())}"
                    )
                return existing
            if labels:
                metric: Union[Metric, MetricFamily] = MetricFamily(
                    name, help, tuple(labels), kind, buckets=buckets
                )
            elif kind == "counter":
                metric = Counter(name, help, fn=fn)
            elif kind == "gauge":
                metric = Gauge(name, help, fn=fn)
            else:
                metric = Histogram(name, help, buckets=buckets)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Sequence[str]] = None,
    ) -> Union[Metric, MetricFamily]:
        return self._get_or_create(name, help, "counter", labels)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Sequence[str]] = None,
    ) -> Union[Metric, MetricFamily]:
        return self._get_or_create(name, help, "gauge", labels)

    def gauge_fn(
        self, name: str, help: str, fn: Callable[[], float]
    ) -> Gauge:
        """Callback-backed gauge: evaluated at scrape time, free on the
        hot path.  Re-registering rebinds the callback (a restarted
        server re-wires its depth gauges)."""
        g = self._get_or_create(name, help, "gauge", None, fn=fn)
        assert isinstance(g, Gauge)  # no labels -> always a plain gauge
        g.set_function(fn)
        return g

    def counter_fn(
        self, name: str, help: str, fn: Callable[[], float]
    ) -> Counter:
        """Callback-backed counter: mirrors a monotonic total already
        maintained elsewhere (engine counters) at zero hot-path cost."""
        c = self._get_or_create(name, help, "counter", None, fn=fn)
        assert isinstance(c, Counter)  # no labels -> always plain
        c.set_function(fn)
        return c

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Sequence[str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Union[Metric, MetricFamily]:
        return self._get_or_create(name, help, "histogram", labels, buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[Union[Metric, MetricFamily]]:
        with self._lock:
            return self._metrics.get(name)

    # -- exposition -----------------------------------------------------------

    def _flat(self) -> list[tuple[str, str, str, list[Metric]]]:
        """``(name, help, kind, [children...])`` for every metric."""
        with self._lock:
            items = sorted(self._metrics.items())
        out: list[tuple[str, str, str, list[Metric]]] = []
        for name, m in items:
            if isinstance(m, MetricFamily):
                out.append((name, m.help, m.kind(), m.children()))
            else:
                out.append((name, m.help, m.kind(), [m]))
        return out

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, help_, kind, children in self._flat():
            if help_:
                lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {kind}")
            for child in children:
                base_labels = child.label_values
                if kind == "histogram":
                    assert isinstance(child, Histogram)
                    counts, total, n = child.folded()
                    cum = 0
                    for i, bound in enumerate(child.bounds):
                        cum += counts[i]
                        lab = _label_str(
                            base_labels + (("le", _fmt(bound)),)
                        )
                        lines.append(f"{name}_bucket{lab} {cum}")
                    cum += counts[-1]
                    lab = _label_str(base_labels + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{lab} {cum}")
                    lines.append(
                        f"{name}_sum{_label_str(base_labels)} {_fmt(total)}"
                    )
                    lines.append(
                        f"{name}_count{_label_str(base_labels)} {n}"
                    )
                else:
                    lines.append(
                        f"{name}{_label_str(base_labels)} "
                        f"{_fmt(child.value())}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-friendly snapshot of every metric (for export/console).

        Doubles as the cluster's wire codec: a worker ships
        ``snapshot()`` over the pipe and the parent folds it in through
        :class:`SnapshotMerger`.
        """
        out: dict = {"time": time.time(), "metrics": {}}
        for name, help_, kind, children in self._flat():
            entries = []
            for child in children:
                entry: dict = {"labels": dict(child.label_values)}
                if kind == "histogram":
                    assert isinstance(child, Histogram)
                    counts, total, n = child.folded()
                    entry.update(
                        {
                            "buckets": list(child.bounds),
                            "counts": counts,
                            "sum": total,
                            "count": n,
                            "p50": child.percentile(0.5),
                            "p95": child.percentile(0.95),
                            "p99": child.percentile(0.99),
                        }
                    )
                else:
                    entry["value"] = child.value()
                entries.append(entry)
            out["metrics"][name] = {
                "kind": kind,
                "help": help_,
                "samples": entries,
            }
        return out


class SnapshotMerger:
    """Fold :meth:`MetricsRegistry.snapshot` dicts from other processes
    into a parent registry (the cluster's worker-telemetry export).

    Merge semantics, per metric kind:

    * **counters** sum across sources: the merger remembers the last
      value seen per ``(source, name, labels)`` and injects only the
      positive delta, so folding the same worker at every barrier never
      double-counts.  The owner of a restarted source calls
      :meth:`forget`, so the new process's values, which begin again at
      zero, count in full.
    * **histograms** bucket-wise add (same delta discipline) through
      :meth:`Histogram.merge_folded`; bucket layouts must match or the
      sample is skipped.
    * **gauges** are *not* summed (a mean busy-fraction of two shards is
      meaningless): each lands as its own child labelled
      ``shard=<source>`` on top of any labels it already carried.

    Registration conflicts (a worker name colliding with a parent metric
    of a different kind/labels) are skipped, not raised: merging is a
    telemetry-plane activity and must never take down the pipeline.
    Thread-safe: one lock around the whole fold keeps delta bookkeeping
    consistent whichever thread folds.
    """

    def __init__(
        self, registry: MetricsRegistry, *, source_label: str = "shard"
    ) -> None:
        self.registry = registry
        self.source_label = source_label
        self._last: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self.folded_samples = 0
        self.skipped_samples = 0

    def fold(self, source: object, snap: dict) -> int:
        """Merge one source's snapshot; returns samples folded in."""
        folded = 0
        with self._lock:
            for name, family in (snap.get("metrics") or {}).items():
                kind = family.get("kind")
                help_ = family.get("help", "")
                for sample in family.get("samples", []):
                    try:
                        if self._fold_sample(
                            str(source), name, kind, help_, sample
                        ):
                            folded += 1
                    except (ValueError, KeyError, TypeError):
                        # Kind/label/bucket mismatch with what the parent
                        # already registered: skip, don't break telemetry.
                        self.skipped_samples += 1
        self.folded_samples += folded
        return folded

    def forget(self, source: object) -> None:
        """Drop ``source``'s delta baselines: it restarted, so its next
        snapshot counts from zero and folds in whole."""
        with self._lock:
            for key in [k for k in self._last if k[0] == str(source)]:
                del self._last[key]

    def _fold_sample(
        self, source: str, name: str, kind: str, help_: str, sample: dict
    ) -> bool:
        labels = dict(sample.get("labels") or {})
        if kind == "counter":
            value = float(sample["value"])
            child = self._child(name, help_, "counter", labels)
            key = (source, name, tuple(sorted(labels.items())))
            last = float(self._last.get(key, 0.0))
            delta = value - last
            self._last[key] = value
            if delta > 0:
                child.inc(delta)
            return True
        if kind == "gauge":
            value = float(sample["value"])
            merged_labels = dict(labels)
            merged_labels[self.source_label] = source
            child = self._child(name, help_, "gauge", merged_labels)
            child.set(value)
            return True
        if kind == "histogram":
            counts = [int(c) for c in sample["counts"]]
            total = float(sample["sum"])
            bounds = tuple(float(b) for b in sample["buckets"])
            child = self._child(
                name, help_, "histogram", labels, buckets=bounds
            )
            if child.bounds != bounds:
                self.skipped_samples += 1
                return False
            key = (source, name, tuple(sorted(labels.items())))
            last = self._last.get(key)
            if last is None:  # first sight, or forgotten at a restart
                d_counts, d_total = counts, total
            else:
                d_counts = [c - lc for c, lc in zip(counts, last[0])]
                d_total = total - last[1]
            self._last[key] = (counts, total)
            if any(d_counts):
                child.merge_folded(d_counts, d_total)
            return True
        self.skipped_samples += 1
        return False

    def _child(
        self,
        name: str,
        help_: str,
        kind: str,
        labels: dict,
        buckets: Optional[Sequence[float]] = None,
    ) -> Any:
        """Get-or-create the parent-side target metric/child.

        Typed ``Any`` on purpose: the caller immediately uses the
        kind-specific surface (``inc``/``set``/``merge_folded``) it just
        asked for, and the registry's union return would force a cast at
        every call site."""
        label_names = tuple(labels) or None
        reg = self.registry
        if kind == "counter":
            target = reg.counter(name, help_, labels=label_names)
        elif kind == "gauge":
            target = reg.gauge(name, help_, labels=label_names)
        else:
            target = reg.histogram(
                name, help_, labels=label_names, buckets=buckets
            )
        if isinstance(target, MetricFamily):
            return target.labels(*labels.values())
        return target
