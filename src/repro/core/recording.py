"""Traffic and scene recording (§3.2 Step 7).

"One recording thread collects the complete information of every
incoming/outgoing packet to the database for later statistics and replay.
Another recording thread gathers the detailed information of the varying
scene for post-emulation replay."

The paper logs into a SQL database over ODBC; we substitute stdlib
``sqlite3`` with the same two-table shape (see DESIGN.md §2):

* ``packets`` — one row per (packet, receiver) outcome, all time-stamps,
  and the drop reason if the server dropped it;
* ``scene_events`` — every scene mutation with a JSON details column;
* ``trace_spans`` — sampled §3.2 Steps 1–7 pipeline spans (PR 3);
* ``sync_samples`` — every §4.1 clock-sync exchange (offset, delay,
  client label, local time), captured at register/reconnect/resync —
  the input of the offline clock-drift audit in :mod:`repro.analysis`.

Two backends share one interface: :class:`MemoryRecorder` (zero-overhead,
used by tests and the virtual-time emulator by default) and
:class:`SqliteRecorder` (durable, used for replay across processes).  Both
are thread-safe because the real-time server records from several threads
at once — the paper's two "recording threads" become serialized appends
behind a lock (sqlite connections are per-thread-unsafe otherwise).

:class:`RunDataset` is the read side: the one indexed snapshot of a
finished recording that replay, the run report, the exporters and the
forensics pass share.  :func:`load_dataset` is the one way to read a
recording, and :meth:`RunDataset.time_range` the one extent of a run.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from array import array
from collections import deque
from contextlib import closing, contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from ..errors import AnalysisError, RecordingError
from .clock import SyncSample
from .ids import NodeId
from .packet import PacketRecord, PacketRow
from .scene import SceneEvent

__all__ = [
    "Recorder", "MemoryRecorder", "SqliteRecorder", "RunDataset",
    "load_dataset", "load_scene_events",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS packets (
    record_id   INTEGER PRIMARY KEY,
    seqno       INTEGER NOT NULL,
    source      INTEGER NOT NULL,
    destination INTEGER NOT NULL,
    sender      INTEGER NOT NULL,
    receiver    INTEGER,
    channel     INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    size_bits   INTEGER NOT NULL,
    t_origin    REAL,
    t_receipt   REAL,
    t_forward   REAL,
    t_delivered REAL,
    drop_reason TEXT
);
CREATE TABLE IF NOT EXISTS scene_events (
    event_id INTEGER PRIMARY KEY,
    time     REAL NOT NULL,
    kind     TEXT NOT NULL,
    node     INTEGER NOT NULL,
    details  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_scene_time ON scene_events (time);
CREATE TABLE IF NOT EXISTS trace_spans (
    span_id   INTEGER PRIMARY KEY,
    trace_id  INTEGER NOT NULL,
    source    INTEGER NOT NULL,
    seqno     INTEGER NOT NULL,
    channel   INTEGER NOT NULL,
    sender    INTEGER NOT NULL,
    receiver  INTEGER,
    t_start   REAL NOT NULL,
    t_forward REAL,
    lag       REAL,
    outcome   TEXT NOT NULL,
    stages    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_spans_trace ON trace_spans (trace_id);
CREATE TABLE IF NOT EXISTS sync_samples (
    sample_id    INTEGER PRIMARY KEY,
    node         INTEGER NOT NULL,
    label        TEXT NOT NULL,
    clock_offset REAL NOT NULL,
    delay        REAL NOT NULL,
    t_server     REAL NOT NULL,
    t_client     REAL NOT NULL,
    cause        TEXT NOT NULL,
    residual     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_sync_node_time ON sync_samples (node, t_server);
"""


class Recorder(ABC):
    """Interface of both recorder backends.

    The write path appends *rows* (:data:`~repro.core.packet.PacketRow`:
    a record's fields minus ``record_id``) and the recorder assigns each
    row its id as it appends it — consecutive, in append order, and
    continuing where a reopened recording left off.  The read path
    (:meth:`packets`) builds the :class:`PacketRecord` objects.
    """

    @abstractmethod
    def record_packet(self, row: PacketRow) -> int:
        """Append one packet outcome row; returns its record id."""

    @abstractmethod
    def record_many(self, rows: Sequence[PacketRow]) -> int:
        """Append a batch of packet rows under one acquisition (the hot
        path); returns the first one's record id.

        A row whose receiver field is a tuple of nodes is one record per
        element, in order (see :data:`~repro.core.packet.PacketRow`): the
        engine hands over a fan-out group as one such row, and every
        recorder must expand it."""

    @abstractmethod
    def record_scene(self, event: SceneEvent) -> None:
        """Append one scene mutation row."""

    @abstractmethod
    def packets(self) -> list[PacketRecord]:
        """All packet records, in record order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of packet records held, counted without building them."""

    @abstractmethod
    def scene_events(self) -> list[SceneEvent]:
        """All scene rows, in record order."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release resources."""

    # -- pipeline trace spans (observability plane) ---------------------------

    def record_span(self, span) -> None:
        """Persist one sampled pipeline span (see :mod:`repro.obs.tracing`).

        Default is a no-op so third-party recorders stay source-compatible;
        both built-in backends override it.  This is the paper's "complete
        information ... for later statistics" extended to the sampled
        per-stage timing of the §3.2 Steps 1–7 pipeline.
        """

    def spans(self) -> list:
        """All persisted trace spans, in record order (default: none)."""
        return []

    # -- clock-sync audit log (§4.1 exchanges, forensics plane) ---------------

    def record_sync(self, sample: SyncSample) -> None:
        """Persist one §4.1 exchange outcome (see
        :class:`repro.core.clock.SyncSample`).

        Default is a no-op so third-party recorders stay
        source-compatible; both built-in backends override it.  Captured
        automatically at client register, reconnect, and every explicit
        resynchronization — the input of the offline clock-drift audit
        (:mod:`repro.analysis.drift`).
        """

    def sync_samples(self) -> list[SyncSample]:
        """All recorded sync exchanges, in record order (default: none)."""
        return []

    # -- shared conveniences --------------------------------------------------

    def dropped_packets(self) -> list[PacketRecord]:
        return [p for p in self.packets() if p.dropped]

    def attach_to_scene(self, scene) -> None:
        """Subscribe this recorder to a scene's mutation events."""
        scene.add_listener(self.record_scene)


_ROW_FIELDS = 13  # fields of a PacketRow
_RECEIVER = 4  # the receiver field of a PacketRow
_GROUPED = object()  # receiver field of a grouped row kept as node ids


def expand_rows(rows: Sequence[PacketRow]) -> list[PacketRow]:
    """``rows`` with every grouped row (a tuple receiver) expanded to one
    row per receiver, in order."""
    out: list[PacketRow] = []
    for row in rows:
        receivers = row[_RECEIVER]
        if type(receivers) is tuple:
            head, tail = row[:_RECEIVER], row[_RECEIVER + 1:]
            out.extend(head + (r,) + tail for r in receivers)
        else:
            out.append(row)
    return out


def _count_records(rows: Sequence[PacketRow]) -> int:
    """The records ``rows`` stand for; a row without 13 fields is refused."""
    n = 0
    for row in rows:
        if len(row) != _ROW_FIELDS:
            raise RecordingError(f"a packet row has {_ROW_FIELDS} fields")
        receivers = row[_RECEIVER]
        n += len(receivers) if type(receivers) is tuple else 1
    return n


class MemoryRecorder(Recorder):
    """In-memory recorder: the whole run, kept as one flat list.

    The packet log is one flat list of the rows' fields, 13 per row, as
    given: a fan-out group's delivery arrives as one row whose receiver
    field is the group's receivers tuple, so it costs 13 slots, not 13
    per record.  A field costs one 8-byte slot and a row no object of
    its own (a 13-field tuple costs 144 bytes).  A grouped row's ``k``
    receivers go, count first, to one flat array of 4-byte ids when they
    fit (``4k + 4`` bytes, not a tuple's ``8k + 40``).  :meth:`record_many`
    appends a whole flush's rows under a single lock acquisition and
    keeps a record count, so ids are implicit: the ``i``-th record has
    id ``i + 1``.  Rows are expanded and records built only when read.
    Nothing is ever discarded, the paper's complete-record semantics; a
    run too long to hold in memory records to :class:`SqliteRecorder`.
    """

    #: Bound on retained trace spans (they are *sampled*, so a small ring
    #: covers hours of traffic at default 1-in-128 sampling).
    SPAN_CAPACITY = 4096

    def __init__(self) -> None:
        self._fields: list = []
        self._ids = array("i")  # grouped rows' receivers, count first
        self._count = 0  # records, not rows
        self._events: list[SceneEvent] = []
        self._syncs: list[SyncSample] = []
        self._spans: deque = deque(maxlen=self.SPAN_CAPACITY)
        self._lock = threading.Lock()

    # -- appends (lock held) ---------------------------------------------------

    def _extend(self, rows: Sequence[PacketRow]) -> int:
        n = _count_records(rows)  # a refused batch changes nothing
        first = self._count + 1
        fields, ids = self._fields, self._ids
        for row in rows:
            fields += row
            receivers = row[_RECEIVER]
            if type(receivers) is tuple:
                try:
                    ids += array("i", (len(receivers), *receivers))
                except (TypeError, OverflowError):
                    continue  # kept as the tuple
                fields[_RECEIVER - _ROW_FIELDS] = _GROUPED
        self._count += n
        return first

    def record_packet(self, row: PacketRow) -> int:
        with self._lock:
            return self._extend((row,))

    def record_many(self, rows: Sequence[PacketRow]) -> int:
        with self._lock:
            return self._extend(rows)

    def record_scene(self, event: SceneEvent) -> None:
        with self._lock:
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def rows(self) -> list[PacketRow]:
        """One row per record, in record order (no records built)."""
        with self._lock:
            rows = list(zip(*[iter(self._fields)] * _ROW_FIELDS))
            ids = iter(self._ids.tolist())
        return expand_rows([
            row[:_RECEIVER] + (tuple(islice(ids, next(ids))),)
            + row[_RECEIVER + 1:] if row[_RECEIVER] is _GROUPED else row
            for row in rows
        ])

    def packets(self) -> list[PacketRecord]:
        return [PacketRecord(i, *row) for i, row in enumerate(self.rows(), 1)]

    def scene_events(self) -> list[SceneEvent]:
        with self._lock:
            return list(self._events)

    def record_span(self, span) -> None:
        # deque.append with maxlen is atomic; no lock needed.
        self._spans.append(span)

    def spans(self) -> list:
        return list(self._spans)

    def record_sync(self, sample: SyncSample) -> None:
        with self._lock:
            self._syncs.append(sample)

    def sync_samples(self) -> list[SyncSample]:
        with self._lock:
            return list(self._syncs)

    def close(self) -> None:  # nothing to release
        pass


class SqliteRecorder(Recorder):
    """Durable recorder over stdlib sqlite3 (the paper's SQL-DB substitute).

    ``path`` may be ``":memory:"`` for an ephemeral database.  One
    connection is shared across threads behind a lock (cheaper and simpler
    than per-thread connections at emulator record rates).  A file
    database runs in write-ahead-log mode: a commit appends to the log
    instead of creating and deleting a rollback journal, whose directory
    fsyncs can cost tens of ms on a VM disk and would stall the serving
    loop that records each frame.
    """

    def __init__(self, path: str) -> None:
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as exc:
            raise RecordingError(f"cannot open recording db {path!r}: {exc}") from exc
        # One shared connection, serialized by this lock *by design*:
        # sqlite with check_same_thread=False requires exactly one
        # in-flight statement, so every DB call below sits inside the
        # critical section on purpose.  The hot path never blocks here —
        # the engine batches through record_many() (one acquisition per
        # ingest and per flush); the POEM002 suppressions below all cite
        # this.
        self._lock = threading.Lock()
        # SQLite gives an inserted row without a rowid the table's
        # largest id + 1, so with this recorder the file's one writer,
        # the id of the next row is known without asking.
        row = self._conn.execute("SELECT MAX(record_id) FROM packets").fetchone()
        self._next_id = (row[0] or 0) + 1

    _INSERT_PACKET = (
        "INSERT INTO packets (seqno, source, destination, sender, receiver,"
        " channel, kind, size_bits, t_origin, t_receipt, t_forward,"
        " t_delivered, drop_reason) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)"
    )

    def record_many(self, rows: Sequence[PacketRow]) -> int:
        """One ``executemany`` + one commit for a whole batch, grouped
        rows expanded first."""
        rows = expand_rows(rows)
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            first = self._next_id
            if not rows:
                return first
            try:
                self._conn.executemany(self._INSERT_PACKET, rows)
                self._conn.commit()
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise RecordingError(f"batch packet insert failed: {exc}") from exc
            self._next_id = first + len(rows)
            return first

    def record_packet(self, row: PacketRow) -> int:
        return self.record_many((row,))

    def __len__(self) -> int:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            return self._conn.execute("SELECT COUNT(*) FROM packets").fetchone()[0]

    def record_scene(self, event: SceneEvent) -> None:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            try:
                self._conn.execute(
                    "INSERT INTO scene_events (time, kind, node, details)"
                    " VALUES (?,?,?,?)",
                    (event.time, event.kind, int(event.node),
                     json.dumps(event.details)),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                raise RecordingError(f"scene insert failed: {exc}") from exc

    def packets(self) -> list[PacketRecord]:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            return _read_packets(self._conn)

    def scene_events(self) -> list[SceneEvent]:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            return _read_scene_events(self._conn)

    def record_span(self, span) -> None:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            try:
                self._conn.execute(
                    "INSERT INTO trace_spans (trace_id, source, seqno,"
                    " channel, sender, receiver, t_start, t_forward, lag,"
                    " outcome, stages) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                    (
                        span.trace_id, span.source, span.seqno, span.channel,
                        span.sender, span.receiver, span.t_start,
                        span.t_forward, span.lag, span.outcome,
                        json.dumps(list(span.stages)),
                    ),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                raise RecordingError(f"span insert failed: {exc}") from exc

    def spans(self) -> list:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            return _read_spans(self._conn)

    def record_sync(self, sample: SyncSample) -> None:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            try:
                self._conn.execute(
                    "INSERT INTO sync_samples (node, label, clock_offset,"
                    " delay, t_server, t_client, cause, residual)"
                    " VALUES (?,?,?,?,?,?,?,?)",
                    (
                        sample.node, sample.label, sample.offset,
                        sample.delay, sample.t_server, sample.t_client,
                        sample.cause, sample.residual,
                    ),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                raise RecordingError(f"sync insert failed: {exc}") from exc

    def sync_samples(self) -> list[SyncSample]:
        with self._lock:  # poem: ignore[POEM002] — serialized sqlite connection (see _lock note)
            return _read_sync_samples(self._conn)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def _read_packets(conn: sqlite3.Connection) -> list[PacketRecord]:
    rows = conn.execute(
        "SELECT record_id, seqno, source, destination, sender,"
        " receiver, channel, kind, size_bits, t_origin, t_receipt,"
        " t_forward, t_delivered, drop_reason FROM packets"
        " ORDER BY record_id"
    ).fetchall()
    return [PacketRecord(*r) for r in rows]


def _read_scene_events(conn: sqlite3.Connection) -> list[SceneEvent]:
    rows = conn.execute(
        "SELECT time, kind, node, details FROM scene_events"
        " ORDER BY event_id"
    ).fetchall()
    return [
        SceneEvent(time=r[0], kind=r[1], node=NodeId(r[2]),
                   details=json.loads(r[3]))
        for r in rows
    ]


def _read_spans(conn: sqlite3.Connection) -> list:
    from ..obs.tracing import TraceSpan

    rows = conn.execute(
        "SELECT trace_id, source, seqno, channel, sender, receiver,"
        " t_start, t_forward, lag, outcome, stages FROM trace_spans"
        " ORDER BY span_id"
    ).fetchall()
    return [
        TraceSpan(
            trace_id=r[0], source=r[1], seqno=r[2], channel=r[3],
            sender=r[4], receiver=r[5], t_start=r[6], t_forward=r[7],
            lag=r[8], outcome=r[9],
            stages=tuple((s[0], s[1]) for s in json.loads(r[10])),
        )
        for r in rows
    ]


def _read_sync_samples(conn: sqlite3.Connection) -> list[SyncSample]:
    rows = conn.execute(
        "SELECT node, label, clock_offset, delay, t_server,"
        " t_client, cause, residual FROM sync_samples"
        " ORDER BY sample_id"
    ).fetchall()
    return [
        SyncSample(
            node=r[0], label=r[1], offset=r[2], delay=r[3],
            t_server=r[4], t_client=r[5], cause=r[6], residual=r[7],
        )
        for r in rows
    ]


@contextmanager
def _read_only(path: Union[str, Path]) -> Iterator[sqlite3.Connection]:
    """A connection to the recording at ``path`` that writes nothing,
    not even SQLite's side files: a recording whose writer closed it
    cleanly has no ``-wal`` file and is opened ``immutable`` (no locks,
    no ``-shm``); one that still has a ``-wal`` (a live or crashed
    writer) is read through it.  A missing file, a file that is not
    SQLite and a database without a ``packets`` table all raise
    :class:`RecordingError`.
    """
    target = Path(path)
    if not target.is_file():
        raise RecordingError(f"no recording at {str(path)!r}")
    wal = target.with_name(target.name + "-wal")
    mode = "ro" if wal.exists() else "ro&immutable=1"
    uri = f"{target.resolve().as_uri()}?mode={mode}"
    try:
        with closing(sqlite3.connect(uri, uri=True)) as conn:
            if not conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'packets'"
            ).fetchone():
                raise RecordingError(
                    f"{str(path)!r} is not a PoEm recording (no packets table)"
                )
            yield conn
    except sqlite3.Error as exc:
        raise RecordingError(f"cannot read recording {str(path)!r}: {exc}") from exc


class RunDataset:
    """Joined, indexed snapshot of one recording.

    Snapshots the recorder's four tables and builds the indexes the
    readers need: packets by record id, trace spans by
    ``(source, seqno)``, sync samples by node, and the terminal
    ``run-summary`` scene event when the run shut down cleanly.  It is
    deliberately a *snapshot* — analysis never races a live emulation;
    point it at a finished run.
    """

    def __init__(
        self,
        packets: list[PacketRecord],
        scene_events: list[SceneEvent],
        spans: list,
        sync_samples: list,
    ) -> None:
        self.packets = packets
        self.scene_events = scene_events
        self.spans = spans
        self.sync_samples = sync_samples
        # -- indexes --------------------------------------------------------
        self._by_record_id = {p.record_id: p for p in packets}
        self._spans_by_key: dict[tuple[int, int], list] = {}
        for span in spans:
            self._spans_by_key.setdefault(
                (span.source, span.seqno), []
            ).append(span)
        self._syncs_by_node: dict[int, list] = {}
        for s in sync_samples:
            self._syncs_by_node.setdefault(s.node, []).append(s)
        for lst in self._syncs_by_node.values():
            lst.sort(key=lambda s: s.t_server)
        self._extent = self._compute_extent()

    # -- basic partitions ----------------------------------------------------

    @property
    def delivered(self) -> list[PacketRecord]:
        return [p for p in self.packets if not p.dropped]

    @property
    def drops(self) -> list[PacketRecord]:
        return [p for p in self.packets if p.dropped]

    def lags(self) -> list[float]:
        """Scheduler lag (``t_delivered − t_forward``) of every
        delivered record, in record order."""
        return [
            p.t_delivered - p.t_forward
            for p in self.packets
            if not p.dropped
            and p.t_delivered is not None
            and p.t_forward is not None
        ]

    # -- lookups -------------------------------------------------------------

    def packet(self, record_id: int) -> PacketRecord:
        try:
            return self._by_record_id[record_id]
        except KeyError:
            raise AnalysisError(
                f"no packet record with id {record_id}"
            ) from None

    def spans_for(self, record: PacketRecord):
        """Trace spans sampled for this packet, best match first.

        Spans are keyed by ``(source, seqno)``; a broadcast fans out to
        one span per receiver, so prefer the span whose receiver matches
        the record's.
        """
        candidates = self._spans_by_key.get(
            (record.source, record.seqno), []
        )
        if not candidates:
            return []
        return sorted(
            candidates,
            key=lambda sp: (
                0 if sp.receiver == record.receiver else 1,
                sp.trace_id,
            ),
        )

    def syncs_for(self, node: int) -> list:
        """§4.1 sync samples of one client, ordered by server time."""
        return list(self._syncs_by_node.get(node, []))

    def synced_nodes(self) -> list[int]:
        return sorted(self._syncs_by_node)

    # -- run framing ---------------------------------------------------------

    def _last_event(self, kind: str) -> Optional[SceneEvent]:
        for event in reversed(self.scene_events):
            if event.kind == kind:
                return event
        return None

    @property
    def run_summary(self) -> Optional[dict]:
        """Details of the terminal ``run-summary`` event, if recorded."""
        event = self._last_event("run-summary")
        return None if event is None else dict(event.details)

    @property
    def cluster_run(self) -> Optional[dict]:
        """Details of the ``cluster-run`` event a sharded run records at
        collect time (worker count, shard map, per-worker counters), or
        ``None`` for single-process recordings.  Gates the cross-shard
        coherence audit in :mod:`repro.analysis.anomalies`."""
        event = self._last_event("cluster-run")
        return None if event is None else dict(event.details)

    def time_range(self) -> tuple[float, float]:
        """``(start, end)`` of the run on the server clock, the one
        extent replay, ``poem stats`` and ``poem analyze`` frame it by.

        Start is the earliest receipt/forward/delivery or scene time.
        End is the latest of those times, or the ``run-summary`` stop
        stamp when later.  Computed once, when the snapshot is taken.
        """
        return self._extent

    def _compute_extent(self) -> tuple[float, float]:
        times = [
            t
            for p in self.packets
            for t in (p.t_receipt, p.t_forward, p.t_delivered)
            if t is not None
        ]
        times += [e.time for e in self.scene_events]
        if not times:
            return (0.0, 0.0)
        end = max(times)
        summary = self._last_event("run-summary")
        if summary is not None:
            end = max(end, summary.time)
        return (min(times), end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunDataset(packets={len(self.packets)},"
            f" events={len(self.scene_events)}, spans={len(self.spans)},"
            f" syncs={len(self.sync_samples)})"
        )


def load_dataset(source: Union[str, Path, Recorder, RunDataset]) -> RunDataset:
    """Load a run from a :class:`Recorder` or a SQLite file path (a
    :class:`RunDataset` passes through).

    A path is opened read-only and closed again once the snapshot is
    taken; nothing is created or written, and a path that holds no
    recording raises :class:`RecordingError`.
    """
    if isinstance(source, RunDataset):
        return source
    if isinstance(source, Recorder):
        return RunDataset(
            source.packets(), source.scene_events(), source.spans(),
            source.sync_samples(),
        )
    with _read_only(source) as conn:
        return RunDataset(
            _read_packets(conn), _read_scene_events(conn), _read_spans(conn),
            _read_sync_samples(conn),
        )


def load_scene_events(path: Union[str, Path]) -> list[SceneEvent]:
    """Only the scene log of the recording at ``path``, read through the
    same non-writing open as :func:`load_dataset`."""
    with _read_only(path) as conn:
        return _read_scene_events(conn)
