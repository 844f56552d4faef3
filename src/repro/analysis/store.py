"""Durable content-addressed result store: the disk tier of the cache.

ROADMAP item 1 (analysis-as-a-service) and item 5 (sharded batch tier)
both need analysis results that outlive one process: a fleet of workers
— or tomorrow's restart of today's sweep — must serve repeat traffic at
warm-cache speed.  :class:`ResultStore` persists one record per
``(fingerprint, analysis, params)`` key under a root directory, and it
is built so that a process killed at *any* instruction never makes the
store serve a corrupt or stale result afterwards:

**Publish protocol** (the only way a record reaches its final path)
    Serialise → write to a private file under ``tmp/`` → ``flush`` →
    ``fsync`` → ``os.replace`` onto the final path → fsync the
    directory.  ``os.replace`` is atomic on POSIX, so a reader sees
    either no record or a complete one; a crash before the replace
    leaves only temp garbage, which compaction sweeps.

**Self-verifying records** (``repro-store-v1``)
    Every record carries a magic line, a JSON header echoing its own
    key (fingerprint, analysis, canonical params) plus the payload
    length and SHA-256, and then the pickled payload.  A read verifies
    all of it; the typed result object — provenance certificate and all
    — comes back exactly as stored.

**Quarantine, never trust**
    Torn writes, bit flips, truncations, renamed files and unpicklable
    payloads are *detected* (checksum/length/key-echo mismatch) and the
    bad file is atomically moved to ``quarantine/`` — the caller sees a
    miss and recomputes.  Corruption can cost a recomputation, never a
    wrong answer.

**Size budget**
    :meth:`compact` evicts least-recently-used records (by file mtime;
    reads touch their record) until the store fits ``max_bytes``, and
    sweeps temp garbage.  Writers trigger it opportunistically.

**Multi-process safety**
    Reads and publishes are lock-free (atomicity comes from
    ``os.replace``; concurrent publishers of one key write the same
    content).  Only :meth:`compact` takes an exclusive ``flock`` on
    ``root/.lock`` so two compactions do not fight; the lock dies with
    its process, so a crashed compaction cannot wedge the store.

Every I/O boundary calls :func:`repro.analysis.faults.crash_point` with
a named site (``store.tmp-write``, ``store.publish``, …), which is how
the chaos suite in ``tests/test_store.py`` kills a real process at each
boundary and asserts recovery-to-consistency on restart.  See
``docs/robustness.md`` for the durability model.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.analysis.faults import crash_point
from repro.obs.trace import add_event

__all__ = [
    "DEFAULT_MAX_BYTES",
    "STORE_SCHEMA",
    "STORE_STATS_SCHEMA",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
]

#: Schema tag of record files and the first line of every record.
STORE_SCHEMA = "repro-store-v1"
#: Schema tag of the ``repro cache stats --json`` census.
STORE_STATS_SCHEMA = "repro-store-stats-v1"
_MAGIC = (STORE_SCHEMA + "\n").encode("ascii")

#: Default size budget: plenty for every registry sweep, small enough
#: that a forgotten store cannot eat a build machine.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Outcomes of :meth:`ResultStore.get` (the cache's disk-tier probe).
HIT, MISS, QUARANTINED, READ_ERROR = "hit", "miss", "quarantined", "error"

#: Pickle protocol pinned for stable record bytes across minor versions.
_PICKLE_PROTOCOL = 4


def canonical_params(params: Optional[Dict[str, Any]]) -> str:
    """The canonical JSON encoding of an analysis parameter dict.

    Sorted keys and ``repr`` for non-JSON values make the encoding a
    pure function of the logical key, so the same parameters always
    address the same record — across processes, dict orders and runs.
    """
    if not params:
        return "{}"
    return json.dumps(dict(params), sort_keys=True, default=repr,
                      separators=(",", ":"))


def key_digest(fingerprint: str, analysis: str,
               params: Optional[Dict[str, Any]] = None) -> str:
    """The content address of one record: SHA-256 over the full key."""
    blob = "\x00".join((fingerprint, analysis, canonical_params(params)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Runtime counters plus an on-disk census of one store.

    The counters (hits/misses/…) are this process's traffic since the
    store object was created; the census fields (``records``/``bytes``/
    ``quarantined_records``/``tmp_files``) are a fresh directory scan at
    snapshot time, so they reflect every process writing to the root.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Publishes skipped because the record already existed on disk.
    put_skips: int = 0
    #: Publishes that failed (disk full, permissions, injected faults).
    put_errors: int = 0
    #: Corrupt records detected and moved aside by reads/verify.
    quarantined: int = 0
    #: Records evicted by compaction in this process.
    evictions: int = 0
    #: Reads that failed with an I/O error (treated as misses).
    read_errors: int = 0
    records: int = 0
    bytes: int = 0
    quarantined_records: int = 0
    tmp_files: int = 0
    max_bytes: int = 0
    root: str = ""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "put_skips": self.put_skips,
            "put_errors": self.put_errors,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "read_errors": self.read_errors,
            "records": self.records,
            "bytes": self.bytes,
            "quarantined_records": self.quarantined_records,
            "tmp_files": self.tmp_files,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
            "root": self.root,
        }


@dataclass
class VerifyReport:
    """Outcome of a full-store :meth:`ResultStore.verify` scan.

    ``undetected_corrupt`` is the store's core promise: corrupt records
    that are *still live* after the scan (detection or quarantine
    failed).  It must be zero after any crash; the chaos suite and the
    CI smoke assert exactly that.  Serialises as a
    ``repro-store-verify-v1`` document (validated by
    :mod:`repro.obs.check`).
    """

    root: str
    records: int = 0
    valid: int = 0
    corrupt: List[Dict[str, str]] = field(default_factory=list)
    quarantined_now: int = 0
    quarantined_records: int = 0
    tmp_files: int = 0
    bytes: int = 0

    SCHEMA = "repro-store-verify-v1"

    @property
    def undetected_corrupt(self) -> int:
        return len(self.corrupt) - self.quarantined_now

    @property
    def ok(self) -> bool:
        return self.undetected_corrupt == 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.SCHEMA,
            "root": self.root,
            "records": self.records,
            "valid": self.valid,
            "corrupt": list(self.corrupt),
            "quarantined_now": self.quarantined_now,
            "quarantined_records": self.quarantined_records,
            "undetected_corrupt": self.undetected_corrupt,
            "tmp_files": self.tmp_files,
            "bytes": self.bytes,
        }


class _RecordError(ValueError):
    """A record failed structural verification (reason in ``args[0]``)."""


def _decode_record(raw: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Split and verify a record's magic/header/payload (no unpickling).

    Raises :class:`_RecordError` with a short machine-readable reason on
    the first violation.
    """
    if not raw.startswith(_MAGIC):
        raise _RecordError("bad-magic")
    buffer = io.BytesIO(raw[len(_MAGIC):])
    header_line = buffer.readline()
    if not header_line.endswith(b"\n"):
        raise _RecordError("truncated-header")
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise _RecordError("corrupt-header") from None
    if not isinstance(header, dict):
        raise _RecordError("corrupt-header")
    for key in ("fingerprint", "analysis", "params"):
        if not isinstance(header.get(key), str):
            raise _RecordError("corrupt-header")
    length = header.get("payload_len")
    checksum = header.get("checksum")
    if not isinstance(length, int) or length < 0 \
            or not isinstance(checksum, str):
        raise _RecordError("corrupt-header")
    payload = buffer.read()
    if len(payload) != length:
        raise _RecordError("torn-payload")
    if hashlib.sha256(payload).hexdigest() != checksum:
        raise _RecordError("checksum-mismatch")
    return header, payload


class ResultStore:
    """A crash-consistent, content-addressed analysis-result store.

    >>> import tempfile
    >>> from repro.graphs.examples import figure3_graph
    >>> from repro.analysis.throughput import throughput
    >>> g = figure3_graph()
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = ResultStore(root)
    ...     _ = store.put(g.fingerprint(), "throughput", throughput(g),
    ...                   params={"method": "symbolic"})
    ...     status, value = store.get(g.fingerprint(), "throughput",
    ...                               params={"method": "symbolic"})
    >>> status, value.cycle_time
    ('hit', Fraction(7, 1))
    """

    def __init__(self, root: Union[str, Path],
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._records = self.root / "records"
        self._tmp = self.root / "tmp"
        self._quarantine = self.root / "quarantine"
        self._lock = threading.Lock()
        self._tmp_seq = 0
        # Approximate live size, maintained incrementally by this
        # process's puts; compact() rescans authoritatively.  -1 means
        # "not yet measured" (first put scans once).
        self._size_estimate = -1
        self._hits = self._misses = 0
        self._puts = self._put_skips = self._put_errors = 0
        self._quarantined = self._evictions = self._read_errors = 0
        for directory in (self._records, self._tmp, self._quarantine):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _record_path(self, digest: str) -> Path:
        return self._records / digest[:2] / f"{digest}.rec"

    def _tmp_path(self, digest: str) -> Path:
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        return self._tmp / f"{digest}.{os.getpid()}.{seq}.tmp"

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        # Durability of the rename itself: without this, a power cut can
        # forget the directory entry even though the data blocks exist.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - e.g. dirs not openable (win)
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # read path (lock-free)
    # ------------------------------------------------------------------

    def get(self, fingerprint: str, analysis: str,
            params: Optional[Dict[str, Any]] = None) -> Tuple[str, Any]:
        """Probe the store: ``(status, value)``.

        ``status`` is :data:`HIT` (value is the stored result),
        :data:`MISS`, :data:`QUARANTINED` (a record existed but failed
        verification and was moved aside) or :data:`READ_ERROR` (an I/O
        failure; the record — if any — was left alone).  Never raises:
        a broken disk degrades the tier to a miss, not the analysis to
        an error.
        """
        digest = key_digest(fingerprint, analysis, params)
        path = self._record_path(digest)
        try:
            crash_point("store.read")
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("_misses")
            return MISS, None
        except OSError:
            self._count("_read_errors")
            self._count("_misses")
            return READ_ERROR, None
        try:
            header, payload = _decode_record(raw)
            if (header["fingerprint"] != fingerprint
                    or header["analysis"] != analysis
                    or header["params"] != canonical_params(params)):
                # A renamed/aliased record answers for the wrong key:
                # stale data wearing a fresh address.  Never serve it.
                raise _RecordError("key-mismatch")
            value = self._unpickle(payload)
        except _RecordError as error:
            self._quarantine_record(path, str(error))
            self._count("_misses")
            return QUARANTINED, None
        # LRU by mtime: a hit refreshes the record's eviction clock.
        try:
            os.utime(path)
        except OSError:
            pass  # eviction order degrades gracefully; the data is fine
        self._count("_hits")
        add_event("store-hit", analysis=analysis)
        return HIT, value

    @staticmethod
    def _unpickle(payload: bytes) -> Any:
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, ValueError, TypeError,
                AttributeError, ImportError, IndexError, KeyError):
            # The checksum passed, so these bytes are what was written —
            # but written by an incompatible or buggy producer.  Treat
            # exactly like corruption: quarantine, recompute.
            raise _RecordError("unpicklable-payload") from None

    def _quarantine_record(self, path: Path, reason: str) -> bool:
        """Atomically move a bad record aside; True when it is no longer
        live (moved, or already gone)."""
        destination = self._quarantine / f"{path.stem}.{reason}.rec"
        try:
            crash_point("store.quarantine")
            os.replace(path, destination)
        except FileNotFoundError:
            pass  # another process already dealt with it
        except OSError:
            # Could not move it — last resort: delete, so the corrupt
            # bytes can never be served.
            try:
                path.unlink()
            except OSError:
                return False
        self._count("_quarantined")
        add_event("store-quarantine", reason=reason)
        return True

    # ------------------------------------------------------------------
    # write path (lock-free; atomicity via os.replace)
    # ------------------------------------------------------------------

    def put(self, fingerprint: str, analysis: str, value: Any,
            params: Optional[Dict[str, Any]] = None) -> bool:
        """Publish one result durably; True when a valid record exists.

        Timed-out values are refused (a budget-shaped answer must never
        become a durable fact); unpicklable values and I/O failures are
        swallowed into ``put_errors`` — persistence is an optimisation,
        the caller already holds the computed result.
        """
        provenance = getattr(value, "provenance", None)
        if getattr(provenance, "status", None) == "timed-out":
            self._count("_put_errors")
            return False
        digest = key_digest(fingerprint, analysis, params)
        final = self._record_path(digest)
        if final.exists():
            # Content-addressed: same key, same value.  First publisher
            # wins; everyone else skips the I/O entirely.
            self._count("_put_skips")
            return True
        try:
            payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            self._count("_put_errors")
            return False
        header = json.dumps({
            "fingerprint": fingerprint,
            "analysis": analysis,
            "params": canonical_params(params),
            "payload_len": len(payload),
            "checksum": hashlib.sha256(payload).hexdigest(),
        }, sort_keys=True).encode("utf-8") + b"\n"
        tmp = self._tmp_path(digest)
        try:
            with open(tmp, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(header)
                handle.write(payload[: len(payload) // 2])
                crash_point("store.tmp-write")
                handle.write(payload[len(payload) // 2:])
                handle.flush()
                crash_point("store.tmp-sync")
                os.fsync(handle.fileno())
            final.parent.mkdir(parents=True, exist_ok=True)
            crash_point("store.publish")
            os.replace(tmp, final)
            crash_point("store.publish-done")
            self._fsync_dir(final.parent)
        except OSError:
            self._count("_put_errors")
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        grown = len(_MAGIC) + len(header) + len(payload)
        with self._lock:
            self._puts += 1
            if self._size_estimate < 0:
                self._size_estimate = self._census()[1]
            else:
                self._size_estimate += grown
            over_budget = self._size_estimate > self.max_bytes
        add_event("store-publish", analysis=analysis, bytes=grown)
        if over_budget:
            self.compact(blocking=False)
        return True

    # ------------------------------------------------------------------
    # maintenance: census, verify, compact, purge
    # ------------------------------------------------------------------

    def _iter_records(self) -> Iterator[Path]:
        if not self._records.exists():
            return
        for shard in sorted(self._records.iterdir()):
            if not shard.is_dir():
                continue
            yield from sorted(shard.glob("*.rec"))

    def _census(self) -> Tuple[int, int]:
        """(record count, total record bytes) by directory scan."""
        count = total = 0
        for path in self._iter_records():
            try:
                total += path.stat().st_size
                count += 1
            except OSError:
                continue  # racing eviction/quarantine
        return count, total

    def stats(self) -> StoreStats:
        records, total = self._census()
        quarantined = sum(1 for _ in self._quarantine.glob("*.rec")) \
            if self._quarantine.exists() else 0
        tmp_files = sum(1 for _ in self._tmp.glob("*.tmp")) \
            if self._tmp.exists() else 0
        with self._lock:
            return StoreStats(
                hits=self._hits, misses=self._misses,
                puts=self._puts, put_skips=self._put_skips,
                put_errors=self._put_errors,
                quarantined=self._quarantined, evictions=self._evictions,
                read_errors=self._read_errors,
                records=records, bytes=total,
                quarantined_records=quarantined, tmp_files=tmp_files,
                max_bytes=self.max_bytes, root=str(self.root),
            )

    def verify(self, quarantine: bool = True) -> VerifyReport:
        """Scan every record; quarantine (default) the corrupt ones.

        Verification re-runs the full read-path checks — magic, header,
        payload length, checksum, key-echo against the header itself,
        and unpickling — so a report with ``undetected_corrupt == 0``
        means every surviving record would deserialise correctly.
        """
        report = VerifyReport(root=str(self.root))
        for path in self._iter_records():
            try:
                size = path.stat().st_size
                raw = path.read_bytes()
            except OSError:
                continue  # racing writer/evictor; nothing live to judge
            report.records += 1
            reason = None
            try:
                header, payload = _decode_record(raw)
                if key_digest(header["fingerprint"], header["analysis"],
                              json.loads(header["params"])) != path.stem:
                    reason = "key-mismatch"
                else:
                    self._unpickle(payload)
            except _RecordError as error:
                reason = str(error)
            if reason is None:
                report.valid += 1
                report.bytes += size
                continue
            entry = {"path": str(path), "reason": reason}
            report.corrupt.append(entry)
            if quarantine and self._quarantine_record(path, reason):
                report.quarantined_now += 1
        report.quarantined_records = sum(
            1 for _ in self._quarantine.glob("*.rec"))
        report.tmp_files = sum(1 for _ in self._tmp.glob("*.tmp"))
        return report

    def compact(self, max_bytes: Optional[int] = None,
                blocking: bool = True) -> Dict[str, int]:
        """Sweep temp garbage and evict LRU records down to the budget.

        Takes the exclusive store lock; with ``blocking=False`` (the
        opportunistic call inside :meth:`put`) a busy lock means another
        process is already compacting and this call returns at once.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        with self._exclusive_lock(blocking=blocking) as acquired:
            if not acquired:
                return {"evicted": 0, "freed_bytes": 0, "tmp_removed": 0,
                        "remaining_bytes": -1, "skipped": 1}
            tmp_removed = 0
            for leftover in self._tmp.glob("*.tmp"):
                # Any temp file is either crash debris or a write that
                # compaction is about to race; deleting the latter makes
                # that writer's os.replace fail cleanly (a counted
                # put_error), never a corrupt record.
                try:
                    leftover.unlink()
                    tmp_removed += 1
                except OSError:
                    continue
            entries = []
            for path in self._iter_records():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            total = sum(size for _, size, _ in entries)
            entries.sort(key=lambda item: (item[0], str(item[2])))
            evicted = freed = 0
            for _, size, path in entries:
                if total <= budget:
                    break
                crash_point("store.evict")
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                freed += size
                evicted += 1
            with self._lock:
                self._evictions += evicted
                self._size_estimate = total
        return {"evicted": evicted, "freed_bytes": freed,
                "tmp_removed": tmp_removed, "remaining_bytes": total,
                "skipped": 0}

    def purge(self, analysis: Optional[str] = None,
              quarantine_only: bool = False) -> int:
        """Delete records: all of them, one analysis, or only the
        quarantine directory.  Returns the number of files removed."""
        removed = 0
        if not quarantine_only:
            for path in list(self._iter_records()):
                if analysis is not None:
                    try:
                        header, _ = _decode_record(path.read_bytes())
                    except (_RecordError, OSError):
                        header = None
                    if header is not None and header["analysis"] != analysis:
                        continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        if analysis is None:
            for path in list(self._quarantine.glob("*.rec")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        with self._lock:
            self._size_estimate = -1
        return removed

    def _exclusive_lock(self, blocking: bool = True):
        return _StoreLock(self.root / ".lock", blocking=blocking)

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, max_bytes={self.max_bytes})"


class _StoreLock:
    """Context manager for the store's exclusive maintenance lock.

    ``flock`` on POSIX (released by the kernel when the holder dies, so
    a crashed compaction never wedges the store); degrades to a no-op
    that always "acquires" where ``fcntl`` is unavailable — single
    process assumed there.  Yields whether the lock was acquired.
    """

    def __init__(self, path: Path, blocking: bool):
        self.path = path
        self.blocking = blocking
        self._fd: Optional[int] = None

    def __enter__(self) -> bool:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return True
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        except OSError:
            return False
        flags = fcntl.LOCK_EX | (0 if self.blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
            self._fd = None
