"""Crash-safe append-only journal: the sweep service's source of truth.

Every coordination action (submit, lease, renew, done, fail, requeue)
is one JSON record appended to a single journal file.  The format is
built so that *any* interruption — a worker SIGKILLed mid-append, a
host losing power, a truncated copy — degrades to a readable prefix,
never to silent corruption:

* each record is one line: ``<sha256[:16] of payload> <payload json>\\n``
  — a record is valid iff its checksum matches and it ends in a newline;
* appends happen under an exclusive :func:`flock` on a sidecar lock
  file, with the line written in a single ``write`` and fsync'd before
  the lock is released, so concurrent writers never interleave bytes
  and an acknowledged record survives the process;
* replay (:meth:`Journal.replay`) validates every line; a damaged or
  incomplete **tail** record (the only kind a crash can produce) is
  dropped with :attr:`Journal.truncated_tail` set, while a damaged
  record in the *middle* of the file — which no crash of this writer
  can produce — raises :class:`JournalCorruption` loudly.

The journal itself is order-preserving but deliberately dumb: the
state-machine semantics (idempotence, lease arbitration) live in
:mod:`repro.service.lease`, which is what makes replaying a journal —
or replaying it twice, or replaying a prefix — safe.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List

from repro.ioutil import fsync_directory

try:  # pragma: no cover - fcntl exists everywhere we support
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no locking)
    fcntl = None  # type: ignore[assignment]

#: length of the hex checksum prefix on every journal line
_SUM_LEN = 16

#: the one record encoder (``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` on every call)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class JournalCorruption(Exception):
    """A non-tail journal record failed validation (see module doc)."""


def record_line(record: Dict[str, Any]) -> bytes:
    """Encode one record as a checksummed journal line."""
    payload = _ENCODER.encode(record).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()[:_SUM_LEN]
    return digest.encode("ascii") + b" " + payload + b"\n"


def parse_line(line: bytes) -> Dict[str, Any]:
    """Decode and validate one journal line; raises ValueError on damage."""
    if len(line) < _SUM_LEN + 2 or line[_SUM_LEN : _SUM_LEN + 1] != b" ":
        raise ValueError("malformed journal line")
    digest, payload = line[:_SUM_LEN], line[_SUM_LEN + 1 :]
    if hashlib.sha256(payload).hexdigest()[:_SUM_LEN].encode() != digest:
        raise ValueError("journal record checksum mismatch")
    record = json.loads(payload)
    if not isinstance(record, dict):
        raise ValueError("journal record is not an object")
    return record


@contextmanager
def locked(lock_path: Path):
    """Exclusive advisory lock scoped to the ``with`` block.

    Serializes the read-decide-append critical sections of every queue
    operation across processes sharing the directory.  On platforms
    without ``fcntl`` the lock degrades to a no-op (single-writer use
    still works; the journal's per-record checksums still hold).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except FileNotFoundError:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        # closing releases the flock
        os.close(fd)


class Journal:
    """One append-only checksummed record log (see module doc).

    Parameters
    ----------
    path:
        The journal file.  The sidecar ``<path>.lock`` file carries the
        cross-process flock; both live in the sweep directory.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        #: set by the last :meth:`replay`: a damaged/incomplete final
        #: record was dropped (the fingerprint of an interrupted append)
        self.truncated_tail = False

    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------- writing
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (exclusive lock + single write + fsync)."""
        with locked(self.lock_path):
            self._append_unlocked([record])

    def append_many(self, records: List[Dict[str, Any]]) -> None:
        """Durably append several records under one lock acquisition."""
        if not records:
            return
        with locked(self.lock_path):
            self._append_unlocked(records)

    def _append_unlocked(self, records: List[Dict[str, Any]]) -> None:
        data = b"".join(record_line(r) for r in records)
        flags = os.O_WRONLY | os.O_APPEND
        try:
            fd = os.open(self.path, flags)
            first_write = False
        except FileNotFoundError:
            # the first record creates the file (and its directory);
            # the new directory entry is made durable below
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags | os.O_CREAT, 0o644)
            first_write = True
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        if first_write:
            fsync_directory(self.path.parent)

    # ------------------------------------------------------------- reading
    def replay(self) -> List[Dict[str, Any]]:
        """Every valid record, in append order.

        Tolerates exactly the damage a crash can cause: a final record
        that is incomplete (no newline) or checksum-corrupt is dropped
        and :attr:`truncated_tail` is set.  Damage anywhere *before* the
        tail raises :class:`JournalCorruption` — that is bit rot or a
        foreign writer, and silently skipping records would let the
        state machine resurrect work that was already accounted for.
        """
        self.truncated_tail = False
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        records: List[Dict[str, Any]] = []
        lines = raw.split(b"\n")
        # a well-formed file ends with a newline, so the final split
        # element is empty; anything else is an interrupted append
        complete, tail = lines[:-1], lines[-1]
        if tail:
            self.truncated_tail = True
        for i, line in enumerate(complete):
            try:
                records.append(parse_line(line))
            except ValueError as exc:
                if i == len(complete) - 1:
                    # damaged final *complete* line: an append that was
                    # cut inside the line but after a stray newline, or
                    # a torn sector at the end — still tail damage
                    self.truncated_tail = True
                    break
                raise JournalCorruption(
                    f"{self.path}: record {i + 1}/{len(complete)} is "
                    f"damaged ({exc}); refusing to replay past it"
                ) from exc
        return records

    def _rewrite_unlocked(self, records: List[Dict[str, Any]]) -> None:
        """Replace the journal's contents (tmp + fsync + rename).

        Caller must hold the journal lock.  Readers racing the rename
        see either the old or the new journal, never a mixture.
        """
        import tempfile

        data = b"".join(record_line(r) for r in records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".jtmp")
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_directory(self.path.parent)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.replay())

    def __len__(self) -> int:
        return len(self.replay())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({str(self.path)!r})"


def atomic_rewrite(journal: Journal, records: List[Dict[str, Any]]) -> None:
    """Replace a journal's contents atomically (tmp + fsync + rename).

    Used for compaction; readers racing the rename see either the old
    or the new journal, never a mixture.
    """
    with locked(journal.lock_path):
        journal._rewrite_unlocked(records)
