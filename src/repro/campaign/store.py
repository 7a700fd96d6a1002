"""Persistent campaign result stores: append-only JSONL, atomic appends.

Two store kinds share one primitive file format — newline-delimited JSON,
no third-party dependencies, greppable and diffable:

**Exclusive stores** (:class:`ResultStore`) hold one campaign's results.
Line 1 is the **campaign manifest**: ``{"kind": "campaign-manifest",
"version": 1, "campaign": <name>, "campaign_hash": <hash>}``.  The hash
fingerprints the expanded grid (see :mod:`repro.campaign.planner`), so
the store can only be appended to by the campaign that created it —
resuming with an edited spec fails loudly instead of mixing
incompatible cells.

**Shared stores** (:class:`SharedResultStore`) hold one *cell pool*
serving many campaigns.  Line 1 is ``{"kind": "shared-store-manifest",
"version": 1}``; the file then interleaves cell records with
**campaign registrations** — ``{"kind": "campaign", "campaign": <name>,
"campaign_hash": <hash>, "cells": [<sorted cell ids>]}`` — one per
campaign that has run against the pool (re-registering a name with a new
grid hash supersedes the old registration).  Because cell ids are
content addresses, a second campaign whose grid overlaps the pool finds
its shared cells already present and recomputes only the set
difference: cross-campaign dedup falls out of content addressing.

Either way, every cell line is one **cell record**: ``{"kind": "cell",
"cell_id": ..., "index": ..., "coordinates": {...}, "status":
"ok" | "na" | "error", ...}`` with the serialised
:class:`~repro.engine.experiment.ExperimentResult` under ``"result"``
for ``ok`` cells, the infeasibility reason under ``"reason"`` for
``na`` cells, and the failure message under ``"error"`` for ``error``
cells.

Atomicity and crash recovery
----------------------------

Appends are atomic at record granularity and durable per **group**.
Outside a group, ``append_cell`` writes its record as a single
``os.write`` of one complete line on an ``O_APPEND`` descriptor and
``fsync``-s it before returning.  Inside a :meth:`_BaseStore.group_commit`
block, ``append_cell`` only buffers the line; closing the block writes
every buffered line with one ``os.write`` and one ``fsync``.  The
campaign scheduler opens one group per drain wake (see
:mod:`repro.campaign.executor`), so a run of cheap ``n/a`` verdicts, or
every record a worker pool finished while the drain was busy, costs one
``fsync`` instead of one each.  ``O_APPEND`` plus one ``write`` of
complete lines is what makes **concurrent appenders** safe: parallel
cell executors in one process (serialised by the store's lock) and
independent processes sharing one pool file can interleave only at line
granularity, never inside a record.

A crash can lose the records of the group in flight — the records
buffered since the last ``fsync``, whose progress lines have not been
printed yet — and never corrupts a finished one.  If the process dies
mid-write, the file ends in a torn (unparseable or unterminated) tail
line, possibly after some complete lines of the torn group; ``open``
keeps every complete line, truncates the store back to the last one, and
resumes from there.  Records are keyed by content-addressed ``cell_id``,
so replaying a lost cell appends an identical record and the folded view
of the store is unchanged — which is what makes interrupted-and-resumed
campaigns render byte-identical reports.

Record order on disk is **not** part of the contract: a parallel
executor appends cells in completion order, which may differ run to run.
Every consumer folds the record *set* — ``cell_records`` returns records
keyed and ordered by sorted ``cell_id``, and reports look cells up by id
in plan order — so two stores holding the same records in any order are
equivalent (the fold-equivalence restatement of the resume pin, see
``docs/invariants.md``).

Compaction
----------

:func:`compact_store` rewrites a store in canonical order — manifest,
then (shared stores) the latest registration per campaign sorted by
name, then one record per live cell id sorted by id — dropping
duplicate records, superseded registrations, torn tails, and (shared
stores) orphaned cells no registered campaign references.  The rewrite
is crash-safe: the canonical bytes go to a temporary file in the same
directory, flushed and ``fsync``-ed, then ``os.replace``-d over the
store, so a crash leaves either the old file or the new one, never a
mix.  Compaction is idempotent (``compact(compact(s)) == compact(s)``
byte for byte) and invisible to folds: the record set is preserved, so
reports render byte-identically before and after.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

MANIFEST_KIND = "campaign-manifest"
SHARED_MANIFEST_KIND = "shared-store-manifest"
CAMPAIGN_KIND = "campaign"
CELL_KIND = "cell"
STORE_VERSION = 1

#: The byte prefixes a torn manifest line is recognised by (the
#: ``sort_keys`` JSON dumps of the two manifest kinds).  A torn first
#: line matching neither is a foreign file and is never overwritten.
_EXCLUSIVE_MANIFEST_PREFIX = b'{"campaign'
_SHARED_MANIFEST_PREFIX = b'{"kind": "shared-store-manifest"'


class StoreError(Exception):
    """The store file is missing, corrupt, or belongs to another campaign."""


def _read_lines(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse the store, tolerating a torn tail.

    Returns ``(records, good_size)`` where ``good_size`` is the byte offset
    just past the last complete record — the truncation point for recovery.
    A torn line anywhere but the tail is corruption and raises.
    """
    records: List[Dict[str, Any]] = []
    good_size = 0
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    for line in data.splitlines(keepends=True):
        end = offset + len(line)
        stripped = line.strip()
        if stripped:
            try:
                record = json.loads(stripped.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                if end != len(data):
                    raise StoreError(
                        f"store {path!r} is corrupt: unparseable record at byte "
                        f"{offset} is not the torn tail of an interrupted write")
                return records, good_size  # torn tail: recoverable
            if not line.endswith(b"\n") and end == len(data):
                # Complete JSON but no terminator: the write was cut exactly
                # at the payload boundary.  Treat as torn — the record will
                # be regenerated identically on resume.
                return records, good_size
            records.append(record)
            good_size = end
        offset = end
    return records, good_size


def _record_line(record: Dict[str, Any]) -> bytes:
    """The canonical serialised form of one record: one JSON line."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _append_lines(path: str, data: bytes) -> None:
    """Append complete record lines: a single fsync'd ``os.write``.

    ``O_APPEND`` makes the kernel serialise concurrent appenders at write
    granularity, so two processes sharing a pool file can interleave only
    whole lines.  Going through ``os.write`` (rather than buffered file
    objects) keeps the write a single syscall — and gives the
    fault-injection tests a seam to tear it mid-record.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        while data:
            written = os.write(fd, data)
            data = data[written:]
        os.fsync(fd)
    finally:
        os.close(fd)


class _BaseStore:
    """State and record plumbing shared by the exclusive and shared stores."""

    def __init__(self, path: str, manifest: Dict[str, Any],
                 cell_records: Dict[str, Dict[str, Any]]) -> None:
        self.path = path
        self.manifest = manifest
        self._cells = cell_records
        #: Serialises in-process appenders (the campaign scheduler appends
        #: from its draining thread, but library callers need not).
        self._lock = threading.Lock()
        #: Lines buffered by the open :meth:`group_commit` block, if any.
        self._group: Optional[List[bytes]] = None

    # -- reading ----------------------------------------------------------------

    def completed_ids(self) -> set:
        """Cell ids with a persisted record (any status)."""
        return set(self._cells)

    def record_for(self, cell_id: str) -> Optional[Dict[str, Any]]:
        return self._cells.get(cell_id)

    @property
    def cell_records(self) -> Dict[str, Dict[str, Any]]:
        """Records keyed by cell id, **ordered by sorted cell id**.

        Append order tracks execution order, which a pooled drain is
        allowed to permute — so the iteration order handed to folds is
        normalised here, making every downstream consumer independent of
        completion order by construction.
        """
        return {cell_id: self._cells[cell_id]
                for cell_id in sorted(self._cells)}

    # -- writing ----------------------------------------------------------------

    def append_cell(self, record: Dict[str, Any]) -> None:
        """Persist one finished cell: a single flushed, fsync-ed line.

        Inside a :meth:`group_commit` block the line is buffered instead
        and reaches disk when the block closes.  Either way the record is
        visible to :meth:`record_for` at once.
        """
        if record.get("kind") != CELL_KIND or "cell_id" not in record:
            raise StoreError("cell records need kind='cell' and a cell_id")
        line = _record_line(record)
        with self._lock:
            if self._group is None:
                _append_lines(self.path, line)
            else:
                self._group.append(line)
            self._cells[record["cell_id"]] = record

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Buffer every :meth:`append_cell` made inside the block.

        On exit — normal or not — the buffered lines go out as one
        ``os.write`` of complete lines and one ``fsync``; a block that
        appended nothing writes nothing.  Blocks do not nest: a nested
        block would hide the outer block's ``fsync`` from whoever closes
        the inner one.
        """
        with self._lock:
            if self._group is not None:
                raise StoreError("group_commit blocks do not nest")
            self._group = []
        try:
            yield
        finally:
            with self._lock:
                lines, self._group = self._group, None
                if lines:
                    _append_lines(self.path, b"".join(lines))


class ResultStore(_BaseStore):
    """Append-only JSONL store bound to one campaign's grid."""

    # -- opening ----------------------------------------------------------------

    @classmethod
    def create(cls, path: str, campaign_name: str, campaign_hash: str) -> "ResultStore":
        """Create a fresh store (the file must not already hold records)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "x", encoding="utf-8") as handle:
            manifest = cls._write_manifest(handle, campaign_name, campaign_hash)
        return cls(path, manifest, {})

    @staticmethod
    def _write_manifest(handle, campaign_name: str, campaign_hash: str) -> Dict[str, Any]:
        manifest = {
            "kind": MANIFEST_KIND,
            "version": STORE_VERSION,
            "campaign": campaign_name,
            "campaign_hash": campaign_hash,
        }
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return manifest

    @classmethod
    def open(cls, path: str, campaign_name: str, campaign_hash: str, *,
             recover: bool = True) -> "ResultStore":
        """Open an existing store, recover torn tails, verify the fingerprint.

        ``recover=False`` makes the open strictly read-only: torn tails are
        still tolerated (skipped) but nothing is written back — the mode
        for ``repro campaign status``/``report``, which must never claim or
        repair a file.  Recovery writes happen only on ``run``/``resume``
        opens.
        """
        if not os.path.exists(path):
            raise StoreError(f"no result store at {path!r}; run the campaign first")
        records, good_size = _read_lines(path)
        if not records:
            # No complete record at all: either an empty file or a manifest
            # line torn by a crash during create().  Nothing is lost (no
            # cell had been persisted), so re-initialise in place — but only
            # if the torn bytes are recognisably our own manifest; anything
            # else is not a campaign store and must not be overwritten.
            with open(path, "rb") as handle:
                leftover = handle.read()
            if not recover or (leftover and not leftover.startswith(
                    _EXCLUSIVE_MANIFEST_PREFIX)):
                raise StoreError(f"store {path!r} has no campaign manifest line")
            with open(path, "w", encoding="utf-8") as handle:
                manifest = cls._write_manifest(handle, campaign_name, campaign_hash)
            return cls(path, manifest, {})
        if records[0].get("kind") == SHARED_MANIFEST_KIND:
            raise StoreError(
                f"store {path!r} is a shared multi-campaign store; open it "
                "with SharedResultStore (the CLI auto-detects this)")
        if records[0].get("kind") != MANIFEST_KIND:
            raise StoreError(f"store {path!r} has no campaign manifest line")
        manifest = records[0]
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"store {path!r} is version {manifest.get('version')!r}; "
                f"this build reads version {STORE_VERSION}")
        if manifest.get("campaign_hash") != campaign_hash:
            raise StoreError(
                f"store {path!r} belongs to campaign {manifest.get('campaign')!r} "
                f"with grid hash {manifest.get('campaign_hash')}, not to "
                f"{campaign_name!r} with grid hash {campaign_hash}; "
                "the campaign spec changed since this store was written")
        if recover and good_size < os.path.getsize(path):
            # Torn tail from an interrupted write: truncate back to the last
            # complete record so future appends start on a clean boundary.
            with open(path, "r+b") as handle:
                handle.truncate(good_size)
        cells: Dict[str, Dict[str, Any]] = {}
        for record in records[1:]:
            if record.get("kind") != CELL_KIND:
                raise StoreError(
                    f"store {path!r} holds an unknown record kind "
                    f"{record.get('kind')!r}")
            cells[record["cell_id"]] = record
        return cls(path, manifest, cells)

    @classmethod
    def open_or_create(cls, path: str, campaign_name: str,
                       campaign_hash: str) -> "ResultStore":
        if os.path.exists(path):
            return cls.open(path, campaign_name, campaign_hash)
        return cls.create(path, campaign_name, campaign_hash)


class SharedResultStore(_BaseStore):
    """One content-addressed cell pool serving many campaigns.

    The pool is **keyed by cell id only**: any campaign may append, and a
    campaign whose grid overlaps cells already in the pool (from an
    earlier campaign, another user, or itself) skips them instead of
    recomputing.  Per-campaign membership lives in registration records
    layered over the pool — the latest registration per campaign name
    wins, and compaction drops cells no registered campaign references.
    """

    def __init__(self, path: str, manifest: Dict[str, Any],
                 cell_records: Dict[str, Dict[str, Any]],
                 registrations: Dict[str, Dict[str, Any]]) -> None:
        super().__init__(path, manifest, cell_records)
        self._registrations = registrations

    # -- opening ----------------------------------------------------------------

    @classmethod
    def create(cls, path: str) -> "SharedResultStore":
        """Create a fresh shared pool (the file must not already exist)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "x", encoding="utf-8") as handle:
            manifest = cls._write_manifest(handle)
        return cls(path, manifest, {}, {})

    @staticmethod
    def _write_manifest(handle) -> Dict[str, Any]:
        manifest = {"kind": SHARED_MANIFEST_KIND, "version": STORE_VERSION}
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return manifest

    @classmethod
    def open(cls, path: str, *, recover: bool = True) -> "SharedResultStore":
        """Open an existing pool; recover torn tails unless read-only."""
        if not os.path.exists(path):
            raise StoreError(f"no result store at {path!r}; run the campaign first")
        records, good_size = _read_lines(path)
        if not records:
            with open(path, "rb") as handle:
                leftover = handle.read()
            if not recover or (leftover and not leftover.startswith(
                    _SHARED_MANIFEST_PREFIX)):
                raise StoreError(f"store {path!r} has no campaign manifest line")
            with open(path, "w", encoding="utf-8") as handle:
                manifest = cls._write_manifest(handle)
            return cls(path, manifest, {}, {})
        if records[0].get("kind") == MANIFEST_KIND:
            raise StoreError(
                f"store {path!r} is an exclusive single-campaign store, not "
                "a shared pool; drop --shared or pick another --store path")
        if records[0].get("kind") != SHARED_MANIFEST_KIND:
            raise StoreError(f"store {path!r} has no campaign manifest line")
        manifest = records[0]
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"store {path!r} is version {manifest.get('version')!r}; "
                f"this build reads version {STORE_VERSION}")
        if recover and good_size < os.path.getsize(path):
            with open(path, "r+b") as handle:
                handle.truncate(good_size)
        cells: Dict[str, Dict[str, Any]] = {}
        registrations: Dict[str, Dict[str, Any]] = {}
        for record in records[1:]:
            kind = record.get("kind")
            if kind == CELL_KIND:
                cells[record["cell_id"]] = record
            elif kind == CAMPAIGN_KIND:
                registrations[record["campaign"]] = record  # latest wins
            else:
                raise StoreError(
                    f"store {path!r} holds an unknown record kind {kind!r}")
        return cls(path, manifest, cells, registrations)

    @classmethod
    def open_or_create(cls, path: str) -> "SharedResultStore":
        if os.path.exists(path):
            return cls.open(path)
        return cls.create(path)

    # -- campaign registrations --------------------------------------------------

    @property
    def registrations(self) -> Dict[str, Dict[str, Any]]:
        """Latest registration per campaign name, ordered by sorted name."""
        return {name: self._registrations[name]
                for name in sorted(self._registrations)}

    def registration_for(self, campaign_name: str) -> Optional[Dict[str, Any]]:
        return self._registrations.get(campaign_name)

    def register_campaign(self, campaign_name: str, campaign_hash: str,
                          cell_ids: List[str]) -> bool:
        """Bind a campaign's membership (its sorted cell-id set) to the pool.

        Idempotent: re-registering an identical (name, hash, cells) triple
        appends nothing.  A changed grid under the same name appends a new
        registration that **supersedes** the old one — previous cells the
        new grid no longer references become orphans, reclaimed by
        :func:`compact_store`.  Returns ``True`` when a record was written.
        """
        record = {
            "kind": CAMPAIGN_KIND,
            "campaign": campaign_name,
            "campaign_hash": campaign_hash,
            "cells": sorted(cell_ids),
        }
        existing = self._registrations.get(campaign_name)
        if existing is not None \
                and existing.get("campaign_hash") == campaign_hash \
                and existing.get("cells") == record["cells"]:
            return False
        with self._lock:
            _append_lines(self.path, _record_line(record))
            self._registrations[campaign_name] = record
        return True

    def referenced_ids(self) -> set:
        """Cell ids referenced by at least one registered campaign."""
        referenced = set()
        for name in sorted(self._registrations):
            referenced.update(self._registrations[name].get("cells", []))
        return referenced

    def orphaned_ids(self) -> set:
        """Persisted cells no registered campaign references."""
        return self.completed_ids() - self.referenced_ids()


def store_kind(path: str) -> str:
    """``"exclusive"`` or ``"shared"``, from an existing store's manifest.

    A store whose manifest line itself is torn is classified by its byte
    prefix (each kind's recovery path can then re-initialise it); a file
    that is neither raises, so foreign files are never claimed.
    """
    if not os.path.exists(path):
        raise StoreError(f"no result store at {path!r}; run the campaign first")
    records, _ = _read_lines(path)
    if records:
        kind = records[0].get("kind")
        if kind == MANIFEST_KIND:
            return "exclusive"
        if kind == SHARED_MANIFEST_KIND:
            return "shared"
        raise StoreError(f"store {path!r} has no campaign manifest line")
    with open(path, "rb") as handle:
        leftover = handle.read()
    if leftover.startswith(_SHARED_MANIFEST_PREFIX):
        return "shared"
    if not leftover or leftover.startswith(_EXCLUSIVE_MANIFEST_PREFIX):
        return "exclusive"
    raise StoreError(f"store {path!r} has no campaign manifest line")


@dataclass(frozen=True)
class CompactionStats:
    """What :func:`compact_store` kept and reclaimed."""

    kind: str
    cells_kept: int
    duplicates_dropped: int
    orphans_dropped: int
    registrations_dropped: int
    bytes_before: int
    bytes_after: int

    def summary(self) -> str:
        parts = [f"{self.cells_kept} cells kept"]
        if self.duplicates_dropped:
            parts.append(f"{self.duplicates_dropped} duplicate records dropped")
        if self.orphans_dropped:
            parts.append(f"{self.orphans_dropped} orphaned cells dropped")
        if self.registrations_dropped:
            parts.append(
                f"{self.registrations_dropped} superseded registrations dropped")
        parts.append(f"{self.bytes_before} -> {self.bytes_after} bytes")
        return ", ".join(parts)


def compact_store(path: str) -> CompactionStats:
    """Rewrite a store in canonical order, dropping dead records.

    Works on both store kinds (dispatching on the manifest): the output is
    the manifest line, then — for shared pools — the latest registration
    per campaign (sorted by name), then one record per live cell id
    (sorted by id).  Dropped: duplicate cell records (later appends win,
    as on load), superseded registrations, torn tails, and — shared pools
    only — orphaned cells referenced by no registered campaign.

    Crash-safe via write-temp-then-rename: the canonical bytes are written
    to ``<path>.compact.tmp`` in the same directory, flushed and fsync'd,
    then atomically ``os.replace``-d over the store.  Idempotent — the
    output is a pure function of the record set, so compacting twice
    yields byte-identical files — and fold-invisible: the record set (and
    hence every report) is unchanged.
    """
    kind = store_kind(path)
    records, _ = _read_lines(path)
    if not records:
        raise StoreError(
            f"store {path!r} has no complete manifest line; run the campaign "
            "(which recovers it) before compacting")
    manifest = records[0]

    cells: Dict[str, Dict[str, Any]] = {}
    registrations: Dict[str, Dict[str, Any]] = {}
    duplicates = 0
    superseded = 0
    for record in records[1:]:
        record_kind = record.get("kind")
        if record_kind == CELL_KIND:
            if record["cell_id"] in cells:
                duplicates += 1
            cells[record["cell_id"]] = record
        elif record_kind == CAMPAIGN_KIND and kind == "shared":
            if record["campaign"] in registrations:
                superseded += 1
            registrations[record["campaign"]] = record
        else:
            raise StoreError(
                f"store {path!r} holds an unknown record kind {record_kind!r}")

    orphans = 0
    if kind == "shared":
        referenced = set()
        for name in sorted(registrations):
            referenced.update(registrations[name].get("cells", []))
        live_ids = [cell_id for cell_id in sorted(cells)
                    if cell_id in referenced]
        orphans = len(cells) - len(live_ids)
    else:
        live_ids = sorted(cells)

    lines: List[bytes] = [_record_line(manifest)]
    lines.extend(_record_line(registrations[name])
                 for name in sorted(registrations))
    lines.extend(_record_line(cells[cell_id]) for cell_id in live_ids)

    bytes_before = os.path.getsize(path)
    temp_path = path + ".compact.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(b"".join(lines))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    return CompactionStats(
        kind=kind,
        cells_kept=len(live_ids),
        duplicates_dropped=duplicates,
        orphans_dropped=orphans,
        registrations_dropped=superseded,
        bytes_before=bytes_before,
        bytes_after=os.path.getsize(path),
    )


def _fsync_directory(directory: str) -> None:
    """Flush a rename to the directory entry (best effort; not all
    platforms allow fsync on directory descriptors)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
