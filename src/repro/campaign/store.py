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

Reading and crash recovery
--------------------------

One private loader, ``_load``, decodes the format for both ``open``s,
:func:`open_store`, :func:`store_kind` and :func:`compact_store`.  It
reads the file once, keeps every complete line before a torn tail,
classifies the store kind from the manifest (a manifest line torn during
``create`` by its byte prefix), checks the version, and folds the records
latest-wins by cell id and campaign name.  It writes nothing: only a
recovering open truncates a torn tail or re-initialises a torn manifest.

Appends are atomic at record granularity and durable per **group**.
Outside a group, ``append_cell`` writes its record as a single
``os.write`` of one complete line on an ``O_APPEND`` descriptor and
``fsync``-s it before returning.  Inside a :meth:`_BaseStore.group_commit`
block, ``append_cell`` only buffers the line; closing the block writes
every buffered line with one ``os.write`` and one ``fsync``.  The
campaign drain opens one group per drain wake (see
:mod:`repro.campaign.executor`), so a run of cheap ``n/a`` verdicts, or
every record a worker pool finished while the drain was busy, costs one
``fsync`` instead of one each.  ``O_APPEND`` plus one ``write`` of
complete lines is what makes **concurrent appenders** safe: parallel
cell executors in one process (serialised by the store's lock) and
independent processes sharing one pool file can interleave only at line
granularity, never inside a record.

A crash can lose the records of the group in flight — the records
buffered since the last ``fsync``, whose progress lines have not been
printed yet — and never corrupts a finished one: the next recovering
open keeps the complete lines of a torn group and drops its torn tail.
Records are keyed by content-addressed ``cell_id``, so replaying a lost
cell appends an identical record and the folded view of the store is
unchanged — which is what makes interrupted-and-resumed campaigns render
byte-identical reports.

Record order on disk is **not** part of the contract: a parallel
executor appends cells in completion order, which may differ run to run.
Every consumer folds the record *set* — ``cell_records`` returns records
keyed and ordered by sorted ``cell_id``, and reports look cells up by id
in plan order — so two stores holding the same records in any order are
equivalent (the fold-equivalence restatement of the resume pin, see
``docs/invariants.md``).  :func:`compact_store` rewrites a store in that
canonical order, atomically, dropping every record no fold reads.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

MANIFEST_KIND = "campaign-manifest"
SHARED_MANIFEST_KIND = "shared-store-manifest"
CAMPAIGN_KIND = "campaign"
CELL_KIND = "cell"
STORE_VERSION = 1

#: Store kind by manifest ``kind``.
_STORE_KINDS = {MANIFEST_KIND: "exclusive", SHARED_MANIFEST_KIND: "shared"}
#: The byte prefixes a torn manifest line is recognised by (the
#: ``sort_keys`` JSON dumps of the two manifest kinds).  A torn first
#: line matching neither is a foreign file and is never overwritten.
_MANIFEST_PREFIXES = {"exclusive": b'{"campaign',
                      "shared": b'{"kind": "shared-store-manifest"'}
#: What an opener of the other kind is told about a store of each kind.
_WRONG_KIND = {
    "exclusive": "is an exclusive single-campaign store, not a shared "
                 "pool; drop --shared or pick another --store path",
    "shared": "is a shared multi-campaign store; open it with "
              "SharedResultStore (the CLI auto-detects this)",
}


class StoreError(Exception):
    """The store file is missing, corrupt, or belongs to another campaign."""


@dataclass
class _StoreFile:
    """One read of a store file, classified and folded (see ``_load``)."""

    path: str
    kind: Optional[str]  # None: an empty file, which either kind may claim
    manifest: Optional[Dict[str, Any]]  # None: the manifest line is torn
    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    registrations: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    duplicates: int = 0  # cell records a later one replaced
    superseded: int = 0  # registrations a later one replaced
    good_size: int = 0  # just past the last complete record
    size: int = 0


def _load(path: str) -> _StoreFile:
    """Read, classify and fold a store file, tolerating a torn tail.

    A torn line anywhere but the tail is corruption and raises, as do a
    foreign file, another store version and an unknown record kind.
    """
    if not os.path.exists(path):
        raise StoreError(f"no result store at {path!r}; run the campaign first")
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[Dict[str, Any]] = []
    stored = _StoreFile(path, None, None, size=len(data))
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
                break  # torn tail: recoverable
            if not line.endswith(b"\n") and end == len(data):
                # Complete JSON but no terminator: the write was cut exactly
                # at the payload boundary.  Treat as torn — the record will
                # be regenerated identically on resume.
                break
            records.append(record)
            stored.good_size = end
        offset = end
    if not records:
        # No complete record at all: either an empty file or a manifest
        # line torn by a crash during create().  The torn bytes are
        # classified by prefix; anything else is not a campaign store.
        for kind, prefix in _MANIFEST_PREFIXES.items():
            if data.startswith(prefix):
                stored.kind = kind
        if data and stored.kind is None:
            raise StoreError(f"store {path!r} has no campaign manifest line")
        return stored
    manifest = stored.manifest = records[0]
    stored.kind = _STORE_KINDS.get(manifest.get("kind"))
    if stored.kind is None:
        raise StoreError(f"store {path!r} has no campaign manifest line")
    if manifest.get("version") != STORE_VERSION:
        raise StoreError(
            f"store {path!r} is version {manifest.get('version')!r}; "
            f"this build reads version {STORE_VERSION}")
    for record in records[1:]:
        kind = record.get("kind")
        if kind == CELL_KIND:
            stored.duplicates += record["cell_id"] in stored.cells
            stored.cells[record["cell_id"]] = record
        elif kind == CAMPAIGN_KIND and stored.kind == "shared":
            stored.superseded += record["campaign"] in stored.registrations
            stored.registrations[record["campaign"]] = record  # latest wins
        else:
            raise StoreError(
                f"store {path!r} holds an unknown record kind {kind!r}")
    return stored


def _manifest(kind: str, **campaign: str) -> Dict[str, Any]:
    return {"kind": kind, "version": STORE_VERSION, **campaign}


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

    #: The store kind this class opens: ``"exclusive"`` or ``"shared"``.
    KIND = ""

    def __init__(self, stored: _StoreFile) -> None:
        self.path = stored.path
        self.manifest = stored.manifest
        self._cells = stored.cells
        #: Serialises in-process appenders (the campaign drain appends
        #: from its draining thread, but library callers need not).
        self._lock = threading.Lock()
        #: Lines buffered by the open :meth:`group_commit` block, if any.
        self._group: Optional[List[bytes]] = None

    # -- opening ----------------------------------------------------------------

    @classmethod
    def _write_manifest(cls, path: str, manifest: Dict[str, Any],
                        mode: str = "xb") -> Any:
        """Start the file with ``manifest``, fsync-ed, and open it empty:
        mode ``"xb"`` creates a store, ``"wb"`` re-initialises a torn one."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, mode) as handle:
            handle.write(_record_line(manifest))
            handle.flush()
            os.fsync(handle.fileno())
        return cls(_StoreFile(path, cls.KIND, manifest))

    @classmethod
    def _open(cls, stored: _StoreFile, recover: bool,
              manifest: Dict[str, Any]) -> Any:
        """Open a loaded store file as this kind, recovering unless read-only.

        ``manifest`` is the one this opener creates.  A torn or empty
        manifest line is re-initialised to it — no cell had been persisted,
        so nothing is lost — but only by a recovering open, and only when
        the torn bytes are this kind's own manifest.  An exclusive store
        whose grid hash differs from it belongs to another campaign (a
        shared manifest has no hash).  A torn tail is truncated back to
        the last complete record, so appends start on a clean boundary.
        """
        path = stored.path
        if stored.manifest is None:
            if not recover or stored.kind not in (None, cls.KIND):
                raise StoreError(f"store {path!r} has no campaign manifest line")
            return cls._write_manifest(path, manifest, "wb")
        if stored.kind != cls.KIND:
            raise StoreError(f"store {path!r} {_WRONG_KIND[stored.kind]}")
        found = stored.manifest
        if found.get("campaign_hash") != manifest.get("campaign_hash"):
            raise StoreError(
                f"store {path!r} belongs to campaign {found.get('campaign')!r} "
                f"with grid hash {found.get('campaign_hash')}, not to "
                f"{manifest['campaign']!r} with grid hash "
                f"{manifest['campaign_hash']}; "
                "the campaign spec changed since this store was written")
        if recover and stored.good_size < stored.size:
            with open(path, "r+b") as handle:
                handle.truncate(stored.good_size)
        return cls(stored)

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

    KIND = "exclusive"

    # -- opening ----------------------------------------------------------------

    @classmethod
    def create(cls, path: str, campaign_name: str, campaign_hash: str) -> "ResultStore":
        """Create a fresh store (the file must not already hold records)."""
        return cls._write_manifest(path, _manifest(
            MANIFEST_KIND, campaign=campaign_name, campaign_hash=campaign_hash))

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
        return cls._open(_load(path), recover, _manifest(
            MANIFEST_KIND, campaign=campaign_name, campaign_hash=campaign_hash))


class SharedResultStore(_BaseStore):
    """One content-addressed cell pool serving many campaigns.

    The pool is **keyed by cell id only**: any campaign may append, and a
    campaign whose grid overlaps cells already in the pool (from an
    earlier campaign, another user, or itself) skips them instead of
    recomputing.  Per-campaign membership lives in registration records
    layered over the pool — the latest registration per campaign name
    wins, and compaction drops cells no registered campaign references.
    """

    KIND = "shared"

    def __init__(self, stored: _StoreFile) -> None:
        super().__init__(stored)
        self._registrations = stored.registrations

    # -- opening ----------------------------------------------------------------

    @classmethod
    def create(cls, path: str) -> "SharedResultStore":
        """Create a fresh shared pool (the file must not already exist)."""
        return cls._write_manifest(path, _manifest(SHARED_MANIFEST_KIND))

    @classmethod
    def open(cls, path: str, *, recover: bool = True) -> "SharedResultStore":
        """Open an existing pool; recover torn tails unless read-only."""
        return cls._open(_load(path), recover, _manifest(SHARED_MANIFEST_KIND))

    # -- campaign registrations --------------------------------------------------

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


def open_store(path: str, campaign_name: str, campaign_hash: str, *,
               recover: bool = True, shared: bool = False,
               ) -> Union[ResultStore, SharedResultStore]:
    """Open an existing store as the kind its manifest names, in one read.

    ``shared=True`` accepts only a shared pool; an empty file opens as an
    exclusive store otherwise.
    """
    stored = _load(path)
    if shared or stored.kind == "shared":
        return SharedResultStore._open(
            stored, recover, _manifest(SHARED_MANIFEST_KIND))
    return ResultStore._open(stored, recover, _manifest(
        MANIFEST_KIND, campaign=campaign_name, campaign_hash=campaign_hash))


def store_kind(path: str) -> str:
    """``"exclusive"`` or ``"shared"``, from an existing store's manifest.

    A store whose manifest line itself is torn is classified by its byte
    prefix (each kind's recovery path can then re-initialise it), and an
    empty file as exclusive; a file that is neither raises, so foreign
    files are never claimed.
    """
    return _load(path).kind or "exclusive"


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

    The output is the manifest line, then — for shared pools — the latest
    registration per campaign (sorted by name), then the latest record of
    each live cell id (sorted by id).  Dropped: duplicate cell records,
    superseded registrations, torn tails, and — shared pools only —
    orphaned cells referenced by no registered campaign.

    Crash-safe via write-temp-then-rename: the canonical bytes are written
    to ``<path>.compact.tmp`` in the same directory, fsync'd, then
    ``os.replace``-d over the store.  Idempotent (the output is a pure
    function of the record set) and invisible to every report.
    """
    stored = _load(path)
    if stored.manifest is None:
        raise StoreError(
            f"store {path!r} has no complete manifest line; run the campaign "
            "(which recovers it) before compacting")
    live_ids = sorted(stored.cells)
    if stored.kind == "shared":
        referenced = SharedResultStore(stored).referenced_ids()
        live_ids = [cell_id for cell_id in live_ids if cell_id in referenced]

    lines: List[bytes] = [_record_line(stored.manifest)]
    lines.extend(_record_line(stored.registrations[name])
                 for name in sorted(stored.registrations))
    lines.extend(_record_line(stored.cells[cell_id]) for cell_id in live_ids)
    data = b"".join(lines)

    temp_path = path + ".compact.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    return CompactionStats(
        kind=stored.kind,
        cells_kept=len(live_ids),
        duplicates_dropped=stored.duplicates,
        orphans_dropped=len(stored.cells) - len(live_ids),
        registrations_dropped=stored.superseded,
        bytes_before=stored.size,
        bytes_after=len(data),
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
