"""The store file format, pinned byte for byte, and how often it is read.

A resumed campaign renders a byte-identical report only because every open
of a store recovers torn tails and torn manifests the same way.  These
tests pin what that recovery and :func:`compact_store` leave on disk for
both store kinds, cover the shared pool's torn-manifest re-init, and
count the reads each open makes of the store file.
"""

from __future__ import annotations

import json

import pytest

import repro.campaign.store as store_module
from repro.campaign.store import (
    CompactionStats,
    ResultStore,
    SharedResultStore,
    StoreError,
    compact_store,
    open_store,
)
from repro.cli import main


def record(cell_id: str, status: str = "na") -> dict:
    body = {"kind": "cell", "cell_id": cell_id, "index": 0,
            "coordinates": {"population": 4, "model": "I3"}, "status": status}
    if status == "ok":
        body["result"] = {"runs": 2, "successes": 2}
    else:
        body["reason"] = "synthetic"
    return body


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def tear_tail(path: str) -> None:
    """Leave a record cut mid-write at the end of the file, as a crash does."""
    with open(path, "ab") as handle:
        handle.write(b'{"cell_id": "torn", "coordi')


def line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


EXCLUSIVE_MANIFEST = (b'{"campaign": "camp", "campaign_hash": "h1", '
                      b'"kind": "campaign-manifest", "version": 1}\n')
SHARED_MANIFEST = b'{"kind": "shared-store-manifest", "version": 1}\n'


def registration(name: str, grid_hash: str, cells) -> bytes:
    return line({"kind": "campaign", "campaign": name,
                 "campaign_hash": grid_hash, "cells": sorted(cells)})


# ---------------------------------------------------------------------------
# the on-disk format
# ---------------------------------------------------------------------------


class TestFormatPin:
    def test_exclusive_store_bytes(self, tmp_path):
        path = str(tmp_path / "solo.jsonl")
        store = ResultStore.create(path, "camp", "h1")
        store.append_cell(record("bbb", "ok"))
        with store.group_commit():
            store.append_cell(record("aaa"))
            store.append_cell(record("ccc"))
        store.append_cell(record("aaa", "ok"))  # a duplicate: latest wins
        tear_tail(path)
        reopened = ResultStore.open(path, "camp", "h1")
        reopened.append_cell(record("ddd"))
        assert file_bytes(path) == (
            EXCLUSIVE_MANIFEST
            + b'{"cell_id": "bbb", "coordinates": {"model": "I3", '
              b'"population": 4}, "index": 0, "kind": "cell", '
              b'"result": {"runs": 2, "successes": 2}, "status": "ok"}\n'
            + line(record("aaa")) + line(record("ccc"))
            + line(record("aaa", "ok")) + line(record("ddd")))
        assert ResultStore.open(path, "camp", "h1").cell_records == {
            "aaa": record("aaa", "ok"), "bbb": record("bbb", "ok"),
            "ccc": record("ccc"), "ddd": record("ddd")}

        tear_tail(path)
        stats = compact_store(path)
        assert file_bytes(path) == (
            EXCLUSIVE_MANIFEST + line(record("aaa", "ok"))
            + line(record("bbb", "ok")) + line(record("ccc"))
            + line(record("ddd")))
        assert stats == CompactionStats(
            kind="exclusive", cells_kept=4, duplicates_dropped=1,
            orphans_dropped=0, registrations_dropped=0,
            bytes_before=821, bytes_after=659)
        assert compact_store(path).bytes_after == 659

    def test_shared_pool_bytes(self, tmp_path):
        path = str(tmp_path / "pool.jsonl")
        pool = SharedResultStore.create(path)
        assert pool.register_campaign("one", "h1", ["bbb", "aaa"])
        pool.append_cell(record("aaa"))
        with pool.group_commit():
            pool.append_cell(record("bbb", "ok"))
            pool.append_cell(record("zzz"))
        assert pool.register_campaign("two", "h2", ["zzz"])
        assert pool.register_campaign("one", "h3", ["aaa"])  # supersedes h1
        pool.append_cell(record("aaa", "ok"))
        tear_tail(path)
        reopened = SharedResultStore.open(path)
        assert not reopened.register_campaign("one", "h3", ["aaa"])
        reopened.append_cell(record("ccc"))
        assert file_bytes(path) == (
            SHARED_MANIFEST + registration("one", "h1", ["aaa", "bbb"])
            + line(record("aaa")) + line(record("bbb", "ok"))
            + line(record("zzz")) + registration("two", "h2", ["zzz"])
            + registration("one", "h3", ["aaa"]) + line(record("aaa", "ok"))
            + line(record("ccc")))

        tear_tail(path)
        stats = compact_store(path)
        assert file_bytes(path) == (
            SHARED_MANIFEST + registration("one", "h3", ["aaa"])
            + registration("two", "h2", ["zzz"]) + line(record("aaa", "ok"))
            + line(record("zzz")))
        assert stats == CompactionStats(
            kind="shared", cells_kept=2, duplicates_dropped=1,
            orphans_dropped=2, registrations_dropped=1,
            bytes_before=1032, bytes_after=496)
        assert compact_store(path).bytes_after == 496


# ---------------------------------------------------------------------------
# a shared pool whose manifest line was torn by a crash during create()
# ---------------------------------------------------------------------------


TORN_SHARED_MANIFEST = b'{"kind": "shared-store-manifest", "ver'


class TestSharedTornManifest:
    @pytest.fixture
    def torn(self, tmp_path):
        path = str(tmp_path / "pool.jsonl")
        with open(path, "wb") as handle:
            handle.write(TORN_SHARED_MANIFEST)
        return path

    def test_recovering_open_reinitialises_it(self, torn):
        pool = SharedResultStore.open(torn)
        assert pool.completed_ids() == set()
        assert file_bytes(torn) == SHARED_MANIFEST
        pool.append_cell(record("aaa"))
        assert SharedResultStore.open(torn).completed_ids() == {"aaa"}

    def test_readonly_open_refuses_it_and_leaves_the_bytes(self, torn):
        with pytest.raises(StoreError, match="no campaign manifest line"):
            SharedResultStore.open(torn, recover=False)
        assert file_bytes(torn) == TORN_SHARED_MANIFEST

    def test_exclusive_open_refuses_it(self, torn):
        with pytest.raises(StoreError, match="no campaign manifest line"):
            ResultStore.open(torn, "camp", "h1")
        assert file_bytes(torn) == TORN_SHARED_MANIFEST

    def test_an_empty_file_opens_as_the_kind_asked_for(self, tmp_path):
        # An empty file is a manifest torn before its first byte: ``run
        # --shared`` claims it as a pool, a plain run as an exclusive store.
        path = str(tmp_path / "empty.jsonl")
        open(path, "wb").close()
        assert isinstance(open_store(path, "camp", "h1", shared=True),
                          SharedResultStore)
        assert file_bytes(path) == SHARED_MANIFEST
        open(path, "wb").close()
        assert isinstance(open_store(path, "camp", "h1"), ResultStore)
        assert file_bytes(path) == EXCLUSIVE_MANIFEST


# ---------------------------------------------------------------------------
# one read of the file per open
# ---------------------------------------------------------------------------


def count_reads(monkeypatch, path: str) -> list:
    """Record every ``open(path, "rb")`` the store module makes."""
    reads = []

    def counting(file, mode="r", *args, **kwargs):
        if file == path and mode == "rb":
            reads.append(file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", counting, raising=False)
    return reads


def tiny_campaign() -> dict:
    return {"name": "tiny", "base": {"protocol": "epidemic"},
            "axes": {"population": [4, 6]}, "runs": 1, "base_seed": 1,
            "max_steps": 5_000, "stability_window": 4}


class TestOneReadPerCall:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_campaign()), encoding="utf-8")
        return str(path)

    def test_exclusive_open(self, tmp_path, monkeypatch):
        path = str(tmp_path / "solo.jsonl")
        ResultStore.create(path, "camp", "h1").append_cell(record("aaa"))
        reads = count_reads(monkeypatch, path)
        ResultStore.open(path, "camp", "h1")
        assert len(reads) == 1

    def test_shared_open(self, tmp_path, monkeypatch):
        path = str(tmp_path / "pool.jsonl")
        SharedResultStore.create(path).append_cell(record("aaa"))
        reads = count_reads(monkeypatch, path)
        SharedResultStore.open(path)
        assert len(reads) == 1

    @pytest.mark.parametrize("shared", [False, True])
    def test_compact(self, tmp_path, monkeypatch, shared):
        path = str(tmp_path / "store.jsonl")
        store = (SharedResultStore.create(path) if shared
                 else ResultStore.create(path, "camp", "h1"))
        store.append_cell(record("aaa"))
        reads = count_reads(monkeypatch, path)
        compact_store(path)
        assert len(reads) == 1

    @pytest.mark.parametrize("shared", [False, True])
    def test_cli_status(self, tmp_path, monkeypatch, capsys, spec_path,
                        shared):
        path = str(tmp_path / "store.jsonl")
        run = ["campaign", "run", spec_path, "--store", path, "--quiet"]
        assert main(run + (["--shared"] if shared else [])) == 0
        capsys.readouterr()
        reads = count_reads(monkeypatch, path)
        assert main(["campaign", "status", spec_path, "--store", path]) == 0
        assert len(reads) == 1
        assert "tiny" in capsys.readouterr().out
