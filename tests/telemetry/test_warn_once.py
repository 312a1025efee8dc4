"""Tests for the shared warn-once degrade latch and its two owners
(result cache, run ledger)."""

import logging
import sqlite3

from repro.experiments.cache import ResultCache
from repro.telemetry._warn_once import WarnOnce
from repro.telemetry.ledger import RunLedger

from tests.telemetry.test_ledger import make_result


class TestWarnOnce:
    def test_warns_once_counts_all(self, caplog):
        logger = logging.getLogger("test.warn_once")
        latch = WarnOnce(logger, "channel broke writing %s (%s)")
        with caplog.at_level(logging.WARNING, logger="test.warn_once"):
            latch.note("/a", "disk full")
            latch.note("/a", "disk full")
            latch.note("/b", "disk full")
        assert latch.count == 3
        assert len(caplog.records) == 1
        assert "channel broke writing /a (disk full)" in caplog.text


class TestCacheDegrade:
    def test_io_errors_warn_once_but_count(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path / "cache"))
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.cache"):
            cache._note_io_error("write", "/x", OSError("disk full"))
            cache._note_io_error("read", "/y", OSError("disk full"))
        assert cache.n_io_errors == 2
        assert len(caplog.records) == 1
        assert "continuing without caching" in caplog.text


class TestLedgerDegrade:
    def test_record_returns_sentinel_and_warns_once(self, tmp_path,
                                                    caplog):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            # Simulate the disk dying under a live ledger.
            ledger._conn.close()
            ledger._conn = sqlite3.connect(path)
            ledger._conn.execute("PRAGMA query_only = 1")
            with caplog.at_level(logging.WARNING,
                                 logger="repro.telemetry.ledger"):
                first = ledger.record(make_result(), trace="azure", seed=0)
                second = ledger.record(make_result(), trace="azure", seed=1)
        assert first == -1 and second == -1
        assert len(caplog.records) == 1
        assert "not recorded" in caplog.text

    def test_healthy_record_still_returns_row_id(self, tmp_path):
        with RunLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            run_id = ledger.record(make_result(), trace="azure", seed=0)
            assert run_id >= 1
            assert not ledger._warn_write.warned
