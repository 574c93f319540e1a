"""Tests for the operation journal and crash-recovery replay."""

import json

import pytest

from repro.control import Journal, JournalEntry, ReservationService
from repro.control.journal import JOURNAL_FORMAT
from repro.core import ConfigurationError, InvalidRequestError, Platform
from repro.schedulers import FractionOfMaxPolicy


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


class TestJournalEntry:
    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            JournalEntry(op="frobnicate", now=0.0, args={})

    def test_round_trip_dict(self):
        entry = JournalEntry(op="cancel", now=3.5, args={"rid": 7})
        again = JournalEntry.from_dict(entry.to_dict())
        assert again.op == "cancel"
        assert again.now == 3.5
        assert dict(again.args) == {"rid": 7}


class TestSerialisation:
    def test_jsonl_round_trip(self, platform):
        journal = Journal()
        ReservationService(platform, journal=journal).submit(
            ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0
        )
        text = journal.to_jsonl()
        again = Journal.from_jsonl(text)
        assert again.header == journal.header
        assert len(again) == 1
        assert again.entries[0].op == "submit"

    def test_header_first_line_has_format_tag(self, platform):
        journal = Journal()
        ReservationService(platform, journal=journal)
        first = json.loads(journal.to_jsonl().splitlines()[0])
        assert first["format"] == JOURNAL_FORMAT
        assert first["platform"] == platform.to_dict()

    def test_rejects_foreign_format(self):
        with pytest.raises(ConfigurationError):
            Journal.from_jsonl('{"format": "something-else/9"}\n')

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Journal.from_jsonl("")

    def test_file_backed_appends(self, platform, tmp_path):
        path = tmp_path / "ops.jsonl"
        journal = Journal(path=path)
        service = ReservationService(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        service.cancel(0, now=1.0)
        # every append hit the disk immediately: load without a save() call
        loaded = Journal.load(path)
        assert [e.op for e in loaded] == ["submit", "cancel"]
        assert loaded.header == journal.header

    def test_save_load_round_trip(self, platform, tmp_path):
        journal = Journal()
        service = ReservationService(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        path = tmp_path / "saved.jsonl"
        journal.save(path)
        assert Journal.load(path).to_jsonl() == journal.to_jsonl()


class TestReplay:
    def test_replay_requires_header(self):
        with pytest.raises(ConfigurationError):
            ReservationService.replay(Journal())

    def test_replay_rebuilds_identical_state(self, platform):
        journal = Journal()
        service = ReservationService(
            platform,
            policy=FractionOfMaxPolicy(0.5),
            backlog_limit=4,
            journal=journal,
        )
        service.submit(ingress=0, egress=0, volume=20_000.0, deadline=500.0, now=0.0)
        service.submit(ingress=0, egress=0, volume=10_000.0, deadline=120.0, now=1.0)
        service.submit_striped(sources=[0, 1], egress=1, volume=500.0, deadline=100.0, now=2.0)
        service.abort(0, now=10.0)
        service.degrade(side="egress", port=0, amount=100.0, start=20.0, end=40.0, now=20.0)
        service.cancel(1, now=25.0) if service.get(1).confirmed else None

        rebuilt = ReservationService.replay(journal)
        assert rebuilt.snapshot() == service.snapshot()
        assert rebuilt.policy.name == service.policy.name
        assert rebuilt.backlog_limit == 4

    def test_malformed_submit_leaves_no_state(self, platform):
        # Nothing is journaled for a submission that raises, so it must not
        # move the clock or take a rid: live and replayed state would split.
        journal = Journal()
        service = ReservationService(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        before = service.snapshot()
        with pytest.raises(InvalidRequestError):
            service.submit(ingress=0, egress=1, volume=-5.0, deadline=100.0, now=7.0)
        assert service.snapshot() == before
        with pytest.raises(ConfigurationError):  # the clock check still comes first
            service.submit(ingress=0, egress=1, volume=-5.0, deadline=100.0, now=-1.0)
        after = service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=9.0)
        assert after.rid == 1
        assert ReservationService.replay(journal).snapshot() == service.snapshot()

    @pytest.mark.parametrize("verb", ["cancel", "abort", "reshape"])
    def test_unknown_rid_leaves_no_state(self, platform, verb):
        # The rid is resolved before the clock moves, so a verb that raises
        # KeyError is as if it never happened: live equals replay after.
        journal = Journal()
        service = ReservationService(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        before = service.snapshot()
        with pytest.raises(KeyError):
            getattr(service, verb)(99, now=7.0)
        assert service.snapshot() == before
        with pytest.raises(ConfigurationError):  # the clock check still comes first
            getattr(service, verb)(99, now=-1.0)
        service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=4.0)
        assert ReservationService.replay(journal).snapshot() == service.snapshot()

    def test_abort_of_non_live_rid_is_journaled(self, platform):
        # A refused abort still moves the clock, so it is journaled: replay
        # lands on the same clock and the next op sees the same state.
        journal = Journal()
        service = ReservationService(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        service.cancel(0, now=1.0)
        assert service.abort(0, now=8.0) is False
        assert [entry.op for entry in journal][-1] == "abort"
        assert ReservationService.replay(journal).snapshot() == service.snapshot()
        service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=9.0)
        assert ReservationService.replay(journal).snapshot() == service.snapshot()

    def test_replay_from_disk_after_crash(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        service = ReservationService(platform, backlog_limit=2, journal=Journal(path=path))
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=5.0)
        service.abort(0, now=10.0)
        before = service.snapshot()
        del service  # "crash"
        rebuilt = ReservationService.replay(Journal.load(path))
        assert rebuilt.snapshot() == before


class TestTornTail:
    """A SIGKILL mid-append leaves a final line cut short, with no newline."""

    def _wal(self, platform, path):
        service = ReservationService(platform, journal=Journal(path=path))
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=5.0)
        return service

    def test_torn_last_line_is_dropped_counted_and_truncated(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        service = self._wal(platform, path)
        before = service.snapshot()
        intact = path.read_bytes()
        service.cancel(0, now=10.0)
        cut = path.read_bytes()[: len(intact) + 17]  # the cancel, torn mid-object
        path.write_bytes(cut)

        loaded = Journal.load(path)
        assert loaded.torn_lines == 1
        assert [e.op for e in loaded] == ["submit", "submit"]
        assert path.read_bytes() == intact  # the torn bytes are gone from disk
        rebuilt = ReservationService.replay(loaded)
        assert rebuilt.snapshot() == before

        # Appends after the restart start on a fresh line: the log stays readable.
        loaded.append("cancel", 11.0, rid=0)
        again = Journal.load(path)
        assert again.torn_lines == 0
        assert [e.op for e in again] == ["submit", "submit", "cancel"]

    def test_complete_last_line_missing_its_newline_is_kept(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        self._wal(platform, path)
        path.write_bytes(path.read_bytes()[:-1])
        loaded = Journal.load(path)
        assert loaded.torn_lines == 0 and len(loaded) == 2
        assert path.read_bytes().endswith(b"}\n")

    def test_corrupt_middle_line_raises_configuration_error(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        self._wal(platform, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match="line 2"):
            Journal.load(path)

    def test_unparseable_last_line_with_newline_is_corruption(self, platform):
        journal = Journal()
        ReservationService(platform, journal=journal)
        with pytest.raises(ConfigurationError, match="line 2"):
            Journal.from_jsonl(journal.to_jsonl() + '{"op": "cancel", "no\n')

    def test_entry_missing_its_op_is_corruption(self, platform):
        journal = Journal()
        ReservationService(platform, journal=journal)
        with pytest.raises(ConfigurationError, match="line 2"):
            Journal.from_jsonl(journal.to_jsonl() + '{"now": 1.0}\n')

    def test_torn_header_alone_is_an_empty_journal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "repro-jour')
        with pytest.raises(ConfigurationError, match="empty journal"):
            Journal.load(path)
