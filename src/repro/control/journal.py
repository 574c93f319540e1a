"""Append-only operation journal for crash recovery.

A production reservation service must survive its own process crashes
without losing the ledger.  The journal is a write-ahead log of every
state-changing operation the service performs — ``submit``,
``submit_striped``, ``cancel``, ``abort``, ``degrade`` — together with a
header capturing the service configuration (platform capacities, policy,
backlog limit).  Because the service is deterministic given its
configuration and the operation sequence, replaying the journal through
:meth:`~repro.control.service.ReservationService.replay` rebuilds a
state-identical service (the tests assert snapshot equality).

Serialisation is JSON lines: the header object on the first line, one
operation object per subsequent line (see ``docs/FAULTS.md`` for the
format).  Appends are O(1); nothing is ever rewritten.

A process killed mid-append leaves a *torn tail*: a final line with no
newline that does not parse.  :meth:`Journal.load` drops it (counting it
in :attr:`Journal.torn_lines`) and cuts it off the file so later appends
start on a fresh line; the operation it held was never acknowledged.  A
line that does not parse anywhere else is corruption and raises
:class:`~repro.core.errors.ConfigurationError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator, Mapping
from typing import Any

from ..core.errors import ConfigurationError

__all__ = ["Journal", "JournalEntry", "JOURNAL_FORMAT"]

#: Format tag written to (and required in) every journal header.
JOURNAL_FORMAT: str = "repro-journal/1"

#: Operations a journal may contain: the service's own, plus the
#: gateway's ``gw_*`` family (see :meth:`repro.gateway.Gateway.replay`).
_KNOWN_OPS = frozenset(
    {
        "submit",
        "submit_striped",
        "cancel",
        "abort",
        "degrade",
        "reshape",
        "gw_submit",
        "gw_drain",
        "gw_cancel",
        "gw_abort",
        "gw_degrade",
        "gw_reshape",
        "gw_crash",
        "gw_restart",
    }
)


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journaled operation: its name, service time, and arguments."""

    op: str
    now: float
    args: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.op not in _KNOWN_OPS:
            raise ConfigurationError(f"unknown journal op {self.op!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {"op": self.op, "now": self.now, **dict(self.args)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> JournalEntry:
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        op = str(payload.pop("op"))
        now = float(payload.pop("now"))
        return cls(op=op, now=now, args=payload)


@dataclass
class Journal:
    """An append-only log of service operations plus a config header.

    ``header`` is written by the service on attach (platform, policy,
    backlog limit); entries accumulate via :meth:`append`.  An optional
    ``path`` turns every append into an immediate JSONL write — the
    write-ahead behaviour a crash-recovery log needs.  ``torn_lines``
    counts the torn tail dropped when the journal was read back (0 or 1).
    """

    header: dict[str, Any] = field(default_factory=dict)
    entries: list[JournalEntry] = field(default_factory=list)
    path: Path | None = None
    torn_lines: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)

    # ------------------------------------------------------------------
    def set_header(self, header: Mapping[str, Any]) -> None:
        """Record the service configuration; rewrites the file when backed."""
        self.header = {"format": JOURNAL_FORMAT, **dict(header)}
        if self.path is not None:
            with self.path.open("w") as fh:
                fh.write(json.dumps(self.header) + "\n")
                for entry in self.entries:
                    fh.write(json.dumps(entry.to_dict()) + "\n")

    def append(self, op: str, now: float, **args: Any) -> JournalEntry:
        """Append one operation; flushed to disk immediately when backed."""
        entry = JournalEntry(op=op, now=now, args=args)
        self.entries.append(entry)
        if self.path is not None:
            with self.path.open("a") as fh:
                fh.write(json.dumps(entry.to_dict()) + "\n")
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise header + entries as JSON lines."""
        lines = [json.dumps(self.header or {"format": JOURNAL_FORMAT})]
        lines.extend(json.dumps(entry.to_dict()) for entry in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> Journal:
        """Inverse of :meth:`to_jsonl`.

        A final line without its newline that does not parse is a torn
        tail: it is dropped and counted in :attr:`torn_lines`.  Any other
        unparseable line raises :class:`ConfigurationError`.
        """
        lines = text.splitlines()
        rows: list[tuple[int, Any]] = []
        torn = 0
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rows.append((number, json.loads(line)))
            except json.JSONDecodeError as exc:
                if number == len(lines) and not text.endswith("\n"):
                    torn = 1
                    break
                raise ConfigurationError(f"journal line {number} is corrupt: {exc}") from exc
        if not rows:
            raise ConfigurationError("empty journal")
        header = rows[0][1]
        if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
            found = header.get("format") if isinstance(header, dict) else header
            raise ConfigurationError(f"not a {JOURNAL_FORMAT} journal (header: {found!r})")
        journal = cls(header=header, torn_lines=torn)
        for number, row in rows[1:]:
            try:
                journal.entries.append(JournalEntry.from_dict(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"journal line {number} is corrupt: {exc!r}") from exc
        return journal

    def save(self, path: str | Path) -> None:
        """Write the whole journal to ``path`` (JSONL)."""
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path) -> Journal:
        """Read a journal previously written by :meth:`save` (or live appends).

        The file is repaired for the appends that follow: a torn tail is
        truncated away, and a complete last line missing only its newline
        gets one.
        """
        path = Path(path)
        raw = path.read_bytes()
        journal = cls.from_jsonl(raw.decode("utf-8", errors="replace"))
        if not raw.endswith(b"\n"):
            with path.open("r+b") as fh:
                if journal.torn_lines:
                    fh.truncate(raw.rfind(b"\n") + 1)
                else:
                    fh.seek(0, 2)
                    fh.write(b"\n")
        journal.path = path
        return journal
