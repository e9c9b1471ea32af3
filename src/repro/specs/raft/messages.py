"""Message constructors shared by the Raft specifications.

Every message is a frozen :class:`~repro.core.state.Rec` with a ``type``
field; the constructors keep field names consistent between the specs and
the implementations so conformance checking can compare network contents
directly.  Equal messages are one pooled object (``_MESSAGES``).

Field naming follows the paper's Figure 6/7 vocabulary: ``inext`` is the
next-index hint carried by AppendEntries responses (``Inext``), and
``icommit`` is the leader commit index (``Icommit``).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...core.spec import SpecError
from ...core.state import CheckedMemo, Rec, encode

__all__ = [
    "REQUEST_VOTE",
    "REQUEST_VOTE_RESPONSE",
    "APPEND_ENTRIES",
    "APPEND_ENTRIES_RESPONSE",
    "INSTALL_SNAPSHOT",
    "INSTALL_SNAPSHOT_RESPONSE",
    "request_vote",
    "request_vote_response",
    "append_entries",
    "append_entries_response",
    "install_snapshot",
    "install_snapshot_response",
    "entry",
]

REQUEST_VOTE = "RequestVote"
REQUEST_VOTE_RESPONSE = "RequestVoteResponse"
APPEND_ENTRIES = "AppendEntries"
APPEND_ENTRIES_RESPONSE = "AppendEntriesResponse"
INSTALL_SNAPSHOT = "InstallSnapshot"
INSTALL_SNAPSHOT_RESPONSE = "InstallSnapshotResponse"


#: Field names per message type, in constructor argument order, which is
#: also the records' key order after ``type``; the ``None`` row is a log
#: entry, which has no ``type``.
_FIELDS = {
    None: ("term", "val"),
    REQUEST_VOTE: ("term", "lastLogIndex", "lastLogTerm", "prevote"),
    REQUEST_VOTE_RESPONSE: ("term", "granted", "prevote"),
    APPEND_ENTRIES: (
        "term",
        "prevLogIndex",
        "prevLogTerm",
        "entries",
        "icommit",
        "retry",
    ),
    APPEND_ENTRIES_RESPONSE: ("term", "success", "inext"),
    INSTALL_SNAPSHOT: ("term", "lastIndex", "lastTerm", "icommit"),
    INSTALL_SNAPSHOT_RESPONSE: ("term", "success", "lastIndex"),
}


def _build(kind: Optional[str], *values: Any) -> Tuple[Rec, bytes]:
    """A message and its encoding, which a sampled pool hit compares."""
    contents: dict = {} if kind is None else {"type": kind}
    contents.update(zip(_FIELDS[kind], values))
    message = Rec(contents)
    return message, encode(message)


def _type_unstable(key: tuple, stored: Tuple[Rec, bytes]) -> None:
    raise SpecError(
        f"{key[0] or 'log entry'} arguments {key[1:]!r} equal those of the"
        f" pooled {stored[0]!r} but encode differently (True/1/1.0 or"
        " 0.0/-0.0 at one position); give each message field one type"
    )


#: The message pool: ``(type, *arguments) -> (message, encoding)``.  Specs
#: send equal messages over and over, and each copy sits in the network
#: (or log) of every state that holds it; the pool hands out one
#: record per distinct argument tuple (hash-consing), so equal messages
#: are one object that later lookups compare by identity.  Arguments
#: are compared by ``==``, so a ``True``/``1`` mix is a spec typing
#: error, found when a sampled hit's rebuilt encoding differs.
_MESSAGES = CheckedMemo(_build, mismatch=_type_unstable)


def _pooled(kind: Optional[str], *values: Any) -> Rec:
    return _MESSAGES.lookup((kind, *values), kind, *values)[0]


def entry(term: int, val: str) -> Rec:
    """One log entry."""
    return _pooled(None, term, val)


def request_vote(
    term: int, last_log_index: int, last_log_term: int, prevote: bool = False
) -> Rec:
    return _pooled(REQUEST_VOTE, term, last_log_index, last_log_term, prevote)


def request_vote_response(term: int, granted: bool, prevote: bool = False) -> Rec:
    return _pooled(REQUEST_VOTE_RESPONSE, term, granted, prevote)


def append_entries(
    term: int,
    prev_log_index: int,
    prev_log_term: int,
    entries: Tuple[Rec, ...],
    icommit: int,
    retry: bool = False,
) -> Rec:
    return _pooled(
        APPEND_ENTRIES,
        term,
        prev_log_index,
        prev_log_term,
        tuple(entries),
        icommit,
        retry,
    )


def append_entries_response(term: int, success: bool, inext: int) -> Rec:
    return _pooled(APPEND_ENTRIES_RESPONSE, term, success, inext)


def install_snapshot(term: int, last_index: int, last_term: int, icommit: int) -> Rec:
    return _pooled(INSTALL_SNAPSHOT, term, last_index, last_term, icommit)


def install_snapshot_response(term: int, success: bool, last_index: int) -> Rec:
    return _pooled(INSTALL_SNAPSHOT_RESPONSE, term, success, last_index)
