"""Immutable state values, the canonical state codec, and fingerprinting.

Specification states are immutable so that the stateful BFS explorer can
hash, deduplicate and safely share them.  The building block is :class:`Rec`,
an immutable mapping with functional update, playing the role of a TLA+
function/record (``EXCEPT`` becomes :meth:`Rec.set` / :meth:`Rec.apply`).

All values stored in a state must be *frozen*: ints, strings, booleans,
``None``, tuples, frozensets, or nested :class:`Rec` instances.
:func:`freeze` converts ordinary dicts/lists/sets into frozen form, and
:func:`thaw` converts back for serialization and debugging.

State identity is defined by the **canonical codec**: :func:`encode` maps
every frozen value to a unique byte string (equal values encode equally,
different values differently — records are serialized in a canonical key
order and frozensets in sorted-encoding order), and :func:`decode` maps it
back (``decode(encode(x)) == x``).  :func:`fingerprint` is a 64-bit
blake2b digest of that encoding: unlike Python's ``hash`` it does not
depend on ``PYTHONHASHSEED``, so fingerprints agree across processes and
runs — the property the sharded parallel explorer
(:mod:`repro.core.parallel`) and the disk-backed and distributed state
stores rely on.  There is one encoder: a record is always serialized
from scratch, reusing only the cached encodings of the records nested
in it.  Fingerprints are incremental instead — a record built by
:meth:`Rec.set` / :meth:`Rec.update` patches its parent's per-pair
digest table (:func:`fingerprint`) and never assembles bytes.

The codec is finer than Python equality in one place: it tags ``True``,
``1`` and ``1.0`` (and ``0.0`` / ``-0.0``) differently, while ``==``,
dict keys, frozenset members and :meth:`Rec.__eq__` do not.  The rule
that reconciles them is **type stability**: state identity is Python
equality, and one position of a state must hold one type — as in TLC,
where comparing a boolean with an integer is an error.  Record keys of
type ``bool`` or ``float`` are rejected at construction; for values the
pair-digest memo behind :func:`fingerprint` samples its hits and raises
:class:`~repro.core.spec.SpecError` when a spec breaks the rule.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from hashlib import blake2b
from typing import Any, Callable, FrozenSet, Iterator, Optional, Sequence, Tuple

__all__ = [
    "CODEC_VERSION",
    "Rec",
    "freeze",
    "thaw",
    "encode",
    "decode",
    "fingerprint",
    "substitute",
    "changed_keys",
    "detach",
    "codec_stats",
    "reset_codec_stats",
    "set_delta_codec",
]

#: Version of the canonical codec *and* the fingerprint construction.
#: Any change to the byte layout produced by :func:`encode`, to the key
#: ordering of records, or to the digest behind :func:`fingerprint`
#: must bump this number: durable artifacts (run directories,
#: checkpoints, saved traces — :mod:`repro.persist`) record it and
#: refuse to load data written under a different version, because
#: fingerprints and stored codec bytes from one version are
#: meaningless under another.
#:
#: Version history: 1 — flat ``blake2b(encode(state))`` fingerprints;
#: 2 — two-level fingerprints (a digest of per-pair digests, enabling
#: incremental fingerprinting of successors).  Encodings are unchanged
#: between 1 and 2; fingerprints are not, so durable artifacts from
#: version 1 cannot be resumed.
CODEC_VERSION = 2

_FROZEN_SCALARS = (int, float, str, bytes, bool, type(None))


class Rec(Mapping):
    """An immutable record: a hashable mapping with functional update.

    Keys are sorted internally so two records with the same contents have
    the same canonical representation and hash regardless of insertion
    order.
    """

    __slots__ = (
        "_dict",
        "_hash",
        "_enc",
        "_fp",
        "_base",
        "_touched",
        "_pairfps",
    )

    def __init__(self, mapping: Any = (), **kwargs: Any):
        if isinstance(mapping, Rec):
            base = dict(mapping._dict)
        else:
            base = dict(mapping)
        base.update(kwargs)
        for key, value in base.items():
            if key.__class__ is not str:
                _check_key(key)
            _check_frozen(value, key)
        self._dict = base
        self._hash = None
        self._enc = None
        self._fp = None
        self._base = None
        self._touched = None
        self._pairfps = None

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        return self._dict[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __contains__(self, key: Any) -> bool:
        return key in self._dict

    # Mapping's mixins go through __getitem__ once per key (and an
    # exception for an absent one); these are one call into the dict.

    def get(self, key: Any, default: Any = None) -> Any:
        return self._dict.get(key, default)

    def values(self):
        return self._dict.values()

    # -- identity ----------------------------------------------------------

    def __hash__(self) -> int:
        # Order-independent and cached; nested Recs cache their own
        # hashes, so functional updates that share substructure hash
        # mostly from cache.  (Per-process only — cross-process identity
        # goes through fingerprint().)
        if self._hash is None:
            self._hash = hash(frozenset(self._dict.items()))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Rec):
            return self._dict == other._dict
        if isinstance(other, Mapping):
            return self._dict == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items_sorted())
        return f"Rec({{{inner}}})"

    def __reduce__(self):
        # Pickle only the contents; caches are rebuilt lazily on the
        # other side (where they are recomputed identically anyway).
        return (_rec_from_dict, (self._dict,))

    # -- functional update ---------------------------------------------------

    @classmethod
    def _make(cls, contents: dict) -> "Rec":
        """Internal: wrap an already-validated dict without copying."""
        rec = object.__new__(cls)
        rec._dict = contents
        rec._hash = None
        rec._enc = None
        rec._fp = None
        rec._base = None
        rec._touched = None
        rec._pairfps = None
        return rec

    def set(self, key: Any, value: Any) -> "Rec":
        """Return a new record with ``key`` bound to ``value``.

        When ``key`` was already present the new record remembers its
        parent and the touched key, so ``changed_keys`` can report the
        difference and ``fingerprint`` can patch the parent's pair-digest
        table instead of digesting every pair.

        Rebinding a key to the identical object is a no-op and returns
        ``self`` — records are immutable, so the "copy" would be
        indistinguishable, and returning ``self`` keeps ``changed_keys``
        precise (a heartbeat that rewrites an unchanged log does not mark
        ``log`` as touched).
        """
        src = self._dict
        if src.get(key, _MISSING) is value:
            return self
        _check_frozen(value, key)
        new = dict(src)
        new[key] = value
        rec = Rec._make(new)
        if len(new) == len(src):
            rec._base = self
            rec._touched = (key,)
        else:
            _check_key(key)
        return rec

    def update(self, mapping: Any = (), **kwargs: Any) -> "Rec":
        """Return a new record with several keys rebound.

        Like :meth:`set`, records the parent and the touched keys when
        the key set is unchanged, enabling incremental fingerprints.  As
        with ``dict.update`` a keyword wins over the mapping; keys whose
        final binding is the identical object are not counted as
        touched, and an update that changes nothing returns ``self``.
        """
        src = self._dict
        new = dict(src)
        touched = []
        for key, value in dict(mapping, **kwargs).items():
            if src.get(key, _MISSING) is value:
                continue
            _check_frozen(value, key)
            new[key] = value
            touched.append(key)
        if not touched:
            return self
        rec = Rec._make(new)
        if len(new) == len(src):
            rec._base = self
            rec._touched = tuple(touched)
        else:
            for key in touched:
                _check_key(key)
        return rec

    def apply(self, key: Any, fn: Callable[[Any], Any]) -> "Rec":
        """Return a new record with ``key`` rebound to ``fn(old_value)``.

        The TLA+ idiom ``[f EXCEPT ![k] = g(@)]``.
        """
        return self.set(key, fn(self._dict[key]))

    def remove(self, key: Any) -> "Rec":
        """Return a new record without ``key``."""
        new = dict(self._dict)
        del new[key]
        return Rec._make(new)

    def items_sorted(self) -> Tuple[Tuple[Any, Any], ...]:
        """Items in a canonical (type-name, repr) key order.

        The key order is interned per key set (like the codec layout):
        record shapes recur across millions of states, so the sort —
        and the ``repr`` calls it is keyed on — runs once per shape.
        """
        contents = self._dict
        keys = tuple(contents)
        order = _SORTED_KEYS.get(keys)
        if order is None:
            order = tuple(sorted(keys, key=_key_order))
            _SORTED_KEYS[keys] = order
        return tuple((key, contents[key]) for key in order)


def _rec_from_dict(contents: dict) -> Rec:
    return Rec._make(contents)


def _key_order(key: Any) -> Tuple[str, str]:
    return (type(key).__name__, repr(key))


#: Interned canonical key orders for :meth:`Rec.items_sorted`, keyed by
#: the keys in dict insertion order (same scheme as ``_LAYOUT``).
_SORTED_KEYS: dict = {}

#: Sentinel distinguishing "key absent" from "key bound to None" in the
#: identity short-circuit of :meth:`Rec.set`.
_MISSING = object()

#: The exact frozen classes, tested before the ``isinstance`` fallback:
#: ``Rec`` is a ``Mapping`` subclass, so ``isinstance`` against it goes
#: through ``ABCMeta.__instancecheck__``.
_SCALAR_CLASSES = frozenset(_FROZEN_SCALARS)
_FROZEN_CLASSES = _SCALAR_CLASSES | {tuple, frozenset, Rec}


def _check_key(key: Any) -> None:
    """Reject record keys that Python equality conflates across types.

    ``True == 1 == 1.0`` hash alike, so a dict cannot hold them apart
    and the layouts interned per key tuple (``_LAYOUT``, ``_SORTED_KEYS``)
    would serve one record's key encoding to the other: the bytes of
    ``Rec({True: x})`` would depend on whether ``Rec({1: x})`` was
    encoded first.  Integer keys stay; ``bool`` and ``float`` keys —
    also inside tuple or frozenset keys — are a ``TypeError``.
    """
    if isinstance(key, (bool, float)):
        raise TypeError(
            f"record key {key!r} is a {type(key).__name__}: bool and float keys"
            " compare equal to ints and cannot be told apart; use int or str"
        )
    if isinstance(key, (tuple, frozenset)):
        for part in key:
            _check_key(part)


def _check_frozen(value: Any, key: Any) -> None:
    if value.__class__ in _FROZEN_CLASSES:
        return
    if isinstance(value, _FROZEN_SCALARS) or isinstance(value, (tuple, frozenset, Rec)):
        return  # subclass of a frozen type (e.g. IntEnum)
    raise TypeError(
        f"state value for key {key!r} is not frozen: {type(value).__name__};"
        " use freeze() or a Rec/tuple/frozenset"
    )


def freeze(value: Any) -> Any:
    """Recursively convert a plain Python value into frozen form.

    dict -> Rec, list -> tuple, set -> frozenset; scalars pass through.
    """
    if isinstance(value, Rec):
        return Rec({k: freeze(v) for k, v in value.items()})
    if isinstance(value, Mapping):
        return Rec({freeze(k): freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    if isinstance(value, _FROZEN_SCALARS):
        return value
    raise TypeError(f"cannot freeze value of type {type(value).__name__}")


def thaw(value: Any) -> Any:
    """Convert a frozen value back into plain JSON-friendly Python.

    Rec -> dict, tuple -> list, frozenset -> sorted list.
    """
    if isinstance(value, Rec):
        return {_thaw_key(k): thaw(v) for k, v in value.items_sorted()}
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    if isinstance(value, frozenset):
        return sorted((thaw(v) for v in value), key=repr)
    return value


def _thaw_key(key: Any) -> Any:
    if isinstance(key, tuple):
        return "|".join(_thaw_key_part(part) for part in key)
    return key


def _thaw_key_part(part: Any) -> str:
    """Render one tuple-key component collision-free.

    Separator and escape characters inside a component are escaped, and
    nested tuples are parenthesized, so distinct tuple keys always render
    to distinct strings — ``("a", "b|c")`` becomes ``a|b\\|c`` while
    ``("a|b", "c")`` becomes ``a\\|b|c``.  Typical keys (node ids, pairs
    of node ids) render exactly as before.
    """
    if isinstance(part, tuple):
        return "(" + "|".join(_thaw_key_part(p) for p in part) + ")"
    return (
        str(part)
        .replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("(", "\\(")
        .replace(")", "\\)")
    )


# ---------------------------------------------------------------------------
# the canonical codec
# ---------------------------------------------------------------------------
#
# One byte tag per value, followed by a self-delimiting payload:
#
#   N                      None
#   T / F                  True / False
#   i <uvarint>            int (zigzag-encoded, arbitrary precision)
#   f <8 bytes>            float (IEEE-754 big-endian)
#   s <uvarint> <utf-8>    str
#   b <uvarint> <raw>      bytes
#   t <uvarint> <items>    tuple, in order
#   S <uvarint> <items>    frozenset, items sorted by their encodings
#   R <uvarint> <pairs>    Rec, (key enc + value enc) pairs sorted bytewise
#
# The code is uniquely decodable from the front, hence prefix-free, so
# sorting concatenated encodings gives a canonical container order that
# is identical in every process.  Rec caches its encoding, so encoding a
# functionally-updated state copies the cached bytes of every nested
# record it shares with its parent.

_T_NONE = 0x4E  # 'N'
_T_TRUE = 0x54  # 'T'
_T_FALSE = 0x46  # 'F'
_T_INT = 0x69  # 'i'
_T_FLOAT = 0x66  # 'f'
_T_STR = 0x73  # 's'
_T_BYTES = 0x62  # 'b'
_T_TUPLE = 0x74  # 't'
_T_SET = 0x53  # 'S'
_T_REC = 0x52  # 'R'

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


def _write_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _encode_into(out: bytearray, value: Any) -> None:
    cls = value.__class__
    if cls is Rec:
        enc = value._enc
        out += enc if enc is not None else _encode_rec(value)
    elif cls is str:
        data = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(data))
        out += data
    elif cls is int:
        out.append(_T_INT)
        _write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif cls is tuple:
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif cls is frozenset:
        out += _join(_T_SET, sorted([encode(item) for item in value]))
    elif value is None:
        out.append(_T_NONE)
    elif cls is float:
        out.append(_T_FLOAT)
        out += _pack_float(value)
    elif cls is bytes:
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out += value
    elif isinstance(value, Rec):  # Rec subclass
        enc = value._enc
        out += enc if enc is not None else _encode_rec(value)
    elif isinstance(value, _FROZEN_SCALARS) or isinstance(value, (tuple, frozenset)):
        # subclass of a frozen type (e.g. IntEnum): encode as the base type
        _encode_into(out, _as_base(value))
    else:
        raise TypeError(f"cannot encode value of type {type(value).__name__}")


def _join(tag: int, parts: Sequence[bytes]) -> bytes:
    """A container's bytes from its parts' bytes, in codec order: the
    tag, the count, then the parts (a tuple's items in order, a
    frozenset's items sorted, a record's pairs sorted)."""
    count = len(parts)
    if count < 0x80:  # the uvarint is one byte
        return bytes((tag, count)) + b"".join(parts)
    head = bytearray((tag,))
    _write_uvarint(head, count)
    return bytes(head) + b"".join(parts)


def compose(container: Any, parts: Sequence[bytes]) -> bytes:
    """``encode(container)`` from its parts' encodings, without an atom.

    ``parts`` are the encodings of a tuple's or a frozenset's items, or
    of a record's pairs (key bytes + value bytes), in any order for the
    two that sort them.  The code is prefix-free and record keys are
    unique, so sorting whole pairs sorts by key encoding.  A record
    keeps the result as its cached encoding, as :func:`encode` would.
    """
    cls = container.__class__
    if cls is tuple:
        return _join(_T_TUPLE, parts)
    if cls is frozenset:
        return _join(_T_SET, sorted(parts))
    if isinstance(container, Rec):
        enc = _join(_T_REC, sorted(parts))
        if container._enc is None:
            container._enc = enc
        return enc
    if isinstance(container, frozenset):
        return _join(_T_SET, sorted(parts))
    if isinstance(container, tuple):
        return _join(_T_TUPLE, parts)
    raise TypeError(f"cannot compose a {cls.__name__}")


def _as_base(value: Any) -> Any:
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, bytes):
        return bytes(value)
    if isinstance(value, tuple):
        return tuple(value)
    return frozenset(value)


#: canonical pair layouts, interned per key set — record shapes (state
#: variables, per-node maps, message records) recur across millions of
#: states, so the sort runs once per shape, not once per encode.  Keyed
#: by the keys in dict insertion order; different insertion orders of
#: one key set cost an extra entry but produce the same canonical layout.
_LAYOUT: dict = {}


def _encode_key(key: Any) -> bytes:
    out = bytearray()
    _encode_into(out, key)
    return bytes(out)


def _layout_for(keys: Tuple[Any, ...]) -> Tuple[Tuple[Tuple[bytes, Any], ...], dict]:
    # Keys are unique and the code is prefix-free, so sorting by the key
    # encoding alone fixes a canonical pair order.  The layout is the
    # sorted pair list plus a key -> pair-position map: patching a digest
    # table visits touched keys only, so it needs random access by key.
    pairs = tuple(sorted((_encode_key(key), key) for key in keys))
    layout = (pairs, {key: i for i, (_, key) in enumerate(pairs)})
    _LAYOUT[keys] = layout
    return layout


# -- codec chunk-cache counters ---------------------------------------------
#
# [0] delta_hits    — always 0 (there is one encoder); the benchmark
# [1] delta_misses    suite indexes both names, so they stay until it
#                     drops them (ROADMAP item 2b)
# [2] full_encodes  — records encoded (includes nested recs)
# [3] fp_delta_hits — digest tables assembled by patching a parent's
# [4] fp_full       — digest tables built by digesting every pair
#
# The pair-digest memo counts its own lookups (``_PAIR_MEMO``).
_CODEC_COUNTS = [0, 0, 0, 0, 0]

#: Digest-table patching on/off, read by :func:`_pair_digests` only.
#: Off is the reference the tests and benchmarks compare against: every
#: record digests every pair.  The fingerprints are identical either
#: way — a performance switch, so ``CODEC_VERSION`` is unaffected.
_DELTA_ENABLED = True


def set_delta_codec(enabled: bool) -> bool:
    """Enable/disable digest-table patching; returns the previous setting."""
    global _DELTA_ENABLED
    previous = _DELTA_ENABLED
    _DELTA_ENABLED = bool(enabled)
    return previous


def codec_stats() -> dict:
    """Cumulative codec chunk-cache counters for this process."""
    return {
        "delta_hits": _CODEC_COUNTS[0],
        "delta_misses": _CODEC_COUNTS[1],
        "full_encodes": _CODEC_COUNTS[2],
        "fp_delta_hits": _CODEC_COUNTS[3],
        "fp_full": _CODEC_COUNTS[4],
        "pair_memo_hits": _PAIR_MEMO.hits,
        "pair_memo_misses": _PAIR_MEMO.misses,
        "pair_memo_clears": _PAIR_MEMO.clears,
    }


def reset_codec_stats() -> dict:
    """Zero the codec counters; returns the counts they had."""
    stats = codec_stats()
    _CODEC_COUNTS[:] = [0] * len(_CODEC_COUNTS)
    memo = _PAIR_MEMO
    memo.hits = memo.misses = memo.clears = memo.verified = 0
    return stats


def _encode_rec(rec: Rec) -> bytes:
    contents = rec._dict
    keys = tuple(contents)
    layout = _LAYOUT.get(keys)
    if layout is None:
        layout = _layout_for(keys)
    out = bytearray()
    out.append(_T_REC)
    _write_uvarint(out, len(contents))
    for key_enc, key in layout[0]:
        out += key_enc
        value = contents[key]
        if value.__class__ is Rec:  # inlined hot path: cached nested Rec
            enc = value._enc
            out += enc if enc is not None else _encode_rec(value)
        else:
            _encode_into(out, value)
    enc = bytes(out)
    rec._enc = enc
    rec._base = None
    rec._touched = None
    _CODEC_COUNTS[2] += 1
    return enc


def encode(value: Any) -> bytes:
    """Serialize a frozen value to its canonical byte encoding.

    Equal values (regardless of record key insertion order or frozenset
    iteration order) produce identical bytes; different values produce
    different bytes.  The encoding is stable across processes, runs, and
    ``PYTHONHASHSEED`` values.
    """
    if value.__class__ is Rec:
        enc = value._enc
        return enc if enc is not None else _encode_rec(value)
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _read_uvarint(data: bytes, i: int) -> Tuple[int, int]:
    shift = 0
    n = 0
    while True:
        byte = data[i]
        i += 1
        n |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return n, i
        shift += 7


def _decode_at(data: bytes, i: int) -> Tuple[Any, int]:
    tag = data[i]
    start = i
    i += 1
    if tag == _T_STR:
        length, i = _read_uvarint(data, i)
        return data[i : i + length].decode("utf-8"), i + length
    if tag == _T_INT:
        n, i = _read_uvarint(data, i)
        return (n >> 1) if not n & 1 else -((n + 1) >> 1), i
    if tag == _T_REC:
        count, i = _read_uvarint(data, i)
        contents = {}
        for _ in range(count):
            key, i = _decode_at(data, i)
            if key.__class__ is not str:
                try:
                    _check_key(key)
                except TypeError as exc:
                    raise ValueError(f"{exc} (at offset {start})") from None
            value, i = _decode_at(data, i)
            contents[key] = value
        return Rec._make(contents), i
    if tag == _T_TUPLE:
        count, i = _read_uvarint(data, i)
        items = []
        for _ in range(count):
            item, i = _decode_at(data, i)
            items.append(item)
        return tuple(items), i
    if tag == _T_SET:
        count, i = _read_uvarint(data, i)
        items = []
        for _ in range(count):
            item, i = _decode_at(data, i)
            items.append(item)
        return frozenset(items), i
    if tag == _T_NONE:
        return None, i
    if tag == _T_TRUE:
        return True, i
    if tag == _T_FALSE:
        return False, i
    if tag == _T_FLOAT:
        return _unpack_float(data, i)[0], i + 8
    if tag == _T_BYTES:
        length, i = _read_uvarint(data, i)
        return bytes(data[i : i + length]), i + length
    raise ValueError(f"invalid codec tag {tag:#x} at offset {start}")


def decode(data: bytes) -> Any:
    """Deserialize a canonical encoding back into the frozen value.

    The exact inverse of :func:`encode`: returns the ``v`` with
    ``encode(v) == data`` or raises :class:`ValueError`.  Truncated
    input is malformed, and so is input that parses but is not what
    :func:`encode` writes (a duplicate or misplaced record key, unsorted
    set items, a padded varint): re-encoding what was decoded finds all
    of them, so a decoded state carries the same bytes and fingerprint
    as an equal state built natively.
    """
    try:
        value, end = _decode_at(data, 0)
    except (IndexError, struct.error, RecursionError) as exc:
        raise ValueError(f"truncated or over-nested encoding: {exc!r}") from None
    if end != len(data):
        raise ValueError(f"trailing bytes after offset {end}")
    if encode(value) != data:
        raise ValueError("not a canonical encoding: encode(decoded value) differs")
    return value


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def pair_digest(key_enc: bytes, value: Any) -> bytes:
    """One digest-table entry: the pair's canonical bytes, hashed to 8."""
    buf = bytearray(key_enc)
    _encode_into(buf, value)
    return blake2b(buf, digest_size=8).digest()


def composed_pair_digest(key_enc: bytes, value_enc: bytes) -> bytes:
    """:func:`pair_digest` of a value whose encoding is already known."""
    return blake2b(key_enc + value_enc, digest_size=8).digest()


def raise_type_unstable(key: Any, value: Any) -> None:
    from .spec import SpecError  # spec.py imports this module

    raise SpecError(
        f"state variable {key!r} is not type-stable: its value {value!r}"
        " equals an earlier value of that variable but encodes differently"
        " (True/1/1.0 or 0.0/-0.0 at one position); state identity is"
        " Python equality, so give each position one type"
    )


class CheckedMemo:
    """A bounded memo looked up by ``==`` and checked by sampling.

    The one home of the rules every per-value memo follows (DESIGN.md,
    "State identity and type stability").  A miss stores ``derive(*args)``
    unless it is ``None``; a full memo (``CAP`` entries) is emptied
    first.  Lookup by ``==`` serves a key holding ``1`` what was derived
    for an equal key holding ``True``, a spec typing error: every
    ``VERIFY_EVERY``-th hit compares ``reference(*args)`` (``derive``
    unless given) with the stored value and hands a difference to
    ``mismatch(key, stored)``, which raises a
    :class:`~repro.core.spec.SpecError` (by default the type-stability
    one, for a ``(variable, value)`` key).  The sampling keeps its own
    count, so zeroing ``hits`` / ``misses`` / ``clears`` / ``verified``
    does not delay the next check.
    """

    CAP = 1024
    VERIFY_EVERY = 64

    def __init__(
        self,
        derive: Callable[..., Any],
        reference: Optional[Callable[..., Any]] = None,
        mismatch: Optional[Callable[[Any, Any], None]] = None,
    ):
        self.table: dict = {}
        self.derive = derive
        self.reference = reference or derive
        self.mismatch = mismatch or (lambda pair, _: raise_type_unstable(*pair))
        self.hits = self.misses = self.clears = self.verified = 0
        self._since_check = 0

    def lookup(self, key: Any, *args: Any) -> Any:
        table = self.table
        value = table.get(key)
        if value is None:
            value = self.derive(*args)
            if value is not None:
                if len(table) >= self.CAP:
                    table.clear()
                    self.clears += 1
                table[key] = value
                self.misses += 1
            return value
        self.hits += 1
        self._since_check += 1
        if self._since_check >= self.VERIFY_EVERY:
            self._since_check = 0
            self.verified += 1
            if self.reference(*args) != value:
                self.mismatch(key, value)
        return value


#: The pair-digest memo: ``(variable, value) -> (8-byte pair digest,
#: canonical value)``.  A run re-digests the same few thousand top-level
#: pairs hundreds of thousands of times, so the delta path of
#: :func:`_pair_digests` looks a touched pair up here and encodes +
#: hashes it only on a miss.  The digest stored is the one the miss
#: computed, so fingerprints do not depend on the memo's contents.  The
#: value stored is the one the miss was given, and a hit rebinds the
#: record's pair to it (hash-consing): equal sub-values of the frontier,
#: the stores and the graphs become one object, and the next lookup of
#: that object compares by identity.  The type-stability rule is per
#: spec, so the memo is too: it holds the pairs of one spec at a time
#: (:func:`scope_pair_memo`).
_PAIR_MEMO = CheckedMemo(lambda key_enc, value: (pair_digest(key_enc, value), value))
#: The spec whose pairs the memo holds.
_PAIR_MEMO_OWNER: Any = None


def scope_pair_memo(spec: Any) -> None:
    """Empty the pair-digest memo unless it already holds ``spec``'s pairs.

    Everything that generates and fingerprints successors of a spec
    (the engine, shard workers, graph materialization, trace replay)
    calls this first, so a variable that is a ``bool`` in one spec and
    an ``int`` in the next one explored by the same process never meets
    the other's digests.  A compiled spec is scoped by the spec it
    wraps: recompiling keeps the memo.
    """
    global _PAIR_MEMO_OWNER
    owner = getattr(spec, "_source", spec)
    if owner is not _PAIR_MEMO_OWNER:
        _PAIR_MEMO.table.clear()
        _PAIR_MEMO_OWNER = owner


def _pair_digests(rec: Rec) -> bytes:
    """The per-pair digest table of a record: ``8 * len(rec)`` bytes.

    Entry ``i`` is the 8-byte blake2b digest of pair ``i``'s canonical
    bytes (key encoding + value encoding, in layout order).  The table
    is what :func:`fingerprint` hashes, and it is what makes
    fingerprinting incremental: a successor copies its parent's table
    and replaces only the touched pairs' entries — from ``_PAIR_MEMO``
    when that (variable, value) pair was digested before, else by
    encoding and hashing it — never assembling (or hashing) the full
    state encoding.  Each touched pair is rebound to the memo's
    canonical value, an equal object (identical bytes under the
    type-stability rule) that other records already share.

    The table is identical whichever way it is produced — patched from
    a parent or built pair by pair — because both hash the same
    canonical pair bytes (:func:`pair_digest`).  Either way the record
    then drops its link to its parent.
    """
    pf = rec._pairfps
    if pf is not None:
        return pf
    contents = rec._dict
    n = len(contents)
    keys = tuple(contents)
    layout = _LAYOUT.get(keys)
    if layout is None:
        layout = _layout_for(keys)
    base = rec._base
    if base is not None and _DELTA_ENABLED:
        # Walk the functional-update chain to the nearest ancestor with
        # a digest table, accumulating touched keys along the way.
        touched = set(rec._touched)
        cursor = base
        while cursor._pairfps is None:
            nxt = cursor._base
            if nxt is None or len(touched) >= n:
                cursor = None
                break
            touched.update(cursor._touched)
            cursor = nxt
        if cursor is not None and len(touched) < n:
            pairs, key_index = layout
            table = bytearray(cursor._pairfps)
            lookup = _PAIR_MEMO.lookup
            for key in touched:
                value = contents[key]
                i = key_index[key]
                # Hash-consing: the memo's value replaces the fresh one.
                # It was encoded on its miss, so it holds no
                # functional-update chain either.
                digest, contents[key] = lookup((key, value), pairs[i][0], value)
                j = i * 8
                table[j : j + 8] = digest
            pf = bytes(table)
            _CODEC_COUNTS[3] += 1
    if pf is None:
        # Full path: digest every pair, in layout order.
        pf = b"".join(
            pair_digest(key_enc, contents[key]) for key_enc, key in layout[0]
        )
        _CODEC_COUNTS[4] += 1
    rec._pairfps = pf
    rec._base = None
    rec._touched = None
    return pf


def fingerprint(state: Any) -> int:
    """Canonical 64-bit fingerprint of a frozen state.

    A blake2b digest, so — unlike ``hash`` — it is identical across
    processes, runs, and ``PYTHONHASHSEED`` values, which is what lets
    parallel workers and cross-run state stores agree on state
    identity.  Cached on :class:`Rec`.

    For records the digest is two-level: blake2b over the per-pair
    digest table (:func:`_pair_digests`) rather than over the flat
    encoding.  Equal records produce equal tables (the table derives
    from the canonical encoding) and hence equal fingerprints, however
    the record was built; a successor that touched ``k`` of ``n``
    fields fingerprints in ``O(k)`` instead of ``O(n)``.  Non-record
    values hash their canonical encoding directly.
    """
    if state.__class__ is Rec or isinstance(state, Rec):
        fp = state._fp
        if fp is None:
            fp = int.from_bytes(
                blake2b(_pair_digests(state), digest_size=8).digest(), "big"
            )
            state._fp = fp
        return fp
    return int.from_bytes(blake2b(encode(state), digest_size=8).digest(), "big")


# -- the two-level fingerprint, for repro.core.symmetry ----------------------
#
# Package-internal (not in ``__all__``).  With :func:`compose`,
# :func:`pair_digest`, :func:`composed_pair_digest` and
# :func:`raise_type_unstable` above, these let the symmetry reducer
# fingerprint a permuted state from per-pair digests, and build only the
# one it keeps, without knowing how a record caches its layout or table.


def pair_layout(rec: Rec) -> Tuple[Tuple[bytes, Any], ...]:
    """``(key encoding, key)`` per pair of ``rec``, in digest-table order."""
    keys = tuple(rec._dict)
    layout = _LAYOUT.get(keys)
    if layout is None:
        layout = _layout_for(keys)
    return layout[0]


def table_fingerprint(table: bytes) -> int:
    """The :func:`fingerprint` of the record whose pair-digest table this is."""
    return int.from_bytes(blake2b(table, digest_size=8).digest(), "big")


def rec_from_table(contents: dict, table: bytes, fp: int) -> Rec:
    """Wrap frozen ``contents`` whose digest table and fingerprint are known.

    ``table`` must be ``contents``' pairs digested in :func:`pair_layout`
    order and ``fp`` its :func:`table_fingerprint`; ``fingerprint()`` of
    the result is then a cache read.
    """
    rec = Rec._make(contents)
    rec._pairfps = table
    rec._fp = fp
    return rec


_EMPTY_KEYSET: FrozenSet[Any] = frozenset()


def changed_keys(child: Any, parent: Any, _limit: int = 1024) -> Optional[FrozenSet[Any]]:
    """Top-level keys on which ``child`` may differ from ``parent``.

    Derived from the functional-update chain recorded by ``Rec.set`` /
    ``Rec.update``: the result is a superset of the keys whose values
    actually differ (a key rebound to an equal value is still reported),
    and every key *not* in the result is guaranteed unchanged.  Returns
    ``None`` when the chain does not connect ``child`` to ``parent`` —
    the chain is consumed by encoding, so call this *before*
    ``fingerprint``/``encode`` on the child.
    """
    if child is parent:
        return _EMPTY_KEYSET
    if child.__class__ is not Rec or parent.__class__ is not Rec:
        return None
    touched = child._touched
    if touched is None:
        return None
    base = child._base
    if base is parent:
        return frozenset(touched)
    acc = set(touched)
    for _ in range(_limit):
        touched = base._touched
        if touched is None:
            return None
        acc.update(touched)
        base = base._base
        if base is parent:
            return frozenset(acc)
    return None


def detach(rec: Any) -> Any:
    """Drop a record's delta-tracking link to its parent.

    Long random walks keep only the latest state alive; without this the
    parent chain recorded for incremental fingerprints would retain every
    state on the walk.  Encoding or fingerprinting a record detaches it
    automatically — this is for states that are kept without either.
    """
    if isinstance(rec, Rec):
        rec._base = None
        rec._touched = None
    return rec


def substitute(value: Any, mapping: Mapping) -> Any:
    """Recursively replace atoms of ``value`` according to ``mapping``.

    Used by symmetry reduction to permute node identifiers (or workload
    values) throughout a state.  Atoms not present in ``mapping`` are left
    unchanged; container structure is preserved.
    """
    if value.__class__ in _SCALAR_CLASSES:  # the usual leaf, before the ABC test
        return mapping.get(value, value)
    if isinstance(value, Rec):
        return Rec(
            {
                substitute(k, mapping): substitute(v, mapping)
                for k, v in value._dict.items()
            }
        )
    if isinstance(value, tuple):
        return tuple(substitute(v, mapping) for v in value)
    if isinstance(value, frozenset):
        return frozenset(substitute(v, mapping) for v in value)
    try:
        return mapping.get(value, value)
    except TypeError:  # unhashable — cannot be a key
        return value
