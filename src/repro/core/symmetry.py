"""Symmetry reduction (§3.3).

Distributed-system models are usually symmetric in node identity and in
workload values: permuting them does not change whether an action satisfies
an invariant.  The explorer therefore stores only one canonical
representative per symmetry orbit, shrinking the state space by up to
``|nodes|! * |values|!``.

A spec declares its symmetry sets via :meth:`Spec.symmetry_sets`.  The
canonical form of a state is the permuted variant with the smallest
fingerprint under the supplied key function; the permutation group is the
direct product of the permutations of each symmetry set.

:func:`canonicalize` is that definition, executed literally: build every
permuted state, keep the smallest.  :meth:`SymmetryReducer.canonical`
returns the same state without building the orbit.  A state's
fingerprint is a digest over one 8-byte digest per ``(variable, value)``
pair, and a pair's digest under a permutation depends on nothing but the
pair, so the reducer memoises, per pair, its digest and image under every
permutation, fingerprints each permuted state from memoised digests
alone, and assembles only the winner.  The codec is compositional (a
container's bytes are its tag, its count and its parts' bytes), so a
pair the memo has not seen gets its images' bytes by joining the
memoised bytes of the containers inside it, never by encoding an image.
"""

from __future__ import annotations

import itertools
from operator import add, is_
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .state import (
    _SCALAR_CLASSES,
    CheckedMemo,
    Rec,
    compose,
    composed_pair_digest,
    encode,
    fingerprint,
    pair_digest,
    pair_layout,
    rec_from_table,
    substitute,
    table_fingerprint,
)

__all__ = ["permutations_of_sets", "canonicalize", "SymmetryReducer"]

#: The container classes :meth:`SymmetryReducer._derive` walks.  With
#: ``_SCALAR_CLASSES`` they rule a value in or out without an
#: ``isinstance`` (``Rec`` is a ``Mapping`` subclass, so ``isinstance``
#: against it goes through ``ABCMeta.__instancecheck__``).
_CONTAINERS = frozenset({Rec, tuple, frozenset})


def permutations_of_sets(sets: Sequence[Tuple[Any, ...]]) -> Iterator[Dict[Any, Any]]:
    """All substitution maps from the product of per-set permutations.

    The identity map is always yielded first.
    """
    per_set = [list(itertools.permutations(members)) for members in sets]
    for combo in itertools.product(*per_set):
        mapping: Dict[Any, Any] = {}
        for members, permuted in zip(sets, combo):
            mapping.update(zip(members, permuted))
        yield mapping


def _nonidentity_maps(sets: Sequence[Tuple[Any, ...]]) -> List[Dict[Any, Any]]:
    return [
        mapping
        for mapping in permutations_of_sets(sets)
        if any(k != v for k, v in mapping.items())
    ]


def _rec_of_flat(flat: Sequence[Any]) -> Rec:
    return Rec(zip(flat[::2], flat[1::2]))


def _pair_columns(columns: list) -> list:
    """Key bytes + value bytes per pair and map, from one column of
    encodings per key and per value (``[key, value, key, value, ...]``)."""
    pairs = zip(columns[::2], columns[1::2])
    return [tuple(map(add, keys, values)) for keys, values in pairs]


def canonicalize(
    state: Rec,
    sets: Sequence[Tuple[Any, ...]],
    key: Callable[[Rec], Any] = fingerprint,
    maps: Optional[Sequence[Dict[Any, Any]]] = None,
) -> Rec:
    """Return the canonical representative of ``state``'s symmetry orbit.

    The brute-force reference: every permuted state is built and keyed,
    and the first with the smallest key wins (the identity goes first).
    ``maps`` is the non-identity maps of ``sets`` for a caller that keeps
    them, as :class:`SymmetryReducer` does.
    """
    if maps is None:
        maps = _nonidentity_maps(sets)
    best = state
    best_fp = key(state)
    for mapping in maps:
        candidate = substitute(state, mapping)
        fp = key(candidate)
        if fp < best_fp:
            best, best_fp = candidate, fp
    return best


class SymmetryReducer:
    """Canonical representatives for one spec's symmetry sets.

    Holds the permutation maps and two
    :class:`~repro.core.state.CheckedMemo` instances, so one reducer
    serves one spec in one process.  ``(variable, value) -> (digests,
    images)`` is the orbit memo: the pair's digest-table entry and its
    image under each non-identity map; a sampled hit is re-derived with
    plain ``substitute`` and ``pair_digest`` and compared on the
    digests, which tell ``True`` from ``1`` and so vouch for the
    composed bytes too.  ``(variable, container) -> (images, their
    encodings)`` is the nested memo: the same for every record, tuple
    and frozenset below a variable's value, or ``(None, encoding)``
    when no map moves it; a sampled hit is compared on the encodings.
    An orbit-memo miss composes each image's bytes from its parts'
    memoised bytes (:func:`~repro.core.state.compose`) and encodes no
    atom.  Both memos are keyed by the top-level variable, never across
    variables: ``alive == {n: True}`` equals ``currentTerm == {n: 1}``
    and encodes differently.
    """

    def __init__(
        self,
        sets: Sequence[Tuple[Any, ...]],
        key: Callable[[Rec], Any] = fingerprint,
    ):
        self.sets = [tuple(members) for members in sets]
        self.key = key
        self._maps = _nonidentity_maps(self.sets)
        #: symmetry-set member -> (what each map sends it to, their encodings)
        self._atom_images = {
            atom: (images, tuple(map(encode, images)))
            for members in self.sets
            for atom in members
            for images in [tuple(mapping[atom] for mapping in self._maps)]
        }
        self._orbits = CheckedMemo(self._orbit_of, reference=self._substituted_orbit)
        self._nested = CheckedMemo(self._derive)
        self._stats = {"canonical_calls": 0, "identity_wins": 0}

    @property
    def group_size(self) -> int:
        return len(self._maps) + 1

    def stats(self) -> Dict[str, int]:
        """Cumulative counters: calls, calls the input won, memo traffic."""
        orbits, nested = self._orbits, self._nested
        return dict(
            self._stats,
            orbit_memo_hits=orbits.hits,
            orbit_memo_misses=orbits.misses,
            orbit_memo_clears=orbits.clears,
            nested_memo_hits=nested.hits,
            nested_memo_misses=nested.misses,
            nested_memo_clears=nested.clears,
        )

    def canonical(self, state: Rec) -> Rec:
        """The orbit member with the smallest key; ``state`` itself if it wins."""
        stats = self._stats
        stats["canonical_calls"] += 1
        best = self._canonical(state)
        if best is state:
            stats["identity_wins"] += 1
        return best

    def _canonical(self, state: Rec) -> Rec:
        maps = self._maps
        if not maps:
            return state
        if self.key is not fingerprint or state.__class__ is not Rec:
            return canonicalize(state, self.sets, self.key, maps)
        best_fp = fingerprint(state)
        lookup = self._orbits.lookup
        entries = {}  # variable -> (digests, images), in digest-table order
        for key_enc, variable in pair_layout(state):
            value = state[variable]
            entry = lookup((variable, value), variable, key_enc, value)
            if entry is None:  # a map renames the variable itself
                return canonicalize(state, self.sets, self.key, maps)
            entries[variable] = entry
        # fingerprint(map . state) is the digest of that map's column
        best = None
        for j, column in enumerate(zip(*[digests for digests, _ in entries.values()])):
            table = b"".join(column)
            fp = table_fingerprint(table)
            if fp < best_fp:
                best, best_fp, best_table = j, fp, table
        if best is None:
            return state
        contents = {variable: entries[variable][1][best] for variable in state}
        return rec_from_table(contents, best_table, best_fp)

    def _orbit_of(self, variable: Any, key_enc: bytes, value: Any) -> Optional[tuple]:
        """One pair's digests and images under each map; ``None`` if its key moves."""
        if self._parts(variable, variable)[0] is not None:
            return None
        images, encoded = self._derive(variable, value)
        if images is None:
            count = len(self._maps)
            return (composed_pair_digest(key_enc, encoded),) * count, (value,) * count
        return tuple(composed_pair_digest(key_enc, enc) for enc in encoded), images

    def _substituted_orbit(self, variable: Any, key_enc: bytes, value: Any) -> tuple:
        """:meth:`_orbit_of` by plain ``substitute``: the sampled reference."""
        images = tuple(substitute(value, mapping) for mapping in self._maps)
        return tuple(pair_digest(key_enc, image) for image in images), images

    def _parts(self, variable: Any, value: Any) -> tuple:
        """``value``'s images under each map and their encodings, or
        ``(None, its encoding)`` if no map moves it.

        Containers below the top level go through the nested memo.
        """
        cls = value.__class__
        if cls in _CONTAINERS or (
            cls not in _SCALAR_CLASSES and isinstance(value, (Rec, tuple, frozenset))
        ):
            return self._nested.lookup((variable, value), variable, value)
        return self._atom_images.get(value) or (None, encode(value))

    def _derive(self, variable: Any, value: Any) -> tuple:
        """One level of :meth:`_parts`: ``substitute``, all maps at once.

        An image is built in the order ``substitute`` builds it, and *is*
        the original wherever the map changes nothing beneath it, so
        whatever the original has cached (encoding, hash) is reused.  Its
        bytes are its parts' bytes joined by the codec's container rule.
        """
        if isinstance(value, Rec):
            # key, value, key, value, ...: keys are substituted too
            items: Sequence[Any] = [part for pair in value.items() for part in pair]
            rebuild: Callable[[Sequence[Any]], Any] = _rec_of_flat
            joined: Callable[[list], list] = _pair_columns
        elif isinstance(value, tuple):
            items, rebuild, joined = value, tuple, list
        elif isinstance(value, frozenset):
            items, rebuild, joined = tuple(value), frozenset, list
        else:
            return self._parts(variable, value)
        if not items:
            return None, compose(value, ())
        parts = [self._parts(variable, item) for item in items]
        fixed = all(moved is None for moved, _ in parts)
        if fixed:
            images: tuple = (value,)
            columns = [(enc,) for _, enc in parts]
        else:
            count = len(self._maps)
            images = tuple(
                value if all(map(is_, picked, items)) else rebuild(picked)
                for picked in zip(
                    *[
                        (item,) * count if moved is None else moved
                        for item, (moved, _) in zip(items, parts)
                    ]
                )
            )
            columns = [(enc,) * count if moved is None else enc for moved, enc in parts]
        # a column per item holds its bytes under each map; a record's
        # key and value columns are joined per pair, and each row of the
        # transpose is one image's parts
        encoded = tuple(map(compose, images, zip(*joined(columns))))
        return (None, encoded[0]) if fixed else (images, encoded)

    def orbit(self, state: Rec) -> List[Rec]:
        """All distinct states in the symmetry orbit of ``state``."""
        seen = {state}
        for mapping in self._maps:
            seen.add(substitute(state, mapping))
        return list(seen)
