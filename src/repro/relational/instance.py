"""Relation and database instances.

A :class:`Relation` is a finite set of constant tuples of fixed arity; a
:class:`Database` maps relation names to relations (the paper's
*instance over a database schema*).  Both are mutable — the forward
chaining engines grow and shrink them — but expose cheap snapshots
(:meth:`Database.canonical`) used for equality tests and for the cycle
detection that powers nontermination checks in Datalog¬¬.

Relations maintain hash indexes on demand: ``Relation.index((0, 2))``
returns a dict from values at positions 0 and 2 to the matching tuples,
which the rule matcher uses to avoid full scans.  Buckets are dicts used
as *ordered sets* (``dict[tuple, None]``): insertion order matches the
old list-append order (so seeded nondeterministic engines see the same
enumeration order), while deletion is O(1) instead of the O(bucket)
``list.remove`` scan — which matters for the noninflationary/while
engines that discard heavily from skewed buckets.  Indexes are maintained
*incrementally*: once built, an index is updated in place on every
``add``/``discard`` instead of being discarded and rebuilt — the
difference between O(facts) and O(stages × facts) total index work over
a fixpoint computation.  The bulk mutators ``add_batch``/
``discard_batch`` run the same maintenance, one pass per live index
over the whole batch; :meth:`Relation.check_invariants` compares every
live index with a from-scratch rebuild.  ``Relation.version`` is a
monotone counter bumped on every mutation; snapshot consumers key
caches on it.  The counters :attr:`Relation.index_builds` /
:attr:`Relation.index_updates` feed the engines'
:class:`~repro.semantics.base.EngineStats`.

Two physical index shapes coexist:

* *flat* hash indexes (:meth:`Relation.index`) — one dict per distinct
  position tuple, keys in position order; built by the interpreted
  matcher and the planner-off compiled kernel;
* *chain* indexes (:meth:`Relation.chain_index`) — a nested-dict trie
  whose column order is chosen by the query planner's minimal index
  cover (MISP), so a single physical index serves every key template
  that is a prefix of the chain.  :meth:`Relation.probe_chain` answers
  a prefix probe at any depth; per-depth distinct-key counts are
  maintained live and feed the planner's cardinality estimates
  (:meth:`Relation.distinct_estimate`).

Either shape can be dropped (:meth:`drop_index` /
:meth:`drop_chain_index`) — the planner garbage-collects indexes its
cover no longer needs, counted by :attr:`Relation.index_drops`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.schema import DatabaseSchema, RelationSchema

Fact = tuple[str, tuple[Hashable, ...]]


def _no_key(t: tuple) -> tuple:
    """The flat-index key on no positions."""
    return ()


def _fill_flat(table: dict, positions: tuple[int, ...], ts) -> None:
    """File each of ``ts`` under its key in one flat index."""
    single = len(positions) == 1
    p = positions[0] if single else 0
    get = None if single else itemgetter(*positions) if positions else _no_key
    for t in ts:
        key = (t[p],) if single else get(t)
        bucket = table.get(key)
        if bucket is None:
            table[key] = {t: None}
        else:
            bucket[t] = None


def _unfile_flat(table: dict, positions: tuple[int, ...], ts) -> None:
    """Remove each of ``ts`` from one flat index, pruning empty buckets."""
    single = len(positions) == 1
    p = positions[0] if single else 0
    get = None if single else itemgetter(*positions) if positions else _no_key
    for t in ts:
        key = (t[p],) if single else get(t)
        bucket = table.get(key)
        if bucket is not None:
            del bucket[t]
            if not bucket:
                del table[key]


def _fill_chain(root: dict, counts: list[int], order: tuple[int, ...],
                ts) -> None:
    """Thread each of ``ts`` into one chain trie, counting new prefixes."""
    for t in ts:
        node = root
        depth = 0
        for p in order:
            v = t[p]
            child = node.get(v)
            if child is None:
                child = node[v] = {}
                counts[depth] += 1
            node = child
            depth += 1
        node[t] = None


class Relation:
    """A mutable finite set of tuples of a fixed arity."""

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_indexes",
        "_chains",
        "_chain_counts",
        "_version",
        "_index_builds",
        "_index_updates",
        "_index_drops",
    )

    #: Class-wide switch.  When True (the default), mutations update live
    #: indexes in place; when False, every mutation drops all cached
    #: indexes (the pre-incremental behavior).  The benchmark suite flips
    #: this to measure the win of incremental maintenance; production
    #: code should never touch it.
    incremental_maintenance: bool = True

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple] = ()):
        self.name = name
        self.arity = arity
        self._tuples: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, dict[tuple, None]]] = {}
        #: Chain (trie) indexes: column order → nested dicts; the node
        #: after the last column is the bucket (``dict[tuple, None]``).
        self._chains: dict[tuple[int, ...], dict] = {}
        #: Per-chain live statistics: ``counts[d]`` is the number of
        #: distinct key prefixes of length d+1 (planner fan-out input).
        self._chain_counts: dict[tuple[int, ...], list[int]] = {}
        self._version = 0
        self._index_builds = 0
        self._index_updates = 0
        self._index_drops = 0
        for t in tuples:
            self.add(t)

    def _check(self, t: tuple) -> tuple:
        if not isinstance(t, tuple):
            t = tuple(t)
        if len(t) != self.arity:
            raise self._arity_error(t)
        return t

    # -- incremental index maintenance --------------------------------------
    #
    # One copy of the maintenance code per direction.  Both helpers take
    # a sequence of distinct tuples and walk it once per live index (the
    # index loop outside, the tuple loop inside), so a batch pays the
    # per-index setup once; the single-tuple mutators pass a 1-tuple.

    def _index_insert(
        self, fresh: "list[tuple] | tuple[tuple, ...]"
    ) -> None:
        """Thread new tuples into every live flat index and chain trie."""
        n = len(fresh)
        for positions, table in self._indexes.items():
            _fill_flat(table, positions, fresh)
            self._index_updates += n
        for order, root in self._chains.items():
            _fill_chain(root, self._chain_counts[order], order, fresh)
            self._index_updates += n

    def _index_remove(
        self, gone: "list[tuple] | tuple[tuple, ...]"
    ) -> None:
        """Remove tuples from every live flat index and chain trie.

        O(1) per bucket: buckets are insertion-ordered dicts, so
        deletion is a hash delete — no O(bucket) ``list.remove`` scan.
        Emptied buckets and trie nodes are pruned, and each chain's
        per-depth distinct-prefix counts follow.
        """
        n = len(gone)
        for positions, table in self._indexes.items():
            _unfile_flat(table, positions, gone)
            self._index_updates += n
        for order, root in self._chains.items():
            counts = self._chain_counts[order]
            last = len(order) - 1
            for t in gone:
                parents: list[dict] = []
                node = root
                for p in order:
                    child = node.get(t[p])
                    if child is None:
                        break
                    parents.append(node)
                    node = child
                else:
                    node.pop(t, None)
                    depth = last
                    while depth >= 0 and not node:
                        node = parents[depth]
                        del node[t[order[depth]]]
                        counts[depth] -= 1
                        depth -= 1
            self._index_updates += n

    def _drop_all_indexes(self) -> None:
        """The non-incremental mode: every mutation frees every index."""
        self._indexes.clear()
        self._chains.clear()
        self._chain_counts.clear()

    def _arity_error(self, t: tuple) -> SchemaError:
        return SchemaError(
            f"tuple {t!r} has arity {len(t)}, but relation "
            f"{self.name!r} has arity {self.arity}"
        )

    def add(self, t: tuple) -> bool:
        """Insert a tuple; return True if it was new."""
        t = self._check(t)
        if t in self._tuples:
            return False
        self._tuples.add(t)
        self._version += 1
        if not Relation.incremental_maintenance:
            self._drop_all_indexes()
        elif self._indexes or self._chains:
            self._index_insert((t,))
        return True

    def add_batch(self, ts) -> list[tuple]:
        """Bulk insert; returns the tuples of ``ts`` that were not present.

        The consequence-absorption hot path: one membership filter and
        one ``set.update`` replace the per-fact ``add`` call chain, and
        index and chain maintenance walks the new tuples once per live
        index.  Callers pass engine-built tuples (head instantiations),
        so the per-tuple coercion of :meth:`_check` is skipped — only
        the arity is verified, before anything changes, so a bad tuple
        leaves the relation untouched.  The returned list follows the
        order of ``ts`` (a tuple repeated in ``ts`` is listed once per
        occurrence); indexes, counters and :attr:`version` see each new
        tuple once, exactly as a run of :meth:`add` calls would.
        """
        tuples = self._tuples
        fresh = [t for t in ts if t not in tuples]
        if not fresh:
            return fresh
        arity = self.arity
        for t in fresh:
            if len(t) != arity:
                raise self._arity_error(t)
        before = len(tuples)
        tuples.update(fresh)
        added = len(tuples) - before
        self._version += added
        if not Relation.incremental_maintenance:
            self._drop_all_indexes()
        elif self._indexes or self._chains:
            self._index_insert(
                fresh if added == len(fresh) else list(dict.fromkeys(fresh))
            )
        return fresh

    def discard(self, t: tuple) -> bool:
        """Remove a tuple; return True if it was present."""
        t = self._check(t)
        if t not in self._tuples:
            return False
        self._tuples.remove(t)
        self._version += 1
        if not Relation.incremental_maintenance:
            self._drop_all_indexes()
        elif self._indexes or self._chains:
            self._index_remove((t,))
        return True

    def discard_batch(self, ts) -> list[tuple]:
        """Bulk remove; returns the tuples of ``ts`` that were present.

        The mirror of :meth:`add_batch`: every arity is verified before
        anything changes, the per-fact ``discard`` call chain collapses
        into one loop over the set, and index and chain maintenance
        walks the removed tuples once per live index.  The returned
        list follows the order of ``ts`` (a tuple repeated in ``ts`` is
        listed once per occurrence); indexes, counters and
        :attr:`version` see each removed tuple once.
        """
        tuples = self._tuples
        arity = self.arity
        gone = []
        for t in ts:
            if len(t) != arity:
                raise self._arity_error(t)
            if t in tuples:
                gone.append(t)
        if not gone:
            return gone
        before = len(tuples)
        # Per-tuple removal, not ``difference_update``: that one also
        # compacts the hash table, which would reorder later full scans
        # and index builds away from what ``discard`` calls produce.
        remove = tuples.discard
        for t in gone:
            remove(t)
        removed = before - len(tuples)
        self._version += removed
        if not Relation.incremental_maintenance:
            self._drop_all_indexes()
        elif self._indexes or self._chains:
            self._index_remove(
                gone if removed == len(gone) else list(dict.fromkeys(gone))
            )
        return gone

    def update(self, tuples: Iterable[tuple]) -> int:
        """Insert many tuples; return how many were new."""
        added = 0
        for t in tuples:
            if self.add(t):
                added += 1
        return added

    def clear(self) -> None:
        if self._tuples:
            self._tuples.clear()
            self._version += 1
            if Relation.incremental_maintenance:
                # Keep the indexes live (all empty) so later adds
                # maintain them without a rebuild.
                for table in self._indexes.values():
                    table.clear()
                for order, root in self._chains.items():
                    root.clear()
                    counts = self._chain_counts[order]
                    for depth in range(len(counts)):
                        counts[depth] = 0
            else:
                self._drop_all_indexes()

    def replace(self, tuples: Iterable[tuple]) -> None:
        """Replace the whole content (used by while-language assignment)."""
        new = {self._check(t) for t in tuples}
        if new == self._tuples:
            return
        if (self._indexes or self._chains) and Relation.incremental_maintenance:
            added = new - self._tuples
            removed = self._tuples - new
            if len(added) + len(removed) <= len(new):
                # Small diff: patch the live indexes in place.
                self._index_remove(list(removed))
                self._index_insert(list(added))
            else:
                # Wholesale change: cheaper to rebuild lazily.
                self._drop_all_indexes()
        else:
            self._drop_all_indexes()
        self._tuples = new
        self._version += 1

    def __contains__(self, t: tuple) -> bool:
        return t in self._tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self._tuples == other._tuples

    def __repr__(self) -> str:
        return f"Relation({self.name!r}/{self.arity}, {len(self)} tuples)"

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (index cache key)."""
        return self._version

    @property
    def index_builds(self) -> int:
        """How many times a full index was built from scratch."""
        return self._index_builds

    @property
    def index_updates(self) -> int:
        """How many single-tuple in-place index maintenance operations ran."""
        return self._index_updates

    @property
    def index_drops(self) -> int:
        """How many live indexes the planner's GC freed."""
        return self._index_drops

    def index_counters(self) -> tuple[int, int]:
        """(full builds, incremental updates) — see :class:`EngineStats`."""
        return self._index_builds, self._index_updates

    def tuples(self) -> frozenset[tuple]:
        """An immutable snapshot of the current content."""
        return frozenset(self._tuples)

    def live_set(self) -> set[tuple]:
        """The live tuple set itself — a zero-copy read-only view.

        The batch kernels subtract a relation's current content from
        their deduped head emissions in one ``difference_update``;
        copying via :meth:`tuples` per kernel call would cost more
        than the subtraction saves.  Callers must not mutate it.
        """
        return self._tuples

    def index(self, positions: tuple[int, ...]) -> dict[tuple, dict[tuple, None]]:
        """A hash index on the given positions, built lazily and cached.

        Maps each distinct key (the projection of a tuple onto
        ``positions``) to an ordered set (``dict[tuple, None]``) of the
        tuples with that key; iterate a bucket directly for the matching
        tuples.  The returned dict is live — it is maintained in place
        by subsequent mutations — so callers must not modify it, and
        must snapshot a bucket before iterating across their own writes.
        """
        cached = self._indexes.get(positions)
        if cached is not None:
            return cached
        built: dict[tuple, dict[tuple, None]] = {}
        _fill_flat(built, positions, self._tuples)
        self._indexes[positions] = built
        self._index_builds += 1
        return built

    # -- chain (trie) indexes -----------------------------------------------

    def chain_index(self, order: tuple[int, ...]) -> dict:
        """A trie index over ``order``, built lazily and cached.

        Level d of the trie maps the value at position ``order[d]`` to the
        next level; the node below the last level is an ordered-set bucket
        (``dict[tuple, None]``).  Any key template whose positions are a
        prefix of ``order`` can be answered by :meth:`probe_chain`, which
        is what lets the planner's minimal cover replace several flat
        indexes with one chain.  Like flat indexes the returned trie is
        live; callers must not modify it.
        """
        cached = self._chains.get(order)
        if cached is not None:
            return cached
        root: dict = {}
        counts = [0] * len(order)
        _fill_chain(root, counts, order, self._tuples)
        self._chains[order] = root
        self._chain_counts[order] = counts
        self._index_builds += 1
        return root

    def probe_chain(
        self, order: tuple[int, ...], depth: int, key: tuple
    ) -> list[tuple]:
        """Tuples whose values at ``order[:depth]`` equal ``key``.

        A full-depth probe reads one bucket; a prefix probe collects the
        buckets under the matched subtrie (enumeration order is insertion
        order, same as the equivalent flat-index bucket).
        """
        node = self._chains.get(order)
        if node is None:
            node = self.chain_index(order)
        for v in key:
            node = node.get(v)
            if node is None:
                return []
        if depth == len(order):
            return list(node)
        out: list[tuple] = []
        self._collect(node, len(order) - depth, out)
        return out

    def probe_chain_live(
        self, order: tuple[int, ...], depth: int, key: tuple
    ) -> "Iterable[tuple]":
        """:meth:`probe_chain` without the defensive snapshot.

        A full-depth probe returns the live bucket itself (iterating it
        yields the tuples in the same insertion order the snapshot
        would).  The caller must not mutate the relation while
        consuming the result — the codegen tier's fused ``run_emit``
        path qualifies, since it never yields control mid-walk.
        """
        node = self._chains.get(order)
        if node is None:
            node = self.chain_index(order)
        for v in key:
            node = node.get(v)
            if node is None:
                return ()
        if depth == len(order):
            return node
        out: list[tuple] = []
        self._collect(node, len(order) - depth, out)
        return out

    @staticmethod
    def _collect(node: dict, remaining: int, out: list[tuple]) -> None:
        if remaining == 0:
            out.extend(node)
            return
        for child in node.values():
            Relation._collect(child, remaining - 1, out)

    def chain_key_count(self, order: tuple[int, ...], depth: int) -> int:
        """Distinct key prefixes of length ``depth`` in a live chain."""
        if depth == 0:
            return 1 if self._tuples else 0
        counts = self._chain_counts.get(order)
        if counts is None:
            self.chain_index(order)
            counts = self._chain_counts[order]
        return counts[depth - 1]

    def distinct_estimate(self, positions: frozenset[int]) -> int | None:
        """Distinct-key count for a position set, from live indexes only.

        Consults flat indexes first, then chain prefixes; returns ``None``
        when no live index covers the set (the planner then falls back to
        a heuristic).  Never builds anything — estimates must be free.
        """
        flat = self._indexes.get(tuple(sorted(positions)))
        if flat is not None:
            return len(flat)
        for order, counts in self._chain_counts.items():
            depth = len(positions)
            if depth <= len(order) and frozenset(order[:depth]) == positions:
                return counts[depth - 1] if depth else len(self._tuples)
        return None

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless every live index fits ``_tuples``.

        Each flat index, chain trie and chain's distinct-prefix counts
        is compared with a from-scratch rebuild of the current tuple
        set (dict equality: same keys, same bucket members, no empty
        leftovers).  A debugging and test aid — it costs a full
        rebuild of every live index.
        """
        tuples = self._tuples
        for positions, table in self._indexes.items():
            rebuilt: dict = {}
            for t in tuples:
                key = tuple(t[p] for p in positions)
                rebuilt.setdefault(key, {})[t] = None
            if table != rebuilt:
                raise AssertionError(
                    f"{self.name}: flat index {positions} diverged from "
                    f"its tuples"
                )
        if set(self._chain_counts) != set(self._chains):
            raise AssertionError(
                f"{self.name}: chain counts kept for "
                f"{sorted(self._chain_counts)}, chains live for "
                f"{sorted(self._chains)}"
            )
        for order, root in self._chains.items():
            rebuilt = {}
            prefixes: list[set] = [set() for _ in order]
            for t in tuples:
                node = rebuilt
                for depth, p in enumerate(order):
                    node = node.setdefault(t[p], {})
                    prefixes[depth].add(tuple(t[q] for q in order[:depth + 1]))
                node[t] = None
            if root != rebuilt:
                raise AssertionError(
                    f"{self.name}: chain index {order} diverged from its "
                    f"tuples"
                )
            counts = [len(level) for level in prefixes]
            if self._chain_counts[order] != counts:
                raise AssertionError(
                    f"{self.name}: chain {order} counts "
                    f"{self._chain_counts[order]} != rebuilt {counts}"
                )

    def live_indexes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Shapes currently materialized: ("flat"|"chain", positions/order)."""
        out: list[tuple[str, tuple[int, ...]]] = []
        out.extend(("flat", positions) for positions in self._indexes)
        out.extend(("chain", order) for order in self._chains)
        return out

    def drop_index(self, positions: tuple[int, ...]) -> bool:
        """Free a flat index (planner GC); True if one was live."""
        if self._indexes.pop(positions, None) is None:
            return False
        self._index_drops += 1
        return True

    def drop_chain_index(self, order: tuple[int, ...]) -> bool:
        """Free a chain index (planner GC); True if one was live."""
        if self._chains.pop(order, None) is None:
            return False
        del self._chain_counts[order]
        self._index_drops += 1
        return True

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.arity)
        clone._tuples = set(self._tuples)
        if Relation.incremental_maintenance:
            # Carrying the live indexes over is cheaper than letting the
            # clone rebuild them from scratch on first use.
            clone._indexes = {
                positions: {key: dict(bucket) for key, bucket in table.items()}
                for positions, table in self._indexes.items()
            }
            clone._chains = {
                order: self._copy_trie(root, len(order))
                for order, root in self._chains.items()
            }
            clone._chain_counts = {
                order: list(counts) for order, counts in self._chain_counts.items()
            }
        return clone

    @staticmethod
    def _copy_trie(node: dict, remaining: int) -> dict:
        if remaining == 0:
            return dict(node)
        return {
            v: Relation._copy_trie(child, remaining - 1)
            for v, child in node.items()
        }

    def values(self) -> set[Hashable]:
        """All domain values occurring in this relation."""
        out: set[Hashable] = set()
        for t in self._tuples:
            out.update(t)
        return out


class Database:
    """A mutable database instance: a mapping from relation names to relations.

    Construct from a plain dict of name → iterable of tuples::

        db = Database({"G": [("a", "b"), ("b", "c")]})

    Relations are created on first reference; arity is inferred from the
    first tuple (or set explicitly via :meth:`ensure_relation`).  An
    explicitly empty relation can be seeded with a ``(name, arity)``
    key::

        db = Database({("G", 2): []})

    With a plain-string key and no tuples the arity is unknown; the name
    is *deferred*: it shows up in :meth:`relation_names` and negation
    semantics treat it as empty, but an operation that needs the arity
    (:meth:`schema`) raises :class:`~repro.errors.SchemaError` until the
    arity is fixed by a first fact or an :meth:`ensure_relation` call.
    """

    __slots__ = ("_relations", "_deferred")

    def __init__(
        self,
        contents: dict[str | tuple[str, int], Iterable[tuple]] | None = None,
    ):
        self._relations: dict[str, Relation] = {}
        self._deferred: set[str] = set()
        if contents:
            for key, tuples in contents.items():
                tuples = [t if isinstance(t, tuple) else tuple(t) for t in tuples]
                if isinstance(key, tuple):
                    name, arity = key
                    self.ensure_relation(name, arity).update(tuples)
                elif tuples:
                    self.ensure_relation(key, len(tuples[0])).update(tuples)
                else:
                    # Arity unknown for an empty relation given as a list
                    # under a plain-string key: register the name and
                    # resolve the arity on first use.
                    self._deferred.add(key)

    def ensure_relation(self, name: str, arity: int) -> Relation:
        """Get the relation, creating it empty if absent; check arity."""
        rel = self._relations.get(name)
        if rel is None:
            rel = Relation(name, arity)
            self._relations[name] = rel
            self._deferred.discard(name)
        elif rel.arity != arity:
            raise SchemaError(
                f"relation {name!r} has arity {rel.arity}, requested {arity}"
            )
        return rel

    def relation(self, name: str) -> Relation | None:
        """The relation of that name, or None if absent."""
        return self._relations.get(name)

    def tuples(self, name: str) -> frozenset[tuple]:
        """Snapshot of a relation's tuples (empty if the relation is absent)."""
        rel = self._relations.get(name)
        return rel.tuples() if rel is not None else frozenset()

    def has_fact(self, name: str, t: tuple) -> bool:
        rel = self._relations.get(name)
        return rel is not None and t in rel

    def add_fact(self, name: str, t: tuple) -> bool:
        """Insert one fact, creating the relation if needed."""
        t = tuple(t)
        rel = self.ensure_relation(name, len(t))
        return rel.add(t)

    def remove_fact(self, name: str, t: tuple) -> bool:
        rel = self._relations.get(name)
        if rel is None:
            return False
        return rel.discard(tuple(t))

    def facts(self) -> Iterator[Fact]:
        """Iterate over all (relation name, tuple) facts."""
        for name, rel in self._relations.items():
            for t in rel:
                yield (name, t)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def relation_names(self) -> list[str]:
        out = list(self._relations)
        out.extend(sorted(self._deferred))
        return out

    def index_counters(self) -> tuple[int, int]:
        """(full index builds, incremental index updates), summed.

        Reads the slots directly: this runs once per evaluation stage
        over every relation, and the property-descriptor indirection
        is measurable there.
        """
        builds = updates = 0
        for rel in self._relations.values():
            builds += rel._index_builds
            updates += rel._index_updates
        return builds, updates

    def index_drop_count(self) -> int:
        """Indexes freed by planner GC, summed over relations."""
        return sum(rel._index_drops for rel in self._relations.values())

    def index_totals(self) -> tuple[int, int, int]:
        """(builds, updates, drops) in one relation walk.

        The stage-accounting hot path: :class:`StatsRecorder` diffs
        these totals after every consequence pass, so the three sums
        share a single pass instead of walking the relations twice.
        """
        builds = updates = drops = 0
        for rel in self._relations.values():
            builds += rel._index_builds
            updates += rel._index_updates
            drops += rel._index_drops
        return builds, updates, drops

    def check_invariants(self) -> None:
        """:meth:`Relation.check_invariants` on every relation."""
        for rel in self._relations.values():
            rel.check_invariants()

    def active_domain(self) -> set[Hashable]:
        """adom(I): every constant occurring in some tuple of the instance."""
        out: set[Hashable] = set()
        for rel in self._relations.values():
            out |= rel.values()
        return out

    def schema(self) -> DatabaseSchema:
        """The schema induced by the current relations.

        Raises :class:`SchemaError` if the instance still holds deferred
        empty relations — their arity is unknown, so no schema exists.
        """
        if self._deferred:
            names = ", ".join(sorted(self._deferred))
            raise SchemaError(
                f"arity of empty relation(s) {names} is unknown; seed them "
                "with a (name, arity) key or call ensure_relation first"
            )
        return DatabaseSchema(
            [RelationSchema(rel.name, rel.arity) for rel in self._relations.values()]
        )

    def copy(self) -> "Database":
        clone = Database()
        clone._relations = {name: rel.copy() for name, rel in self._relations.items()}
        clone._deferred = set(self._deferred)
        return clone

    def restrict(self, names: Iterable[str]) -> "Database":
        """A copy containing only the named relations (present ones)."""
        clone = Database()
        for name in names:
            rel = self._relations.get(name)
            if rel is not None:
                clone._relations[name] = rel.copy()
            elif name in self._deferred:
                clone._deferred.add(name)
        return clone

    def drop(self, name: str) -> None:
        self._relations.pop(name, None)
        self._deferred.discard(name)

    def canonical(self) -> frozenset[Fact]:
        """A hashable snapshot of the full instance (for cycle detection)."""
        return frozenset(self.facts())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __contains__(self, name: str) -> bool:
        return name in self._relations or name in self._deferred

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}: {len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"

    def pretty(self, names: Iterable[str] | None = None) -> str:
        """A deterministic human-readable rendering, for examples and docs."""
        lines = []
        for name in sorted(names if names is not None else self.relation_names()):
            rel = self._relations.get(name)
            rows = sorted(rel.tuples(), key=repr) if rel is not None else []
            body = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in rows)
            lines.append(f"{name} = {{{body}}}")
        return "\n".join(lines)

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Database":
        db = cls()
        for name, t in facts:
            db.add_fact(name, t)
        return db
