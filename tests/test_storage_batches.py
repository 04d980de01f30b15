"""Batched storage mutations against the per-fact path.

``Relation.add_batch``/``discard_batch`` walk each live index once per
batch; ``add``/``discard`` run the same maintenance helpers with one
tuple.  A seeded property test drives two relations through the same
interleaved mutation stream — one per fact, one mostly in batches,
with duplicates, absent tuples and index (re)builds and drops mixed
in — and requires identical content, identical index layouts *in
enumeration order*, identical counters and a clean
``check_invariants()`` after every step, with incremental maintenance
both on and off.
"""

import random

import pytest

from repro.errors import SchemaError
from repro.relational.instance import Database, Relation

ARITY = 3
VALUES = range(4)
SHAPES = [
    ("flat", (0,)),
    ("flat", (1, 2)),
    ("flat", ()),
    ("chain", (2, 0)),
    ("chain", (0, 1, 2)),
    ("chain", (1,)),
]


@pytest.fixture(params=[True, False], ids=["incremental", "rebuild"])
def maintenance(request, monkeypatch):
    monkeypatch.setattr(Relation, "incremental_maintenance", request.param)
    return request.param


def layout(rel: Relation):
    """Content, every live index in enumeration order, and counters."""

    def trie(node, depth):
        if depth == 0:
            return list(node)
        return [(v, trie(child, depth - 1)) for v, child in node.items()]

    return (
        list(rel),  # the set's own order: full scans and index builds
        {
            positions: [(key, list(bucket)) for key, bucket in table.items()]
            for positions, table in rel._indexes.items()
        },
        {order: trie(root, len(order)) for order, root in rel._chains.items()},
        {order: list(counts) for order, counts in rel._chain_counts.items()},
        rel.version,
        rel.index_builds,
        rel.index_updates,
        rel.index_drops,
    )


def random_tuples(rng, present):
    """A batch with duplicates, absent tuples and (maybe) present ones."""
    ts = [
        tuple(rng.choice(VALUES) for _ in range(ARITY))
        for _ in range(rng.randint(0, 5))
    ]
    if present:
        ts += rng.sample(sorted(present), k=min(2, len(present)))
    if ts:
        ts += rng.choices(ts, k=rng.randint(0, 2))
    rng.shuffle(ts)
    return ts


@pytest.mark.parametrize("seed", range(25))
def test_batches_match_the_per_fact_path(seed, maintenance):
    rng = random.Random(seed)
    single = Relation("R", ARITY)
    batched = Relation("R", ARITY)
    for _ in range(80):
        roll = rng.random()
        if roll < 0.15:
            kind, shape = rng.choice(SHAPES)
            for rel in (single, batched):
                if kind == "flat":
                    rel.index(shape)
                else:
                    rel.chain_index(shape)
        elif roll < 0.2:
            kind, shape = rng.choice(SHAPES)
            for rel in (single, batched):
                if kind == "flat":
                    rel.drop_index(shape)
                else:
                    rel.drop_chain_index(shape)
        else:
            ts = random_tuples(rng, single.tuples())
            adding = rng.random() < 0.55
            if adding:
                expected = [t for t in ts if t not in single]
                for t in ts:
                    single.add(t)
            else:
                expected = [t for t in ts if t in single]
                for t in ts:
                    single.discard(t)
            if rng.random() < 0.25:
                # The per-fact mutators on the batched side too, so the
                # two paths interleave on one relation.
                for t in ts:
                    (batched.add if adding else batched.discard)(t)
            elif adding:
                assert batched.add_batch(ts) == expected
            else:
                assert batched.discard_batch(ts) == expected
        assert layout(single) == layout(batched)
        single.check_invariants()
        batched.check_invariants()


def test_bad_arity_batch_leaves_state_untouched(maintenance):
    rel = Relation("R", 2, [(1, 2), (2, 3), (3, 4)])
    rel.index((0,))
    rel.chain_index((1, 0))
    before = layout(rel)
    with pytest.raises(SchemaError):
        rel.add_batch([(5, 6), (7,), (8, 9)])
    assert layout(rel) == before
    with pytest.raises(SchemaError):
        rel.discard_batch([(1, 2), (2, 3, 4)])
    assert layout(rel) == before
    rel.check_invariants()


def test_empty_and_absent_batches_change_nothing(maintenance):
    rel = Relation("R", 2, [(1, 2)])
    rel.chain_index((0, 1))
    before = layout(rel)
    assert rel.add_batch([]) == []
    assert rel.add_batch([(1, 2), (1, 2)]) == []
    assert rel.discard_batch([]) == []
    assert rel.discard_batch([(5, 5), (6, 6)]) == []
    assert layout(rel) == before


class TestCheckInvariants:

    def live(self):
        rel = Relation("R", 2, [(1, 2), (1, 3), (2, 3)])
        rel.index((0,))
        rel.chain_index((1, 0))
        rel.check_invariants()
        return rel

    def test_stale_flat_bucket_is_caught(self):
        rel = self.live()
        rel._indexes[(0,)][(1,)][(1, 9)] = None
        with pytest.raises(AssertionError, match="flat index"):
            rel.check_invariants()

    def test_leftover_empty_bucket_is_caught(self):
        rel = self.live()
        rel._indexes[(0,)][(7,)] = {}
        with pytest.raises(AssertionError, match="flat index"):
            rel.check_invariants()

    def test_stale_chain_node_is_caught(self):
        rel = self.live()
        del rel._chains[(1, 0)][3][2]
        with pytest.raises(AssertionError, match="chain index"):
            rel.check_invariants()

    def test_wrong_chain_count_is_caught(self):
        rel = self.live()
        rel._chain_counts[(1, 0)][0] += 1
        with pytest.raises(AssertionError, match="counts"):
            rel.check_invariants()

    def test_database_checks_every_relation(self):
        db = Database({"G": [(1, 2)], "H": [(3,)]})
        db.relation("H").index((0,))
        db.check_invariants()
        db.relation("H")._indexes[(0,)].clear()
        with pytest.raises(AssertionError, match="H"):
            db.check_invariants()
