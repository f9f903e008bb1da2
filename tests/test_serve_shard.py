"""Merge-correctness tests for the sharded serving tier (DESIGN.md §16).

The load-bearing invariant: the scatter-gather merge over ANY shard
assignment must equal the single-index brute-force top-k EXACTLY — same
ids, same order, same distances bit for bit, including ties at the k
boundary (tie rule: lowest global id wins, the order a stable argsort
over one flat index produces).  The property tests exercise the merge in
pure numpy over random assignments at shard counts 1, 2, 4 and 7; the
``@pytest.mark.shard`` tests drive real spawned worker processes through
the same contract.
"""

import numpy as np
import pytest

from repro.obs import get_registry, get_tracer
from repro.serve import (
    FeatureEncoder,
    ShardedSimilarityServer,
    SimilarityServer,
    assign_shard,
    merge_topk,
    trajectory_key,
)

DIM = 8


def _brute_topk(emb, q, k):
    """Single flat index ground truth: squared L2, stable argsort."""
    sq = ((emb - q[None, :]) ** 2).sum(axis=1)
    order = np.argsort(sq, kind="stable")[:k]
    return sq[order], order


def _shard_parts(emb, q, assign, n_shards):
    """Per-shard (squared dists ascending, global ids) — what workers send."""
    parts = []
    for s in range(n_shards):
        gids = np.flatnonzero(assign == s)
        if not len(gids):
            parts.append((np.zeros(0), np.zeros(0, dtype=int)))
            continue
        sq = ((emb[gids] - q[None, :]) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        parts.append((sq[order], gids[order]))
    return parts


def _trajs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(6, 16)), 2)).cumsum(axis=0)
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Shard assignment
# ---------------------------------------------------------------------------


class TestAssignShard:
    def test_round_robin_covers_all_shards_evenly(self):
        shards = [assign_shard(gid, 4) for gid in range(40)]
        assert sorted(set(shards)) == [0, 1, 2, 3]
        assert all(shards.count(s) == 10 for s in range(4))

    def test_hash_strategy_is_deterministic_and_in_range(self):
        key = trajectory_key(np.ones((5, 2)))
        a = assign_shard(0, 7, strategy="hash", key=key)
        b = assign_shard(99, 7, strategy="hash", key=key)
        assert a == b  # depends only on content, not gid
        assert 0 <= a < 7

    def test_hash_strategy_requires_a_key(self):
        with pytest.raises(ValueError):
            assign_shard(0, 4, strategy="hash")

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            assign_shard(0, 4, strategy="alphabetical")


# ---------------------------------------------------------------------------
# The merge property, pure numpy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
def test_merge_matches_single_index_over_random_assignments(n_shards):
    rng = np.random.default_rng(100 + n_shards)
    n, k = 200, 12
    emb = rng.normal(size=(n, DIM))
    # Exact duplicate rows force bit-identical distances: the merge must
    # reproduce the single-index tie order, not just the same set.
    emb[50] = emb[10]
    emb[120] = emb[10]
    emb[33] = emb[77]
    for trial in range(6):
        # Half the queries ARE database rows, so distance zero (and its
        # duplicates) sits inside the top-k.
        q = emb[int(rng.integers(0, n))] if trial % 2 else rng.normal(size=DIM)
        assign = rng.integers(0, n_shards, size=n)
        dists, gids = merge_topk(_shard_parts(emb, q, assign, n_shards), k)
        exp_sq, exp_ids = _brute_topk(emb, q, k)
        assert np.array_equal(gids, exp_ids)
        assert np.array_equal(dists, exp_sq)


@pytest.mark.parametrize("n_shards", [2, 4, 7])
def test_merge_breaks_k_boundary_ties_by_lowest_gid(n_shards):
    """A tie group straddling the k boundary must resolve by global id."""
    rng = np.random.default_rng(7)
    n, k = 60, 8
    emb = rng.normal(size=(n, DIM))
    q = rng.normal(size=DIM)
    # Rows 5, 17, 29, 41, 53 are identical: five equidistant candidates.
    for gid in (17, 29, 41, 53):
        emb[gid] = emb[5]
    # Make the tie group the nearest candidates so it spans positions
    # 0..4; with k=8 the group is fully inside, shrink k to cut it.
    emb[5] = q + 1e-9
    for gid in (17, 29, 41, 53):
        emb[gid] = emb[5]
    assign = rng.integers(0, n_shards, size=n)
    for k_cut in (3, 5, 8):
        dists, gids = merge_topk(_shard_parts(emb, q, assign, n_shards), k_cut)
        exp_sq, exp_ids = _brute_topk(emb, q, k_cut)
        assert np.array_equal(gids, exp_ids), (k_cut, gids, exp_ids)
        assert np.array_equal(dists, exp_sq)
        # The tie group members selected are exactly the lowest gids.
        tie = [g for g in gids if g in (5, 17, 29, 41, 53)]
        assert tie == sorted((5, 17, 29, 41, 53))[: len(tie)]


def test_merge_handles_empty_parts_and_small_k():
    dists, gids = merge_topk([(np.zeros(0), np.zeros(0, dtype=int))], 5)
    assert len(dists) == 0 and len(gids) == 0
    parts = [(np.array([2.0, 3.0]), np.array([4, 1])), (np.array([1.0]), np.array([9]))]
    dists, gids = merge_topk(parts, 2)
    assert list(gids) == [9, 4]
    assert list(dists) == [1.0, 2.0]
    dists, gids = merge_topk(parts, 0)
    assert len(gids) == 0


# ---------------------------------------------------------------------------
# End to end through real worker processes
# ---------------------------------------------------------------------------


@pytest.mark.shard
@pytest.mark.parametrize("n_shards,strategy", [(1, "round-robin"), (3, "hash")])
def test_sharded_topk_is_exact_over_processes(n_shards, strategy):
    """Process-pool answers match the flat brute force bit for bit."""
    trajs = _trajs(36, seed=3)
    enc = FeatureEncoder(dim=DIM, seed=0)
    emb = np.asarray(enc(trajs), dtype=np.float64)
    srv = ShardedSimilarityServer(
        enc,
        dim=DIM,
        n_shards=n_shards,
        strategy=strategy,
        brute_threshold=10**9,  # exact path in every worker
        shard_deadline_s=30.0,
    )
    try:
        srv.add_batch(trajs)
        rng = np.random.default_rng(11)
        for _ in range(4):
            q = rng.normal(size=(9, 2)).cumsum(axis=0)
            qe = np.asarray(enc([q]), dtype=np.float64)[0]
            exp_sq, exp_ids = _brute_topk(emb, qe, 5)
            result = srv.topk(q, k=5)
            assert not result.degraded
            assert result.source == "sharded"
            assert np.array_equal(result.ids, exp_ids)
            assert np.array_equal(result.distances, np.sqrt(exp_sq))
        # Cache hit path returns the identical answer.
        again = srv.topk(q, k=5)
        assert again.cache_hit
        assert np.array_equal(again.ids, exp_ids)
    finally:
        srv.close()


@pytest.mark.shard
def test_hnsw_path_matches_in_process_replica():
    """Worker HNSW answers equal a replica rebuilt from its state dump."""
    from repro.index.hnsw import HNSWIndex
    from repro.serve.engine import search_embeddings

    trajs = _trajs(48, seed=5)
    enc = FeatureEncoder(dim=DIM, seed=0)
    srv = ShardedSimilarityServer(
        enc,
        dim=DIM,
        n_shards=2,
        brute_threshold=0,  # force the HNSW path in every worker
        shard_deadline_s=30.0,
    )
    try:
        srv.add_batch(trajs)
        replicas = []
        for i in range(2):
            dump = srv.dump_shard(i)
            replicas.append(
                (HNSWIndex.from_state(dump["state"]), np.asarray(dump["gids"]))
            )
        q = np.linspace(0, 1, 16).reshape(8, 2)
        result = srv.topk(q, k=4)
        assert not result.degraded
        qe = srv.cache.get(trajectory_key(q))
        assert qe is not None
        parts = []
        for index, gids in replicas:
            sq, ids, source = search_embeddings(index, qe, 4, brute_threshold=0)
            assert source == "hnsw"
            parts.append((sq, gids[ids]))
        exp_sq, exp_ids = merge_topk(parts, 4)
        assert np.array_equal(result.ids, exp_ids)
        assert np.array_equal(result.distances, np.sqrt(exp_sq))
    finally:
        srv.close()


@pytest.mark.shard
def test_add_after_serving_is_visible():
    trajs = _trajs(20, seed=9)
    enc = FeatureEncoder(dim=DIM, seed=0)
    srv = ShardedSimilarityServer(
        enc, dim=DIM, n_shards=2, brute_threshold=10**9, shard_deadline_s=30.0
    )
    try:
        srv.add_batch(trajs[:12])
        probe = trajs[15]
        first = srv.topk(probe, k=1)
        assert first.ids[0] < 12
        gid = srv.add(probe)
        assert gid == 12
        hit = srv.topk(np.asarray(probe) + 0.0, k=1)
        assert hit.ids[0] == 12  # the trajectory itself is now nearest
        assert hit.distances[0] == 0.0
    finally:
        srv.close()


# ---------------------------------------------------------------------------
# One ladder: both servers answer edge cases and degrade the same way
# ---------------------------------------------------------------------------

BOTH_SERVERS = [False, pytest.param(True, marks=pytest.mark.shard, id="sharded")]


class _SwitchableEncoder:
    """FeatureEncoder that raises once ``down`` is set (in-process only)."""

    def __init__(self):
        self.inner = FeatureEncoder(dim=DIM, seed=0)
        self.down = False

    def __call__(self, trajs):
        if self.down:
            raise RuntimeError("encoder down")
        return self.inner(trajs)


def _either_server(sharded, encoder, **kw):
    if sharded:
        return ShardedSimilarityServer(
            encoder, dim=DIM, n_shards=2, shard_deadline_s=30.0, **kw
        )
    return SimilarityServer(encoder, DIM, **kw)


@pytest.mark.parametrize("sharded", BOTH_SERVERS)
def test_k_below_one_is_an_empty_normal_answer(sharded):
    """``k in {0, -1}`` answers empty and not degraded on both servers.

    ``brute_threshold=4`` puts every search on the HNSW path, which
    rejects ``k < 1``; the shared search policy must answer before it.
    """
    trajs = _trajs(24, seed=13)
    srv = _either_server(sharded, FeatureEncoder(dim=DIM, seed=0), brute_threshold=4)
    unexpected = get_registry().counter("serve.query.unexpected_errors")
    try:
        srv.add_batch(trajs)
        before = unexpected.value
        for k in (0, -1):
            for query in (trajs[3], _trajs(1, seed=77)[0]):  # cached, fresh
                result = srv.topk(query, k=k)
                assert not result.degraded, (k, result.source)
                assert result.ids.shape == (0,)
                assert result.distances.shape == (0,)
        assert unexpected.value == before
    finally:
        srv.close()


@pytest.mark.parametrize("sharded", BOTH_SERVERS)
def test_encoder_down_answers_record_one_degraded_span(sharded):
    """An encoder-down answer has the same trace shape on both servers.

    The single-process encoder raises mid-batch; the sharded server
    loses every worker, so no embedding can be had at all.  Either way
    the answer comes from the true-metric rung and the request trace
    carries one ``degraded`` span with ``reason`` and ``scanned``.
    """
    trajs = _trajs(10, seed=21)
    encoder = FeatureEncoder(dim=DIM, seed=0) if sharded else _SwitchableEncoder()
    srv = _either_server(sharded, encoder)
    tracer = get_tracer()
    try:
        srv.add_batch(trajs)
        if sharded:
            for handle in srv._handles:
                handle.process.kill()
                handle.process.join(timeout=10)
        else:
            encoder.down = True
        tracer.reset()
        result = srv.topk(_trajs(1, seed=88)[0], k=3)
        assert result.degraded and result.source == "degraded-exact"
        (trace,) = tracer.recent(name="serve.topk")
        assert trace.attrs["degraded"] is True
        assert trace.attrs["source"] == "degraded-exact"
        spans = [e for e in trace.events if e["name"] == "degraded"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["reason"] == trace.attrs["degraded_reason"]
        assert spans[0]["attrs"]["scanned"] == len(trajs)
    finally:
        srv.close()


@pytest.mark.parametrize("sharded", BOTH_SERVERS)
def test_stats_report_the_shared_store_and_cache_counters(sharded):
    """Both servers' ``stats()`` carry the same store + cache counters."""
    trajs = _trajs(6, seed=31)
    srv = _either_server(sharded, FeatureEncoder(dim=DIM, seed=0))
    try:
        srv.add_batch(trajs)
        query = _trajs(1, seed=32)[0]
        srv.topk(query, k=2)  # fresh: a miss
        srv.topk(query, k=2)  # repeated: a hit
        stats = srv.stats()
        expected = {"db_size", "cache_size", "cache_hits", "cache_misses", "cache_hit_rate"}
        if sharded:
            expected |= {"n_shards", "live_shards"}
            assert (stats["n_shards"], stats["live_shards"]) == (2, 2)
        assert set(stats) == expected
        assert stats["db_size"] == len(trajs)
        assert stats["cache_size"] == len(srv.cache)
        hits, misses = stats["cache_hits"], stats["cache_misses"]
        assert hits >= 1 and misses >= 1
        assert stats["cache_hit_rate"] == pytest.approx(hits / (hits + misses))
    finally:
        srv.close()
