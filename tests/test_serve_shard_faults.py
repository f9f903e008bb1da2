"""Fault-injection tests for the sharded serving tier (DESIGN.md §16).

The coordinator's contract under failure mirrors the single-process
engine's, with worker processes as the new blast radius:

- SIGKILL of a worker — at rest or with a request in flight — must never
  surface as an exception from ``topk``; the dead shard's portion of the
  database is answered by an exact coordinator-side scan over the
  retained embedding blocks, so the degraded answer is still *correct*;
- a worker hanging past the per-shard deadline degrades the same way,
  without the worker being declared dead (it recovers once responsive);
- with every worker gone (or the server closed) even the query embedding
  is unobtainable, and ``topk`` drops to the true-metric degraded scan —
  the same tier the engine uses;
- ``serve.shard.dead`` counts each worker death exactly once.

Faults are injected by killing real processes and via the workers'
``debug`` hook channel (``search_delay_s``), so every scenario exercises
the production queues, slab and dispatcher — not mocks.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve import FeatureEncoder, ShardedSimilarityServer, exact_metric_topk
from repro.serve.engine import as_points

DIM = 8

pytestmark = pytest.mark.shard


def _trajs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(6, 14)), 2)).cumsum(axis=0)
        for _ in range(n)
    ]


def _counter(name):
    return get_registry().counter(name).value


def _expected(enc, trajs, q, k):
    """Flat brute-force ground truth over the encoder's embeddings."""
    emb = np.asarray(enc(trajs), dtype=np.float64)
    qe = np.asarray(enc([q]), dtype=np.float64)[0]
    sq = ((emb - qe[None, :]) ** 2).sum(axis=1)
    order = np.argsort(sq, kind="stable")[:k]
    return order, np.sqrt(sq[order])


def _server(trajs, n_shards=3, **kw):
    enc = FeatureEncoder(dim=DIM, seed=0)
    kw.setdefault("brute_threshold", 10**9)
    kw.setdefault("shard_deadline_s", 30.0)
    srv = ShardedSimilarityServer(enc, dim=DIM, n_shards=n_shards, **kw)
    srv.add_batch(trajs)
    return srv, enc


def test_sigkill_at_rest_degrades_but_stays_exact():
    trajs = _trajs(30, seed=1)
    srv, enc = _server(trajs)
    try:
        healthy = srv.topk(trajs[0], k=3)
        assert not healthy.degraded and healthy.ids[0] == 0

        dead_before = _counter("serve.shard.dead")
        srv._handles[1].process.kill()
        srv._handles[1].process.join(timeout=10)

        q = _trajs(1, seed=99)[0]
        result = srv.topk(q, k=5)
        assert result.degraded
        assert result.source == "sharded-fallback"
        exp_ids, exp_d = _expected(enc, trajs, q, 5)
        assert np.array_equal(result.ids, exp_ids)
        assert np.array_equal(result.distances, exp_d)
        assert _counter("serve.shard.dead") == dead_before + 1

        # The death is counted once, not once per query.
        q2 = _trajs(1, seed=100)[0]
        result2 = srv.topk(q2, k=5)
        exp_ids2, _ = _expected(enc, trajs, q2, 5)
        assert result2.degraded and np.array_equal(result2.ids, exp_ids2)
        assert _counter("serve.shard.dead") == dead_before + 1
        assert len(srv.live_shards) == 2
    finally:
        srv.close()


def test_sigkill_with_request_in_flight_never_raises():
    """Kill the worker while it is sleeping on our in-flight search."""
    trajs = _trajs(24, seed=2)
    srv, enc = _server(trajs, n_shards=2)
    try:
        # Prime the embedding cache so the next topk skips the encode hop
        # and is guaranteed to have a search pending on shard 0 when the
        # kill lands.
        q = _trajs(1, seed=55)[0]
        srv.topk(q, k=2)
        srv.debug_shard(0, search_delay_s=3.0)
        killer = threading.Timer(0.3, srv._handles[0].process.kill)
        killer.start()
        try:
            result = srv.topk(q, k=4)
        finally:
            killer.cancel()
        assert result.degraded
        assert result.source == "sharded-fallback"
        exp_ids, exp_d = _expected(enc, trajs, q, 4)
        assert np.array_equal(result.ids, exp_ids)
        assert np.array_equal(result.distances, exp_d)
    finally:
        srv.close()


def test_worker_hang_past_deadline_falls_back_exactly():
    trajs = _trajs(24, seed=3)
    srv, enc = _server(trajs, n_shards=2, shard_deadline_s=0.3)
    try:
        q = _trajs(1, seed=77)[0]
        srv.topk(q, k=2)  # cache the embedding: isolate the search hop
        srv.debug_shard(0, search_delay_s=1.2)
        missed_before = _counter("serve.shard.deadline_missed")
        result = srv.topk(q, k=4)
        assert result.degraded
        assert result.source == "sharded-fallback"
        exp_ids, exp_d = _expected(enc, trajs, q, 4)
        assert np.array_equal(result.ids, exp_ids)
        assert np.array_equal(result.distances, exp_d)
        assert _counter("serve.shard.deadline_missed") == missed_before + 1
        # Slow is not dead: the worker must NOT be declared lost.
        assert not srv._handles[0].dead
        assert len(srv.live_shards) == 2

        # Once the worker drains its sleep and the hook is cleared, full
        # undegraded service resumes.
        srv.debug_shard(0, search_delay_s=0.0, timeout_s=10.0)
        time.sleep(1.3)
        recovered = srv.topk(q, k=4)
        assert not recovered.degraded
        assert np.array_equal(recovered.ids, exp_ids)
    finally:
        srv.close()


def test_all_workers_dead_drops_to_true_metric_scan():
    trajs = _trajs(14, seed=4)
    srv, _ = _server(trajs, n_shards=2)
    try:
        for handle in srv._handles:
            handle.process.kill()
            handle.process.join(timeout=10)
        q = _trajs(1, seed=42)[0]
        result = srv.topk(q, k=3)
        assert result.degraded
        assert result.source == "degraded-exact"
        order, dists = exact_metric_topk(
            as_points(q), [np.asarray(t) for t in trajs], srv.fallback_metric, 3
        )
        assert np.array_equal(result.ids, order)
        assert np.allclose(result.distances, dists)
        assert len(srv.live_shards) == 0
    finally:
        srv.close()


def test_topk_after_close_never_raises():
    trajs = _trajs(10, seed=5)
    srv, _ = _server(trajs, n_shards=2)
    srv.close()
    result = srv.topk(trajs[0], k=2)
    assert result.degraded
    assert result.source == "degraded-exact"
    # The query IS a stored trajectory: the exact metric ranks it first.
    assert result.ids[0] == 0
    srv.close()  # idempotent


def test_build_path_raises_on_dead_shard():
    """add_batch is the deployment path: worker death there must raise."""
    trajs = _trajs(12, seed=6)
    srv, _ = _server(trajs, n_shards=2)
    try:
        srv._handles[0].process.kill()
        srv._handles[0].process.join(timeout=10)
        with pytest.raises(Exception):
            srv.add_batch(_trajs(8, seed=7))
    finally:
        srv.close()
