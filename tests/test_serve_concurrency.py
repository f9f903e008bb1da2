"""Concurrency-discipline tests for the serve tier.

The static C-rules prove lock discipline lexically; these tests exercise
it dynamically: the cache's atomic hit/miss accounting under a
multi-thread get/put race, MicroBatcher shutdown semantics (idempotent
close, submit-after-close, barrier-synchronised interleavings), the
bench harness restoring ``sys.setswitchinterval`` on the SLO-violation
exit path, and a full server workload under the runtime lock sanitizer
with an asserted-empty lock-order cycle set.
"""

import sys
import threading

import numpy as np
import pytest

from repro.obs import SLO, SLOViolation, get_registry
from repro.obs.lockstats import disable, enable, get_lockstats, is_enabled
from repro.serve import (
    EmbeddingCache,
    MicroBatcher,
    SimilarityServer,
    run_serve_bench,
    trajectory_key,
)

DIM = 3


def _embed(trajs):
    out = np.zeros((len(trajs), DIM))
    for i, t in enumerate(trajs):
        p = np.asarray(t, dtype=np.float64)
        out[i] = [p[:, 0].mean(), p[:, 1].mean(), float(len(p))]
    return out


def _trajs(n, seed=0, length=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(length, 2)) for _ in range(n)]


@pytest.fixture
def sanitizer():
    """Run one test under the lock sanitizer; restore state afterwards."""
    was_enabled = is_enabled()
    enable()
    get_lockstats().reset()
    try:
        yield get_lockstats()
    finally:
        get_lockstats().reset()
        if not was_enabled:
            disable()


# ---------------------------------------------------------------------------
# EmbeddingCache: atomic hit/miss accounting under racing threads
# ---------------------------------------------------------------------------


class TestCacheRace:
    def test_counters_stay_exact_under_get_put_race(self):
        """The C005 regression: probe + tally are one critical section.

        Several threads hammer overlapping get/put cycles; whatever the
        interleaving, every get is counted exactly once, so hits + misses
        must equal the number of get calls exactly — a torn read-modify-
        write of the counters would lose increments under this load.
        """
        cache = EmbeddingCache(capacity=8)
        keys = [trajectory_key(t) for t in _trajs(16, seed=3)]
        gets_per_thread = 400
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        embedding = np.zeros(DIM)

        def worker(tid):
            barrier.wait()
            rng = np.random.default_rng(tid)
            for _ in range(gets_per_thread):
                key = keys[int(rng.integers(len(keys)))]
                if cache.get(key) is None:
                    cache.put(key, embedding)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert cache.hits + cache.misses == n_threads * gets_per_thread
        assert cache.hit_rate == cache.hits / (cache.hits + cache.misses)
        assert len(cache) <= 8

    def test_hit_rate_is_consistent_snapshot(self):
        cache = EmbeddingCache(capacity=4)
        key = trajectory_key(_trajs(1)[0])
        assert cache.get(key) is None
        cache.put(key, np.zeros(DIM))
        assert cache.get(key) is not None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5


# ---------------------------------------------------------------------------
# MicroBatcher shutdown discipline
# ---------------------------------------------------------------------------


class TestBatcherShutdown:
    def test_close_is_idempotent(self):
        batcher = MicroBatcher(_embed, max_batch_size=4, max_wait_ms=1.0)
        batcher.close()
        batcher.close()  # second close must be a no-op, not an error
        batcher.close(timeout=0.0)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(_embed, max_batch_size=4, max_wait_ms=1.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(_trajs(1)[0])

    def test_concurrent_close_and_submit_never_strand_a_future(self):
        """Every accepted future resolves: with a result, or with the
        close error — no future may hang after close() returns."""
        for round_ in range(5):
            batcher = MicroBatcher(
                _embed, max_batch_size=4, max_wait_ms=1.0, name=f"t{round_}"
            )
            barrier = threading.Barrier(2)
            futures = []
            rejected = []

            def submitter():
                barrier.wait()
                for traj in _trajs(50, seed=round_):
                    try:
                        futures.append(batcher.submit(traj))
                    except RuntimeError:
                        rejected.append(traj)
                        break

            def closer():
                barrier.wait()
                batcher.close()

            threads = [
                threading.Thread(target=submitter, daemon=True),
                threading.Thread(target=closer, daemon=True),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            batcher.close()
            for future in futures:
                # Accepted before close finished: must be resolved either
                # way, within a bounded wait.
                exc = future.exception(timeout=5.0)
                if exc is not None:
                    assert "closed" in str(exc)

    def test_barrier_interleaving_under_sanitizer_is_cycle_free(
        self, sanitizer
    ):
        """Two threads drive batcher + cache + server concurrently with a
        barrier start; the sanitizer must observe zero order cycles."""
        with SimilarityServer(
            _embed, dim=DIM, max_batch_size=4, max_wait_ms=1.0
        ) as server:
            server.add_batch(_trajs(12, seed=1))
            queries = _trajs(8, seed=2, length=6)
            barrier = threading.Barrier(2)
            results = [None, None]

            def worker(tid):
                barrier.wait()
                out = []
                for q in queries:
                    out.append(server.topk(q, k=3))
                results[tid] = out

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)

        assert all(r is not None and len(r) == len(queries) for r in results)
        assert sanitizer.cycles() == []
        # The named serve locks actually went through the shims: every
        # cache probe acquires the instrumented serve.cache lock.
        acquisitions = get_registry().counter("lock.serve.cache.acquisitions")
        assert acquisitions.value > 0


# ---------------------------------------------------------------------------
# SimilarityServer.add: one id per trajectory under concurrent adds
# ---------------------------------------------------------------------------


class TestAddIdRace:
    def test_stalled_add_keeps_store_and_index_ids_aligned(self):
        """Add ``a`` stalls inside ``index.add`` while ``b`` is added.

        The trajectory store (read by the degraded path) and the index
        (read by the normal path) must give each trajectory the same id,
        so a normal and a degraded answer for ``a`` name the same row.
        """
        a, b = _trajs(2, seed=31, length=6)
        with SimilarityServer(_embed, dim=DIM, seed=0) as server:
            real_add = server.index.add
            a_inside, b_inside, release = (threading.Event() for _ in range(3))

            def stalling_add(vector):
                if not a_inside.is_set():
                    a_inside.set()
                    release.wait(timeout=10)
                else:
                    b_inside.set()
                return real_add(vector)

            server.index.add = stalling_add
            ids = {}

            def add(name, traj):
                ids[name] = server.add(traj)

            thread_a = threading.Thread(target=add, args=("a", a))
            thread_a.start()
            assert a_inside.wait(timeout=10)
            thread_b = threading.Thread(target=add, args=("b", b))
            thread_b.start()
            # Give b the chance to overtake a; a correct server holds it back.
            b_inside.wait(timeout=0.5)
            release.set()
            thread_a.join(timeout=10)
            thread_b.join(timeout=10)
            assert not thread_a.is_alive() and not thread_b.is_alive()
            del server.index.add
            assert sorted(ids.values()) == [0, 1]

            server.cache.clear()
            trajs = {"a": a, "b": b}
            degraded = {n: server.topk(t, k=1, deadline_s=0.0) for n, t in trajs.items()}
            normal = {n: server.topk(t, k=1) for n, t in trajs.items()}
            for name in trajs:
                assert degraded[name].degraded and not normal[name].degraded
                assert degraded[name].ids.tolist() == [ids[name]]
                assert normal[name].ids.tolist() == [ids[name]]


# ---------------------------------------------------------------------------
# Bench harness: switch-interval restoration on the failure path
# ---------------------------------------------------------------------------


class TestBenchSwitchInterval:
    def test_interval_restored_when_slo_enforcement_raises(self):
        before = sys.getswitchinterval()
        impossible = [
            SLO(name="p99-0s", kind="latency", threshold=0.0, percentile=99.0)
        ]
        with pytest.raises(SLOViolation):
            run_serve_bench(
                n_db=4,
                n_queries=6,
                workers=2,
                naive_queries=1,
                hidden_dim=4,
                slos=impossible,
                enforce_slos=True,
            )
        assert sys.getswitchinterval() == before

    def test_interval_restored_on_success(self):
        before = sys.getswitchinterval()
        run_serve_bench(
            n_db=4,
            n_queries=6,
            workers=2,
            naive_queries=1,
            hidden_dim=4,
            enforce_slos=False,
        )
        assert sys.getswitchinterval() == before
