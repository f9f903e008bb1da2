"""The similarity query engine: cache → micro-batch encode → index top-k.

A :class:`SimilarityServer` owns an encoder, an :class:`EmbeddingCache`,
a :class:`MicroBatcher` and an :class:`~repro.index.hnsw.HNSWIndex`, and
answers ``topk(traj, k)`` from any number of caller threads.

It is the in-process, one-shard case of the sharded tier
(:mod:`repro.serve.shard`): both servers run one degradation ladder made
of the plain functions below, so each rung exists once —
:func:`open_request`; :func:`search_embeddings` (the brute-vs-HNSW
policy over :func:`exact_scan`, the exact squared-L2 scan every tier
ranks with) and :func:`embedding_answer`; :func:`degraded_answer` (the
true-metric rung over :func:`exact_metric_topk`); and the
:func:`last_resort` floor with :func:`empty_result`.  :func:`as_points`,
:func:`resolve_encoder`, :func:`resolve_metric`, :func:`encode_block`,
:func:`encode_chunked` and :func:`publish_memory` are the shared plumbing.

Degradation contract — **callers never see an exception** from ``topk``:

- embedding available in time → approximate HNSW answer (or brute-force
  over the embedding table when the database is small or ``k`` is large,
  which is *exact* in embedding space); ``k < 1`` answers empty;
- encode misses the per-request deadline, or the batched forward fails →
  a *degraded-but-exact* answer: the true trajectory metric (default
  DTW) is evaluated against a bounded subset of the stored trajectories
  and its top-k returned, flagged ``degraded=True``.  Coverage shrinks,
  correctness of what is returned does not.

Every ``topk`` call opens one ``serve.topk`` request trace
(:mod:`repro.obs.trace`) with child spans for the cache probe, queue
wait, batched forward (both stamped across the thread hop by the
:class:`MicroBatcher` via a handoff token), index search and the
degraded fallback (with the degradation *reason* as an attribute), so
``repro-tmn trace`` can show where any single slow request spent its
time; ``serve.query.*`` counters complete the picture.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.hnsw import HNSWIndex
from ..metrics import MetricSpec, get_metric, pad_trajectories
from ..obs.lockstats import new_lock
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, trace_span
from .batcher import MicroBatcher
from .cache import EmbeddingCache, trajectory_key

__all__ = [
    "ServeResult", "SimilarityServer", "as_points", "degraded_answer",
    "embedding_answer", "empty_result", "encode_block", "encode_chunked",
    "exact_metric_topk", "exact_scan", "last_resort", "open_request",
    "publish_memory", "resolve_encoder", "resolve_metric", "search_embeddings",
    "serving_stats",
]

_LOG = get_logger("repro.serve.engine")


@dataclass
class ServeResult:
    """Outcome of one ``topk`` request.

    Attributes
    ----------
    ids:
        Database ids, ascending by distance (may hold fewer than ``k``
        entries on a degraded answer over a small cached subset).
    distances:
        Matching distances.  Embedding-space L2 for normal answers; true
        trajectory-metric distances when ``degraded``.
    degraded:
        True when the deadline/fault fallback produced the answer.
    cache_hit:
        Whether the query embedding came from the cache.
    source:
        ``"hnsw"``, ``"brute"``, ``"sharded"``, ``"sharded-fallback"`` or
        ``"degraded-exact"``.
    seconds:
        End-to-end request wall time.
    """

    ids: np.ndarray
    distances: np.ndarray
    degraded: bool
    cache_hit: bool
    source: str
    seconds: float
    k: int = field(default=0)


# ----------------------------------------------------------------------
# Arguments and encoders.
# ----------------------------------------------------------------------
def as_points(traj) -> np.ndarray:
    """Raw float64 point array behind a trajectory-or-array argument."""
    return np.asarray(traj.points if hasattr(traj, "points") else traj, dtype=np.float64)


def resolve_encoder(encoder: object) -> Callable:
    """The encode callable behind ``encoder`` (model-or-callable duality).

    Models expose ``.encode`` (and are also callable via
    ``Module.__call__``), so the attribute check must come first.
    """
    if hasattr(encoder, "encode"):
        return encoder.encode
    if callable(encoder):
        return encoder
    raise TypeError("encoder must be callable or expose .encode()")


def resolve_metric(metric: Union[str, MetricSpec]) -> MetricSpec:
    """The :class:`MetricSpec` behind a metric name or spec."""
    return metric if isinstance(metric, MetricSpec) else get_metric(metric)


def encode_block(encode_fn: Callable, trajs: Sequence, dim: int) -> np.ndarray:
    """One validated float64 encode of ``trajs`` -> ``(B, dim)``."""
    out = np.asarray(encode_fn(trajs), dtype=np.float64)
    if out.shape != (len(trajs), dim):
        raise ValueError(f"encoder returned {out.shape}, expected ({len(trajs)}, {dim})")
    return out


def encode_chunked(encode_fn: Callable, trajs: Sequence, dim: int, chunk: int) -> np.ndarray:
    """Build-path encode of ``trajs`` in batches of ``chunk`` -> ``(N, dim)``."""
    chunk = max(chunk, 1)
    parts = [
        encode_block(encode_fn, trajs[lo : lo + chunk], dim)
        for lo in range(0, len(trajs), chunk)
    ]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, dim))


# ----------------------------------------------------------------------
# Search: one exact scan, one brute-vs-HNSW policy.
# ----------------------------------------------------------------------
def exact_scan(block: np.ndarray, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` rows of ``block`` nearest ``query``: ``(squared L2, rows)``.

    A stable argsort, so ties resolve to the lowest row.  Every tier
    (the engine's brute path, a shard worker, the coordinator's scan of a
    dead shard's retained block) ranks with this one arithmetic, which is
    what keeps a degraded scatter-gather merge bit-exact.
    """
    diffs = np.asarray(block) - query[None, :]
    sq = (diffs**2).sum(axis=1)
    order = np.argsort(sq, kind="stable")[: max(k, 0)]
    return sq[order], order


def search_embeddings(
    index: HNSWIndex, embedding: np.ndarray, k: int, brute_threshold: int,
    ef_search: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, str]:
    """The search policy: ``(squared L2, index ids, source)`` for ``embedding``.

    Brute force (:func:`exact_scan`) up to ``brute_threshold`` stored
    vectors or when ``k`` exceeds half of them, HNSW beam search above;
    ``k`` is clamped to the index size and ``k < 1`` answers empty.
    Distances are squared on every path (the sharded merge's contract);
    squaring the graph's root distances is exact (``sqrt(d*d) == d``).
    """
    n = len(index)
    k_eff = min(k, n)
    if k_eff < 1:
        return np.zeros(0), np.zeros(0, dtype=int), "brute"
    if n <= brute_threshold or k_eff > n // 2:
        sq, ids = exact_scan(index.vectors[:n], embedding, k_eff)
        return sq, ids, "brute"
    dists, ids = index.query(embedding, k=k_eff, ef=ef_search)
    return dists**2, ids, "hnsw"


# ----------------------------------------------------------------------
# The degradation ladder shared by both servers.
# ----------------------------------------------------------------------
def open_request(
    cache: EmbeddingCache, traj, trace, deadline_s: Optional[float]
) -> Tuple[np.ndarray, str, Optional[np.ndarray]]:
    """Count and annotate a ``topk`` request, then probe the cache.

    Returns ``(points, content key, cached embedding or None)``; the
    probe runs under the trace's ``cache`` span.
    """
    get_registry().counter("serve.query.requests").inc()
    if deadline_s is not None:
        trace.set(deadline_s=deadline_s)
    points = as_points(traj)
    key = trajectory_key(points)
    with trace.span("cache") as cache_span:
        cached = cache.get(key)
        cache_span.set(result="miss" if cached is None else "hit")
    trace.set(cache_hit=cached is not None)
    return points, key, cached


def empty_result(k: int, start: float, source: str, degraded: bool) -> ServeResult:
    """A zero-hit answer built from literals only: it cannot raise."""
    return ServeResult(
        ids=np.zeros(0, dtype=int),
        distances=np.zeros(0),
        degraded=degraded,
        cache_hit=False,
        source=source,
        seconds=time.perf_counter() - start,
        k=k,
    )


def embedding_answer(
    sq: np.ndarray, ids: np.ndarray, k: int, start: float, cache_hit: bool,
    source: str, degraded: bool = False, **annotations,
) -> ServeResult:
    """An embedding-space answer from squared distances, counted and traced."""
    registry = get_registry()
    registry.counter("serve.query.degraded" if degraded else "serve.query.answered").inc()
    get_tracer().annotate(degraded=degraded, source=source, **annotations)
    registry.histogram("serve.query.seconds").observe(time.perf_counter() - start)
    return ServeResult(
        ids=np.asarray(ids, dtype=int),
        # Squared L2 values are nonnegative by construction.
        distances=np.sqrt(np.asarray(sq, dtype=float)),  # lint: allow(N002)
        degraded=degraded,
        cache_hit=cache_hit,
        source=source,
        seconds=time.perf_counter() - start,
        k=k,
    )


def exact_metric_topk(
    points: np.ndarray, subset: Sequence[np.ndarray], metric: MetricSpec, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """True-metric top-k of ``points`` against ``subset``: ``(order, dists)``.

    One padded batch evaluation of ``metric`` followed by a stable
    argsort, so ties resolve to the lowest subset index; ``k < 1``
    selects nothing.
    """
    stacked, lengths = pad_trajectories([points] + list(subset))
    q_stack = np.repeat(stacked[:1], len(subset), axis=0)
    q_len = np.repeat(lengths[:1], len(subset))
    dists = metric.batch(q_stack, stacked[1:], q_len, lengths[1:])
    order = np.argsort(dists, kind="stable")[: max(k, 0)]
    return order, np.asarray(dists[order], dtype=float)


def degraded_answer(
    points: np.ndarray, subset: Sequence[np.ndarray], metric: MetricSpec,
    k: int, start: float, reason: str,
) -> ServeResult:
    """The true-metric rung: exact ``metric`` top-k over a bounded subset.

    Used when no embedding could be obtained in time (deadline, failed
    batch, no live worker, unexpected fault).  The answer is exact *on
    that subset*, trading coverage for bounded latency instead of
    raising; ``reason`` and the scanned count land on a ``degraded``
    span of the request trace so the answer is attributable.
    """
    get_registry().counter("serve.query.degraded").inc()
    get_tracer().annotate(degraded=True, degraded_reason=reason, source="degraded-exact")
    if not subset or k < 1:
        return empty_result(k, start, "degraded-exact", degraded=True)
    with trace_span("degraded") as deg_span:
        deg_span.set(reason=reason, scanned=len(subset))
        order, dists = exact_metric_topk(points, subset, metric, k)
    return ServeResult(
        ids=np.asarray(order, dtype=int),
        distances=dists,
        degraded=True,
        cache_hit=False,
        source="degraded-exact",
        seconds=time.perf_counter() - start,
        k=k,
    )


def last_resort(
    degrade: Callable[[np.ndarray, int, float, str], ServeResult],
    traj, k: int, start: float, exc: Exception,
) -> ServeResult:
    """The floor behind both never-raises ``topk`` guards.

    Tries the server's true-metric rung (``degrade``); if even that
    faults (the situation the contract exists for), answers with
    :func:`empty_result`.
    """
    try:
        get_registry().counter("serve.query.unexpected_errors").inc()
        return degrade(as_points(traj), k, start, f"unexpected:{type(exc).__name__}")
    except Exception as inner:
        _LOG.error("topk-last-resort", error=type(inner).__name__, k=k)
        return empty_result(k, start, "degraded-exact", degraded=True)


def publish_memory(
    registry, n_trajs: int, store_bytes: int, cache_bytes: int, index_bytes: int
) -> dict:
    """Mirror one byte audit of the serving structures into gauges.

    Derives the headline ``bytes_per_trajectory`` (accounted payload
    bytes divided by stored trajectories) and sets ``serve.*.bytes``,
    ``serve.store.bytes_per_trajectory``, ``mem.rss_bytes`` and
    ``mem.peak_rss_bytes``, so the SLO monitor and the bench gate read
    the same numbers the returned dict carries.
    """
    from ..obs.memory import update_memory_gauges

    total = store_bytes + cache_bytes + index_bytes
    per_traj = total / n_trajs if n_trajs else 0.0
    reg = registry if registry is not None else get_registry()
    reg.gauge("serve.store.bytes").set(store_bytes)
    reg.gauge("serve.cache.bytes").set(cache_bytes)
    reg.gauge("serve.index.bytes").set(index_bytes)
    reg.gauge("serve.store.bytes_per_trajectory").set(per_traj)
    process = update_memory_gauges(reg)
    return {
        "n_trajectories": n_trajs,
        "store_bytes": store_bytes,
        "cache_bytes": cache_bytes,
        "index_bytes": index_bytes,
        "total_bytes": total,
        "bytes_per_trajectory": per_traj,
        "rss_bytes": process["rss_bytes"],
        "peak_rss_bytes": process["peak_rss_bytes"],
    }


def serving_stats(db_size: int, cache: EmbeddingCache) -> dict:
    """The counters both servers' ``stats()`` report: store size + cache."""
    return {
        "db_size": db_size,
        "cache_size": len(cache),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": cache.hit_rate,
    }


class SimilarityServer:
    """Concurrent top-k similarity serving over learned embeddings.

    Parameters
    ----------
    encode_fn:
        Either a model exposing ``encode(trajs) -> (B, d)`` (any
        :class:`~repro.core.model.TrajectoryPairModel`) or a bare
        callable with that contract.
    dim:
        Embedding dimensionality (must match ``encode_fn`` output).
    cache_capacity / max_batch_size / max_wait_ms:
        Knobs of the embedding cache and the micro-batching queue.
    ef_search:
        HNSW beam width for queries (recall/latency trade-off).
    brute_threshold:
        Below this database size the engine answers by brute force over
        the embedding table instead of the graph (exact, and faster than
        graph traversal at small N).
    fallback_metric:
        True trajectory metric used for degraded answers (name or
        :class:`MetricSpec`).
    degraded_scan_limit:
        Maximum stored trajectories scanned by the degraded exact path,
        bounding its latency.
    """

    def __init__(
        self,
        encode_fn: Union[Callable[[Sequence], np.ndarray], object],
        dim: int,
        *,
        cache_capacity: int = 4096,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        idle_grace_ms: float = 0.5,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: Optional[int] = None,
        brute_threshold: int = 64,
        fallback_metric: Union[str, MetricSpec] = "dtw",
        degraded_scan_limit: int = 256,
        seed: int = 0,
    ):
        self._encode_raw = resolve_encoder(encode_fn)
        self.dim = dim
        self.ef_search = ef_search
        self.brute_threshold = brute_threshold
        self.degraded_scan_limit = degraded_scan_limit
        self.index = HNSWIndex(dim, m=m, ef_construction=ef_construction, seed=seed)
        self.cache = EmbeddingCache(capacity=cache_capacity)
        # One padded forward per flushed batch, on the batcher thread.
        self.batcher = MicroBatcher(
            lambda trajs: encode_block(self._encode_raw, trajs, dim),
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            idle_grace_ms=idle_grace_ms,
        )
        self.fallback_metric = resolve_metric(fallback_metric)
        # Stored trajectories by database id, for the degraded exact path.
        # The lock also covers index.add, so a trajectory's position here
        # is always its index id.
        self._trajs: List[np.ndarray] = []
        self._trajs_lock = new_lock("serve.trajs")

    # ------------------------------------------------------------------
    def add(self, traj, embedding: Optional[np.ndarray] = None) -> int:
        """Insert one trajectory into the database; returns its id.

        The embedding is computed synchronously (bypassing the queue)
        unless supplied; it is cached so a later query for the identical
        trajectory is a cache hit.
        """
        points = as_points(traj)
        if embedding is None:
            embedding = encode_block(self._encode_raw, [points], self.dim)[0]
        embedding = np.asarray(embedding, dtype=np.float64)
        self.cache.put(trajectory_key(points), embedding)
        with self._trajs_lock:
            self._trajs.append(points)
            node = self.index.add(embedding)
        get_registry().counter("serve.db.size").inc()
        return node

    def add_batch(self, trajs: Sequence) -> List[int]:
        """Insert many trajectories with one batched encode per chunk."""
        points = [as_points(t) for t in trajs]
        embeddings = encode_chunked(
            self._encode_raw, points, self.dim, self.batcher.max_batch_size
        )
        return [self.add(p, embedding=e) for p, e in zip(points, embeddings)]

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    def encode(self, traj, timeout: Optional[float] = None) -> np.ndarray:
        """Embedding for one trajectory via cache + micro-batch queue.

        Unlike :meth:`topk`, this *does* raise on encode failure or
        timeout — it is the building block, not the guarded endpoint.
        """
        key = trajectory_key(traj)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        embedding = self.batcher.submit(traj).result(timeout=timeout)
        self.cache.put(key, embedding)
        return embedding

    # The E001 pass statically verifies this annotation: every raise
    # reachable from topk must be caught before it gets back here.
    def topk(self, traj, k: int = 1, deadline_s: Optional[float] = None) -> ServeResult:  # contract: never-raises
        """Top-k most similar database trajectories; never raises.

        ``deadline_s`` bounds the time spent waiting for the encoder; a
        missed deadline (or a failed batch) yields the degraded exact
        answer.  ``k`` is clamped to the database size; ``k < 1`` answers
        empty.
        """
        start = time.perf_counter()
        try:
            return self._topk_impl(traj, k, deadline_s, start)
        except Exception as exc:
            # Last-resort guard: the serving contract is "no exceptions
            # to the caller"; anything unexpected degrades instead.
            _LOG.error("topk-unexpected", error=type(exc).__name__, k=k)
            return last_resort(self._degraded, traj, k, start, exc)

    def _topk_impl(
        self, traj, k: int, deadline_s: Optional[float], start: float
    ) -> ServeResult:
        """The cache → micro-batch → index pipeline behind :meth:`topk`.

        May raise; :meth:`topk` owns the never-raises guard.
        """
        with get_tracer().trace("serve.topk", k=k) as trace:
            points, key, embedding = open_request(self.cache, traj, trace, deadline_s)
            cache_hit = embedding is not None
            if not cache_hit:
                remaining = deadline_s
                if deadline_s is not None:
                    remaining = deadline_s - (time.perf_counter() - start)
                    if remaining <= 0:
                        return self._degraded(points, k, start, "deadline-before-encode")
                # Queue-wait/forward spans are stamped onto this trace by
                # the batcher's flush thread (handoff).
                try:
                    embedding = self.batcher.submit(points).result(timeout=remaining)
                except FutureTimeoutError:
                    get_registry().counter("serve.query.deadline_missed").inc()
                    return self._degraded(points, k, start, "deadline-missed")
                except Exception as exc:
                    _LOG.warning(
                        "batch-failed", error=type(exc).__name__,
                        trace_id=trace.trace_id, k=k,
                    )
                    return self._degraded(
                        points, k, start, f"batch-failed:{type(exc).__name__}"
                    )
                self.cache.put(key, embedding)
            with trace.span("index") as index_span:
                sq, ids, source = search_embeddings(
                    self.index, embedding, k, self.brute_threshold, self.ef_search
                )
                index_span.set(source=source, n=len(self.index), k=len(ids))
            return embedding_answer(sq, ids, k, start, cache_hit, source)

    def _degraded(self, points: np.ndarray, k: int, start: float, reason: str) -> ServeResult:
        """:func:`degraded_answer` over the first ``degraded_scan_limit`` trips."""
        with self._trajs_lock:
            subset = self._trajs[: self.degraded_scan_limit]
        return degraded_answer(points, subset, self.fallback_metric, k, start, reason)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters snapshot (index size + cache counters)."""
        return serving_stats(len(self.index), self.cache)

    def memory_stats(self, registry=None) -> dict:
        """Exact bytes held by the serving structures, plus process RSS.

        Audits the three stores the million-trajectory ROADMAP item must
        shrink — embedding cache, HNSW index, raw trajectory store — and
        mirrors them through :func:`publish_memory`.
        """
        with self._trajs_lock:
            store_bytes = sum(t.nbytes for t in self._trajs)
            n_trajs = len(self._trajs)
        return publish_memory(
            registry, n_trajs, store_bytes, self.cache.nbytes, self.index.nbytes
        )

    def close(self) -> None:
        """Shut down the batcher thread; pending encodes fail cleanly."""
        self.batcher.close()

    def __enter__(self) -> "SimilarityServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
