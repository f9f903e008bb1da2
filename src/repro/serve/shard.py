"""Sharded multi-process serving: scatter-gather top-k over worker-owned shards.

:class:`~repro.serve.engine.SimilarityServer` tops out at the GIL — every
batched forward and every HNSW beam search shares one interpreter, so
thread count stops buying throughput (ROADMAP open item 1).  This module
breaks that ceiling with a process pool:

- **N worker processes**, each owning one :class:`~repro.index.hnsw.HNSWIndex`
  shard, its own encoder replica and its own
  :class:`~repro.serve.batcher.MicroBatcher`.  Stored trajectories are
  assigned to shards round-robin by database id (or by content hash, the
  same SHA-1 the :class:`~repro.serve.cache.EmbeddingCache` keys on).
- **Shared-memory handoff**: query payloads (trajectory points and query
  embeddings — the float64 buffers the cache already content-hashes) are
  written into a per-worker :class:`_ShmSlab` slot and referenced by slot
  index in the request message, so the hot path never pickles a large
  array.  Slots are recycled only after the worker's response arrives,
  which makes the handoff bit-exact by construction (tests assert this).
- **Scatter-gather merge**: the coordinator fans a query embedding out to
  every live shard, gathers per-shard top-k under a per-shard deadline
  and merges with :func:`merge_topk` — exact, with the same tie order as
  a single stable-argsort over one global index.

Degradation contract: the single-process engine's ladder, run over
shards.  :class:`ShardedSimilarityServer` calls the same plain functions
in :mod:`repro.serve.engine` the one-shard server does —
:func:`~repro.serve.engine.search_embeddings` in every worker,
:func:`~repro.serve.engine.exact_scan` for a missing shard,
:func:`~repro.serve.engine.degraded_answer` and
:func:`~repro.serve.engine.last_resort` below that — and the E001 pass
statically verifies its never-raises ``topk``:

- a shard that is dead, hung past its deadline, or erroring is covered by
  an exact brute-force scan over the coordinator's retained copy of that
  shard's embedding block — the answer is *degraded-but-exact in
  embedding space* (``degraded=True``, coverage intact);
- if encoding itself fails everywhere, the true-metric rung scans the
  coordinator's retained trajectories (the engine's degraded answer,
  with the same ``degraded`` trace span);
- anything unexpected lands in a literal-only empty result, the one
  construction the exception model proves cannot raise.

Ownership rules for shared memory: the **coordinator** creates, names and
unlinks every segment (``close()`` is the single cleanup point); workers
attach read-only and immediately deregister from their resource tracker
so a worker exit — clean or SIGKILL — can never unlink a live segment.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import multiprocessing as mp
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.hnsw import HNSWIndex
from ..metrics import MetricSpec
from ..obs.expo import register_scrape_hook, unregister_scrape_hook
from ..obs.lockstats import new_lock
from ..obs.log import get_logger
from ..obs.metrics import get_registry, mirror_snapshot
from ..obs.trace import (
    ROOT,
    TraceContext,
    begin_remote,
    export_subtree,
    get_tracer,
    graft_subtree,
)
from .batcher import MicroBatcher
from .cache import EmbeddingCache, trajectory_key
from .engine import (
    ServeResult,
    as_points,
    degraded_answer,
    embedding_answer,
    encode_block,
    encode_chunked,
    exact_scan,
    last_resort,
    open_request,
    publish_memory,
    resolve_encoder,
    resolve_metric,
    search_embeddings,
)

__all__ = [
    "SHM_PREFIX",
    "FeatureEncoder",
    "ShardDeadError",
    "ShardedSimilarityServer",
    "assign_shard",
    "merge_topk",
]

_LOG = get_logger("repro.serve.shard")

#: Prefix of every shared-memory segment this module creates; lifecycle
#: tests sweep ``/dev/shm`` for it to prove nothing leaks.
SHM_PREFIX = "reproshard"

#: Process-wide source of unique segment suffixes (pid reuse is handled
#: by retrying on name collision, see ``_ShmSlab``).
_SEGMENT_COUNTER = itertools.count()

#: Longest a build-path ``add_batch`` waits on one live worker.
_BUILD_TIMEOUT_S = 600.0


class ShardDeadError(RuntimeError):
    """A request's owning worker process died before answering."""


# ----------------------------------------------------------------------
# Pure functions: shard assignment and the scatter-gather merge.
# ----------------------------------------------------------------------
def assign_shard(
    gid: int, n_shards: int, strategy: str = "round-robin", key: Optional[str] = None
) -> int:
    """Shard index owning database id ``gid``.

    ``round-robin`` stripes ids across shards (balanced by construction);
    ``hash`` buckets by the trajectory's content digest (``key``, the
    same SHA-1 hex the embedding cache uses), so identical content always
    lands on the same shard regardless of insertion order.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if strategy == "round-robin":
        return gid % n_shards
    if strategy == "hash":
        if key is None:
            raise ValueError("hash strategy needs the trajectory content key")
        return int(key[:12], 16) % n_shards
    raise ValueError(f"unknown shard strategy {strategy!r}")


def merge_topk(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(distances, global_ids)`` lists into a global top-k.

    Each part must hold a shard's *local* top-``min(k, shard size)`` with
    exact, mutually comparable distance values (the serving path passes
    squared L2 throughout).  The merge sorts lexicographically by
    ``(distance, global_id)`` — for exact parts this reproduces a single
    stable argsort over the union, so ties at the k-boundary resolve to
    the lowest global id exactly as a one-index brute force would.
    """
    kept = [(d, g) for d, g in parts if len(g)]
    if not kept:
        return np.zeros(0), np.zeros(0, dtype=int)
    dists = np.concatenate([np.asarray(d, dtype=np.float64) for d, _ in kept])
    gids = np.concatenate([np.asarray(g, dtype=int) for _, g in kept])
    order = np.lexsort((gids, dists))[: max(k, 0)]
    return dists[order], gids[order]


# ----------------------------------------------------------------------
# A cheap, picklable encoder (workers must be able to rebuild their
# encoder in a spawned interpreter; benches and tests use this one).
# ----------------------------------------------------------------------
class FeatureEncoder:
    """Deterministic geometric-feature encoder, picklable across spawn.

    Summarises each trajectory with eight scale-stable statistics (mean,
    spread, endpoints) and projects them through a fixed random matrix to
    ``dim`` — orders of magnitude cheaper than a model forward, which
    makes it the right substrate for serving-machinery benchmarks where
    encode cost must not mask index/IPC behaviour.
    """

    def __init__(self, dim: int = 16, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._proj = rng.normal(size=(8, dim)) / np.sqrt(8.0)

    @staticmethod
    def _features(points: np.ndarray) -> np.ndarray:
        """Eight float64 summary features of one ``(n, 2)`` trajectory."""
        points = np.asarray(points, dtype=np.float64)
        mean = points.mean(axis=0)
        std = points.std(axis=0)
        return np.concatenate([mean, std, points[0], points[-1]])

    def __call__(self, trajs: Sequence) -> np.ndarray:
        """Encode a list of trajectories to a ``(B, dim)`` float64 array."""
        feats = np.stack([self._features(np.asarray(t)) for t in trajs])
        return feats @ self._proj


# ----------------------------------------------------------------------
# Shared-memory slab: fixed float64 slots, coordinator-owned lifecycle.
# ----------------------------------------------------------------------
class _ShmSlab:
    """Fixed-slot shared-memory arena for float64 payload handoff.

    The coordinator creates (and later unlinks) one slab per worker;
    callers ``acquire`` a slot, ``write`` an array into it and pass the
    slot index in the request message.  A slot is recycled only once the
    worker's response for it arrived (or its worker is declared dead), so
    a slow worker can never observe a half-overwritten payload.
    """

    def __init__(self, slots: int, slot_bytes: int):
        if slots < 1 or slot_bytes < 8:
            raise ValueError("slab needs >= 1 slot of >= 8 bytes")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._shm: Optional[shared_memory.SharedMemory] = None
        while self._shm is None:
            name = f"{SHM_PREFIX}-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, name=name, size=slots * slot_bytes
                )
            except FileExistsError:
                continue  # stale segment from a recycled pid: pick a new name
        self.name = self._shm.name
        self._free = list(range(slots))
        self._lock = new_lock("serve.shard.slab")

    def acquire(self) -> Optional[int]:
        """A free slot index, or None when the slab is exhausted."""
        with self._lock:
            return self._free.pop() if self._free else None

    def release(self, slot: int) -> None:
        """Return a slot to the free list (idempotence is the caller's job)."""
        with self._lock:
            self._free.append(slot)

    def write(self, slot: int, array: np.ndarray) -> Tuple[int, ...]:
        """Copy ``array`` (float64) into ``slot``; returns its shape token."""
        flat = np.ascontiguousarray(array, dtype=np.float64).ravel()
        if flat.nbytes > self.slot_bytes:
            raise ValueError(f"payload of {flat.nbytes} B exceeds slot size")
        with self._lock:
            shm = self._shm
        if shm is None:
            raise ValueError("slab is closed")
        view = np.frombuffer(
            shm.buf, dtype=np.float64, count=flat.size,
            offset=slot * self.slot_bytes,
        )
        view[:] = flat
        return tuple(np.asarray(array).shape)

    def close(self) -> None:
        """Close and unlink the segment (idempotent, swallows races)."""
        with self._lock:
            shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # already gone: nothing to own
            pass


def _attach_slab(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach to the coordinator's slab, without tracking.

    A plain attach registers the segment with the resource tracker,
    which creates the classic double-owner hazard: the tracker would
    unlink a segment the coordinator still owns, and (because spawned
    workers share the coordinator's tracker process) the worker-side
    registration collides with the coordinator's own.  The coordinator
    is the sole owner, so registration is suppressed for the duration of
    the attach — the 3.11-compatible equivalent of Python 3.13's
    ``SharedMemory(..., track=False)``.  After this, neither a clean
    worker exit nor a SIGKILL can destroy a live segment, and the
    coordinator's eventual ``unlink`` stays the one and only
    deregistration the tracker sees.
    """
    from multiprocessing import resource_tracker

    real_register = resource_tracker.register

    def _skip_shm(tracked_name, rtype):  # pragma: no cover - attach-scope shim
        if rtype != "shared_memory":
            real_register(tracked_name, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def _read_slot(
    shm: shared_memory.SharedMemory, slot: int, slot_bytes: int, shape: Sequence[int]
) -> np.ndarray:
    """Copy one float64 payload out of a slab slot."""
    count = int(np.prod(shape)) if len(shape) else 1
    view = np.frombuffer(
        shm.buf, dtype=np.float64, count=count, offset=slot * slot_bytes
    )
    return view.reshape(tuple(shape)).copy()


# ----------------------------------------------------------------------
# Worker process.
# ----------------------------------------------------------------------
@dataclass
class _ShardSpec:
    """Everything a spawned worker needs to rebuild its serving stack.

    ``encoder`` must be picklable (e.g. :class:`FeatureEncoder`, or any
    model object whose state pickles) — it is rebuilt inside the worker
    interpreter, never shared.
    """

    encoder: object
    dim: int
    m: int = 8
    ef_construction: int = 64
    ef_search: Optional[int] = None
    brute_threshold: int = 64
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    idle_grace_ms: float = 0.5
    seed: int = 0


def _shard_worker_main(
    spec: _ShardSpec,
    shard_idx: int,
    slab_name: str,
    slot_bytes: int,
    request_q,
    response_q,
) -> None:
    """Entry point of one shard worker process.

    Owns an encoder replica, an HNSW shard, a local->global id map and a
    :class:`MicroBatcher`; serves commands off ``request_q`` until the
    shutdown sentinel.  Every per-message fault is answered as an
    ``error`` payload — the loop itself must survive anything a single
    request throws, or the whole shard dies with it.
    """
    encode_fn = resolve_encoder(spec.encoder)
    index = HNSWIndex(
        spec.dim, m=spec.m, ef_construction=spec.ef_construction,
        seed=spec.seed + shard_idx,
    )
    gids: List[int] = []
    batcher = MicroBatcher(
        lambda trajs: encode_block(encode_fn, trajs, spec.dim),
        max_batch_size=spec.max_batch_size,
        max_wait_ms=spec.max_wait_ms,
        idle_grace_ms=spec.idle_grace_ms,
        name=f"serve.shard{shard_idx}",
    )
    shm = _attach_slab(slab_name)
    hooks: Dict[str, float] = {}
    try:
        while True:
            try:
                msg = request_q.get()
            except (EOFError, OSError):  # queue torn down under us
                break
            if msg is None or msg.get("cmd") == "shutdown":
                break
            try:
                _handle_worker_msg(
                    msg, spec, encode_fn, index, gids, batcher, shm,
                    slot_bytes, hooks, response_q,
                )
            except Exception as exc:
                # Per-message fault isolation: the requester gets the
                # error, the worker lives on for every other request.
                _LOG.warning(
                    "shard-request-failed",
                    shard=shard_idx,
                    cmd=msg.get("cmd"),
                    error=type(exc).__name__,
                )
                response_q.put(
                    {"seq": msg.get("seq", -1),
                     "error": f"{type(exc).__name__}: {exc}"}
                )
    finally:
        batcher.close()
        shm.close()


def _worker_payload(
    msg: dict, shm: shared_memory.SharedMemory, slot_bytes: int
) -> np.ndarray:
    """The float64 payload of one request: slab slot or inline fallback."""
    if "slot" in msg:
        return _read_slot(shm, msg["slot"], slot_bytes, msg["shape"])
    return np.asarray(msg["data"], dtype=np.float64)


def _request_context(msg: dict) -> Optional[TraceContext]:
    """The cross-process trace context a request carried, if any.

    Every dispatch site ships a ``trace_ctx`` key (R010 enforces this);
    it is None when the coordinator was not tracing, in which case the
    worker's subtree machinery collapses to no-ops.
    """
    wire = msg.get("trace_ctx")
    return TraceContext.from_wire(wire) if wire else None


def _record_ipc_wait(rtrace, ctx: Optional[TraceContext], msg: dict, received: float) -> None:
    """Stamp the request's IPC queue wait onto the worker subtree.

    The interval between the coordinator's ``sent_at`` stamp (mapped
    into this process's clock via the context's ``clock_offset``) and
    the worker picking the message up — distinct from the *batcher*
    queue-wait the Handoff machinery records on the encode path.
    """
    if ctx is None:
        return
    sent_local = msg.get("sent_at", received) - ctx.clock_offset
    rtrace.record_span("ipc-wait", min(sent_local, received), received, parent_id=ROOT)


def _handle_worker_msg(
    msg: dict,
    spec: _ShardSpec,
    encode_fn: Callable,
    index: HNSWIndex,
    gids: List[int],
    batcher: MicroBatcher,
    shm: shared_memory.SharedMemory,
    slot_bytes: int,
    hooks: Dict[str, float],
    response_q,
) -> None:
    """Dispatch one coordinator command inside the worker process."""
    cmd = msg["cmd"]
    seq = msg["seq"]
    received = time.perf_counter()
    if cmd == "search":
        ctx = _request_context(msg)
        rtrace = begin_remote(ctx, name="shard.search")
        _record_ipc_wait(rtrace, ctx, msg, received)
        with rtrace.handoff().resume(wait_name=None):
            with rtrace.span("slab-read"):
                embedding = _worker_payload(msg, shm, slot_bytes)
            start = time.perf_counter()
            # HNSW's own annotate() calls land on this span while the
            # subtree is bound current (hnsw_candidates / ef attribution).
            with rtrace.span("search") as search_span:
                if hooks.get("search_delay_s"):
                    time.sleep(hooks["search_delay_s"])
                sq, ids, _ = search_embeddings(
                    index, embedding, msg["k"], spec.brute_threshold, spec.ef_search
                )
                found = np.asarray(gids, dtype=int)[ids]
                search_span.set(n=len(index))
        resp = {
            "seq": seq,
            "dists": sq,
            "gids": found,
            "n": len(index),
            "search_s": time.perf_counter() - start,
            # perf_counter is CLOCK_MONOTONIC, shared across processes
            # on Linux: queue wait as seen from the worker side.
            "wait_s": max(received - msg.get("sent_at", received), 0.0),
        }
        if ctx is not None:
            resp["trace"] = export_subtree(rtrace)
        response_q.put(resp)
    elif cmd == "encode":
        ctx = _request_context(msg)
        rtrace = begin_remote(ctx, name="shard.encode")
        _record_ipc_wait(rtrace, ctx, msg, received)
        if hooks.get("encode_delay_s"):
            time.sleep(hooks["encode_delay_s"])
        # Binding the subtree current across submit() makes the batcher
        # capture its handoff, so the flush thread's queue-wait and
        # batched-forward stamps land inside this request's subtree.
        with rtrace.handoff().resume(wait_name=None):
            with rtrace.span("slab-read"):
                traj = _worker_payload(msg, shm, slot_bytes)
            future = batcher.submit(traj)

        def _deliver(done: Future, seq: int = seq, t0: float = received) -> None:
            """Post the batched-encode outcome back on the response queue.

            Runs on the flush thread *after* it stamped the queue-wait
            and forward spans, so the exported subtree is complete.
            """
            try:
                embedding = done.result()
            except BaseException as exc:  # lint: allow(E002) callback boundary
                _LOG.warning("shard-encode-failed", error=type(exc).__name__)
                resp = {"seq": seq, "error": f"{type(exc).__name__}: {exc}"}
                if ctx is not None:
                    resp["trace"] = export_subtree(rtrace)
                response_q.put(resp)
                return
            resp = {
                "seq": seq,
                "embedding": np.asarray(embedding, dtype=np.float64),
                "worker_s": time.perf_counter() - t0,
            }
            if ctx is not None:
                resp["trace"] = export_subtree(rtrace)
            response_q.put(resp)

        future.add_done_callback(_deliver)
    elif cmd == "add_batch":
        # Build-path insert: synchronous chunked encodes (bypassing the
        # batcher, like the single-process engine's add_batch) and HNSW
        # inserts; the response returns the embeddings so the coordinator
        # can retain this shard's block for exact fallback scans.
        trajs = [np.asarray(t, dtype=np.float64) for t in msg["trajs"]]
        embeddings = encode_chunked(encode_fn, trajs, spec.dim, spec.max_batch_size)
        for gid, embedding in zip(msg["gids"], embeddings):
            index.add(embedding)
            gids.append(int(gid))
        response_q.put({"seq": seq, "embeddings": embeddings})
    elif cmd == "echo":
        payload = _worker_payload(msg, shm, slot_bytes)
        response_q.put(
            {"seq": seq, "digest": trajectory_key(payload), "data": payload}
        )
    elif cmd == "stats":
        response_q.put(
            {
                "seq": seq,
                "pid": os.getpid(),
                "size": len(index),
                "index_bytes": index.nbytes,
                "snapshot": get_registry().snapshot(),
            }
        )
    elif cmd == "dump":
        response_q.put({"seq": seq, "state": index.state_dict(),
                        "gids": np.asarray(gids, dtype=int)})
    elif cmd == "debug":
        hooks.update(msg.get("hooks", {}))
        response_q.put({"seq": seq, "hooks": dict(hooks)})
    else:
        response_q.put({"seq": seq, "error": f"ValueError: unknown command {cmd!r}"})


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------
class _ShardHandle:
    """Coordinator-side handle to one worker: queues, slab, pending map.

    A dispatcher thread routes response payloads (by ``seq``) into the
    futures request() handed out, releasing the payload's slab slot at
    that moment — the only point the worker is provably done reading it.
    Death is detected either here (queue idle while the process is gone)
    or by a gather timeout; ``mark_dead`` is idempotent, fails every
    pending future with :class:`ShardDeadError` and counts the shard in
    ``serve.shard.dead`` exactly once.
    """

    def __init__(self, idx: int, ctx, spec: _ShardSpec, slots: int, slot_bytes: int):
        self.idx = idx
        self.slab = _ShmSlab(slots, slot_bytes)
        self.request_q = ctx.Queue()
        self.response_q = ctx.Queue()
        self.dead = False
        self._stopping = False
        self._seq = itertools.count()
        #: seq -> (future, slot or None); guarded by _plock.
        self._pending: Dict[int, Tuple[Future, Optional[int]]] = {}
        self._plock = new_lock(f"serve.shard{idx}.pending")
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(spec, idx, self.slab.name, slot_bytes, self.request_q, self.response_q),
            daemon=True,
            name=f"repro-shard-{idx}",
        )
        self.process.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch, name=f"shard{idx}-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    def request(self, msg: dict, slot: Optional[int] = None) -> Future:
        """Send one command; the future resolves to the response payload."""
        seq = next(self._seq)
        future: Future = Future()
        with self._plock:
            if self.dead:
                raise ShardDeadError(f"shard {self.idx} is dead")
            self._pending[seq] = (future, slot)
        msg = dict(msg, seq=seq, sent_at=time.perf_counter())
        self.request_q.put(msg)
        get_registry().counter("serve.shard.requests").inc()
        return future

    def send_payload(self, msg: dict, array: np.ndarray) -> Future:
        """Send a command whose float64 payload rides the shared slab.

        Falls back to inline pickling when the slab is exhausted or the
        payload outgrows a slot (counted, never fatal): correctness never
        depends on shared memory, only the hot path's speed does.
        """
        slot = self.slab.acquire()
        if slot is not None:
            try:
                shape = self.slab.write(slot, array)
            except ValueError:
                self.slab.release(slot)
                slot = None
            else:
                return self.request(dict(msg, slot=slot, shape=shape), slot=slot)
        get_registry().counter("serve.shard.slab_overflow").inc()
        return self.request(dict(msg, data=np.asarray(array, dtype=np.float64)))

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Route worker responses to their futures until stop or death."""
        while True:
            try:
                resp = self.response_q.get(timeout=0.2)
            except queue.Empty:
                with self._plock:
                    stopping = self._stopping
                if stopping:
                    return
                if not self.process.is_alive():
                    self._drain()
                    self.mark_dead("process-exited")
                    return
                continue
            except (EOFError, OSError):
                with self._plock:
                    stopping = self._stopping
                if not stopping:
                    self.mark_dead("response-queue-closed")
                return
            self._resolve(resp)

    def _resolve(self, resp: dict) -> None:
        """Complete the future for one response and recycle its slot."""
        seq = resp.get("seq", -1)
        with self._plock:
            future, slot = self._pending.pop(seq, (None, None))
        if slot is not None:
            self.slab.release(slot)
        if future is not None and not future.done():
            future.set_result(resp)

    def _drain(self) -> None:
        """Deliver responses a dying worker managed to flush before exit."""
        while True:
            try:
                resp = self.response_q.get_nowait()
            except (queue.Empty, EOFError, OSError):
                return
            self._resolve(resp)

    def mark_dead(self, reason: str) -> None:
        """Declare the worker dead once: fail pending, free slots, count it."""
        with self._plock:
            if self.dead:
                return
            self.dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        for _, slot in pending:
            if slot is not None:
                self.slab.release(slot)
        error = ShardDeadError(f"shard {self.idx} died ({reason})")
        for future, _ in pending:
            if not future.done():
                future.set_exception(error)
        get_registry().counter("serve.shard.dead").inc()
        _LOG.warning("shard-dead", shard=self.idx, reason=reason, failed=len(pending))

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Orderly worker shutdown; escalates to kill. Never raises."""
        with self._plock:
            self._stopping = True
            dead = self.dead
        try:
            if self.process.is_alive() and not dead:
                self.request_q.put({"cmd": "shutdown"})
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)
        except Exception as exc:  # shutdown is best-effort by contract
            _LOG.warning("shard-stop-failed", shard=self.idx, error=type(exc).__name__)
        with self._plock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future, _ in pending:
            if not future.done():
                future.set_exception(ShardDeadError(f"shard {self.idx} closed"))
        for q in (self.request_q, self.response_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception as exc:  # queue internals already torn down
                _LOG.debug(
                    "shard-queue-close", shard=self.idx, error=type(exc).__name__
                )
        self._dispatcher.join(timeout=timeout)
        self.slab.close()


class ShardedSimilarityServer:
    """Process-pool top-k serving: N shard workers, one merging coordinator.

    The public surface mirrors :class:`~repro.serve.engine.SimilarityServer`
    (``add`` / ``add_batch`` / ``topk`` / ``stats`` / ``memory_stats`` /
    ``close``), with the same never-raises ``topk`` contract — see the
    module docstring for the architecture and degradation tiers.

    Parameters
    ----------
    encoder:
        Picklable encode callable (or model with ``.encode``); each
        worker rebuilds its own replica in a spawned interpreter.
    dim:
        Embedding dimensionality.
    n_shards:
        Worker process count (>= 1).
    strategy:
        ``"round-robin"`` (default) or ``"hash"`` shard assignment.
    shard_deadline_s:
        Gather budget per request: shards that have not answered by then
        are covered by the coordinator's exact fallback scan.
    slots / slot_bytes:
        Shared-memory slab geometry per worker (payloads larger than a
        slot fall back to inline pickling).
    stats_ttl_s:
        Minimum age before a Prometheus scrape re-pulls worker registry
        snapshots (see :meth:`refresh_shard_telemetry`).
    """

    def __init__(
        self,
        encoder: object,
        dim: int,
        *,
        n_shards: int = 2,
        strategy: str = "round-robin",
        shard_deadline_s: float = 2.0,
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
        slots: int = 64,
        slot_bytes: int = 32768,
        stats_ttl_s: float = 1.0,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if strategy not in ("round-robin", "hash"):
            raise ValueError(f"unknown shard strategy {strategy!r}")
        self.dim = dim
        self.n_shards = n_shards
        self.strategy = strategy
        self.shard_deadline_s = shard_deadline_s
        self.degraded_scan_limit = degraded_scan_limit
        self.cache = EmbeddingCache(capacity=cache_capacity)
        self.fallback_metric = resolve_metric(fallback_metric)
        self._spec = _ShardSpec(
            encoder=encoder,
            dim=dim,
            m=m,
            ef_construction=ef_construction,
            ef_search=ef_search,
            brute_threshold=brute_threshold,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            idle_grace_ms=idle_grace_ms,
            seed=seed,
        )
        # Spawn (not fork): workers must not inherit the coordinator's
        # threads, locks or sanitizer state — a forked child of a
        # multi-threaded parent is undefined behaviour waiting to happen.
        ctx = mp.get_context("spawn")
        self._handles = [
            _ShardHandle(i, ctx, self._spec, slots, slot_bytes)
            for i in range(n_shards)
        ]
        # Coordinator-retained store: trajectories by gid (true-metric
        # fallback) and per-shard embedding blocks (exact fallback scan
        # covering a dead or deadline-missing shard).
        self._trajs: List[np.ndarray] = []
        self._shard_gids: List[List[int]] = [[] for _ in range(n_shards)]
        self._blocks: List[List[np.ndarray]] = [[] for _ in range(n_shards)]
        self._block_cache: List[Optional[np.ndarray]] = [None] * n_shards
        self._store_lock = new_lock("serve.shard.store")
        self._rr = itertools.count()
        self._closed = False
        self._close_lock = new_lock("serve.shard.close")
        # Fleet telemetry: every Prometheus scrape re-pulls the worker
        # registries (TTL-throttled) instead of waiting for stats().
        self.stats_ttl_s = stats_ttl_s
        self._stats_refreshed_at: Optional[float] = None
        self._stats_lock = new_lock("serve.shard.statsttl")
        register_scrape_hook(self._refresh_on_scrape)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._store_lock:
            return len(self._trajs)

    def __enter__(self) -> "ShardedSimilarityServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def live_shards(self) -> List[int]:
        """Indices of shards whose worker process is still serving."""
        return [h.idx for h in self._handles if not h.dead]

    # ------------------------------------------------------------------
    def add(self, traj) -> int:
        """Insert one trajectory; returns its database id."""
        return self.add_batch([traj])[0]

    def add_batch(self, trajs: Sequence) -> List[int]:
        """Insert many trajectories, encoded and indexed on their shards.

        Unlike :meth:`topk` this is the build path and *does* raise — a
        worker that dies mid-build is a deployment failure, not a query
        to degrade around.
        """
        points = [as_points(t) for t in trajs]
        with self._store_lock:
            gid0 = len(self._trajs)
            self._trajs.extend(points)
        per_shard: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}
        for offset, pts in enumerate(points):
            gid = gid0 + offset
            key = trajectory_key(pts) if self.strategy == "hash" else None
            shard = assign_shard(gid, self.n_shards, self.strategy, key)
            shard_gids, shard_pts = per_shard.setdefault(shard, ([], []))
            shard_gids.append(gid)
            shard_pts.append(pts)
        futures = []
        for shard, (shard_gids, shard_pts) in sorted(per_shard.items()):
            handle = self._handles[shard]
            if handle.dead:
                raise ShardDeadError(f"cannot add to dead shard {shard}")
            futures.append(
                (
                    handle,
                    shard_gids,
                    handle.request(
                        {"cmd": "add_batch", "trajs": shard_pts, "gids": shard_gids}
                    ),
                )
            )
        for handle, shard_gids, future in futures:
            resp = self._await_build(handle, future)
            if "error" in resp:
                raise RuntimeError(f"shard {handle.idx} add failed: {resp['error']}")
            embeddings = np.asarray(resp["embeddings"], dtype=np.float64)
            with self._store_lock:
                self._shard_gids[handle.idx].extend(shard_gids)
                self._blocks[handle.idx].append(embeddings)
                self._block_cache[handle.idx] = None
        return list(range(gid0, gid0 + len(points)))

    def _await_build(self, handle: _ShardHandle, future: Future) -> dict:
        """Build-path wait: poll the future while the worker stays alive."""
        deadline = time.perf_counter() + _BUILD_TIMEOUT_S
        while True:
            try:
                return future.result(timeout=1.0)
            except FutureTimeoutError:
                if time.perf_counter() > deadline:
                    raise TimeoutError(
                        f"shard {handle.idx} build exceeded {_BUILD_TIMEOUT_S}s"
                    ) from None
                if not handle.process.is_alive():
                    handle.mark_dead("died-during-build")
                    raise ShardDeadError(
                        f"shard {handle.idx} died during add_batch"
                    ) from None

    # ------------------------------------------------------------------
    # The E001 pass statically verifies this annotation: every raise
    # reachable from topk must be caught before it gets back here.
    def topk(self, traj, k: int = 1, deadline_s: Optional[float] = None) -> ServeResult:  # contract: never-raises
        """Scatter-gather top-k over all shards; never raises.

        ``deadline_s`` bounds the encode wait (the gather is always
        bounded by ``shard_deadline_s``); dead, hung or erroring shards
        are covered by the coordinator's exact embedding-space fallback
        scan and flag the result ``degraded=True``.
        """
        start = time.perf_counter()
        try:
            return self._topk_impl(traj, k, deadline_s, start)
        except Exception as exc:
            # Last-resort guard: the serving contract is "no exceptions
            # to the caller"; anything unexpected degrades instead.
            _LOG.error("sharded-topk-unexpected", error=type(exc).__name__, k=k)
            return last_resort(self._degraded, traj, k, start, exc)

    def _topk_impl(
        self, traj, k: int, deadline_s: Optional[float], start: float
    ) -> ServeResult:
        """Cache probe -> remote encode -> scatter-gather merge.

        May raise; :meth:`topk` owns the never-raises guard.
        """
        with get_tracer().trace("serve.topk", k=k, shards=self.n_shards) as trace:
            points, key, embedding = open_request(self.cache, traj, trace, deadline_s)
            cache_hit = embedding is not None
            if not cache_hit:
                budget = self.shard_deadline_s
                if deadline_s is not None:
                    budget = min(budget, deadline_s - (time.perf_counter() - start))
                if budget <= 0:
                    return self._degraded(points, k, start, "deadline-before-encode")
                embedding = self._encode_remote(points, budget, trace)
                if embedding is None:
                    return self._degraded(points, k, start, "encode-failed")
                self.cache.put(key, embedding)
            return self._scatter_gather(embedding, k, start, cache_hit, trace)

    # ------------------------------------------------------------------
    def _encode_remote(
        self, points: np.ndarray, budget: float, trace
    ) -> Optional[np.ndarray]:
        """Query embedding via one worker's MicroBatcher; None on failure.

        The encode is dispatched round-robin to a single live worker (the
        whole pool batches independently); one retry goes to a different
        worker when the first attempt fails or times out with budget to
        spare.  Timeouts double as death probes for the chosen worker.
        """
        registry = get_registry()
        deadline = time.perf_counter() + budget
        for attempt in range(2):
            live = [h for h in self._handles if not h.dead]
            if not live:
                return None
            handle = live[next(self._rr) % len(live)]
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                registry.counter("serve.query.deadline_missed").inc()
                return None
            if attempt:
                registry.counter("serve.shard.encode_retries").inc()
            with trace.span("encode") as enc_span:
                enc_span.set(shard=handle.idx, attempt=attempt)
                ctx = trace.context()
                wire_ctx = ctx.to_wire() if ctx is not None else None
                try:
                    future = handle.send_payload(
                        {"cmd": "encode", "trace_ctx": wire_ctx}, points
                    )
                    resp = future.result(timeout=remaining)
                except FutureTimeoutError:
                    registry.counter("serve.query.deadline_missed").inc()
                    if not handle.process.is_alive():
                        handle.mark_dead("died-before-encode")
                    enc_span.set(result="timeout")
                    continue
                except Exception as exc:
                    _LOG.warning(
                        "shard-encode-error",
                        shard=handle.idx,
                        error=type(exc).__name__,
                    )
                    enc_span.set(result="error", error=type(exc).__name__)
                    continue
                if "error" in resp:
                    enc_span.set(result="error", error=resp["error"])
                    self._graft(trace, enc_span.span_id, resp, ctx, handle.idx)
                    continue
                enc_span.set(result="ok", worker_s=resp.get("worker_s", 0.0))
                self._graft(trace, enc_span.span_id, resp, ctx, handle.idx)
                return np.asarray(resp["embedding"], dtype=np.float64)
        return None

    @staticmethod
    def _graft(trace, span_id, resp: dict, ctx: Optional[TraceContext], shard: int) -> None:
        """Stitch a worker-returned span subtree under one local span."""
        if ctx is not None and "trace" in resp:
            graft_subtree(
                trace, span_id, resp["trace"],
                clock_offset=ctx.clock_offset, shard=shard,
            )

    def _scatter_gather(
        self, embedding: np.ndarray, k: int, start: float, cache_hit: bool, trace
    ) -> ServeResult:
        """Fan out to live shards, gather under deadline, merge exactly."""
        registry = get_registry()
        with self._store_lock:
            k_eff = min(k, len(self._trajs))
        if k_eff < 1:
            return embedding_answer(np.zeros(0), np.zeros(0), k, start, cache_hit, "sharded")
        ctx = trace.context()
        wire_ctx = ctx.to_wire() if ctx is not None else None
        gather_deadline = time.perf_counter() + self.shard_deadline_s
        pending: List[Tuple[_ShardHandle, Future, float]] = []
        fallback: List[Tuple[int, str]] = []
        with trace.span("dispatch") as dispatch_span:
            for handle in self._handles:
                if handle.dead:
                    fallback.append((handle.idx, "dead"))
                    continue
                try:
                    future = handle.send_payload(
                        {"cmd": "search", "k": k_eff, "trace_ctx": wire_ctx},
                        embedding,
                    )
                except Exception as exc:
                    _LOG.warning(
                        "shard-send-failed", shard=handle.idx, error=type(exc).__name__
                    )
                    fallback.append((handle.idx, f"send-failed:{type(exc).__name__}"))
                    continue
                pending.append((handle, future, time.perf_counter()))
            dispatch_span.set(shards=len(pending))
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        # Per-shard coordinator-side wait, for straggler attribution.
        shard_waits: List[Tuple[int, float]] = []
        for handle, future, sent in pending:
            resp: Optional[dict] = None
            reason: Optional[str] = None  # set when the shard needs a fallback scan
            try:
                resp = future.result(timeout=max(gather_deadline - time.perf_counter(), 0.0))
            except FutureTimeoutError:
                if handle.process.is_alive():
                    registry.counter("serve.shard.deadline_missed").inc()
                    reason, attrs = "deadline", {"result": "deadline", "deadline": True}
                else:
                    handle.mark_dead("died-mid-query")
                    reason, attrs = "dead", {"result": "dead", "dead": True}
            except ShardDeadError:
                # The reaper failed the pending future: the worker died
                # with our request in flight.
                reason, attrs = "dead", {"result": "dead", "dead": True}
            except Exception as exc:
                _LOG.warning("shard-gather-error", shard=handle.idx, error=type(exc).__name__)
                reason = type(exc).__name__
                attrs = {"result": "error", "error": reason}
            else:
                if "error" in resp:
                    reason, attrs = "worker-error", {"result": "error", "error": resp["error"]}
                else:
                    attrs = {
                        "result": "ok", "n": resp.get("n", 0),
                        "search_s": resp.get("search_s", 0.0),
                        "wait_s": resp.get("wait_s", 0.0),
                    }
                    parts.append((resp["dists"], resp["gids"]))
            now = time.perf_counter()
            shard_waits.append((handle.idx, now - sent))
            # Cross-process stitch: the shard span covers dispatch to
            # gather on the coordinator clock; the worker's subtree
            # (ipc-wait / slab-read / search) is grafted beneath it.
            span_id = trace.record_span(f"shard-{handle.idx}", sent, now, **attrs)
            if resp is not None:
                self._graft(trace, span_id, resp, ctx, handle.idx)
            if reason is not None:
                fallback.append((handle.idx, reason))
        if shard_waits:
            waits = np.asarray([w for _, w in shard_waits], dtype=float)
            trace.set(
                straggler_gap_s=float(waits.max() - np.median(waits)),
                slowest_shard=int(shard_waits[int(np.argmax(waits))][0]),
            )
        for shard_idx, reason in fallback:
            # A missing shard's portion: the exact scan over the retained
            # block, same arithmetic and tie order as the worker's.
            with trace.span(f"fallback-{shard_idx}") as fb_span:
                fb_span.set(reason=reason)
                block, block_gids = self._shard_block(shard_idx)
                sq, rows = exact_scan(block, embedding, k_eff)
                parts.append((sq, block_gids[rows]))
            registry.counter("serve.shard.fallback_scans").inc()
        with trace.span("merge") as merge_span:
            sq, gids = merge_topk(parts, k_eff)
            merge_span.set(parts=len(parts))
        if fallback:
            return embedding_answer(
                sq, gids, k, start, cache_hit, "sharded-fallback",
                degraded=True, fallback_shards=len(fallback),
            )
        return embedding_answer(sq, gids, k, start, cache_hit, "sharded")

    def _shard_block(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """This shard's retained ``(embeddings, gids)``, stacked and cached."""
        with self._store_lock:
            cached = self._block_cache[shard]
            blocks = list(self._blocks[shard])
            gids = np.asarray(self._shard_gids[shard], dtype=int)
        if cached is not None and len(cached) == len(gids):
            return cached, gids
        stacked = (
            np.concatenate(blocks, axis=0) if blocks else np.zeros((0, self.dim))
        )
        with self._store_lock:
            self._block_cache[shard] = stacked
        return stacked, gids

    def _degraded(self, points: np.ndarray, k: int, start: float, reason: str) -> ServeResult:
        """:func:`degraded_answer` over the first ``degraded_scan_limit`` trips."""
        with self._store_lock:
            subset = self._trajs[: self.degraded_scan_limit]
        return degraded_answer(points, subset, self.fallback_metric, k, start, reason)

    # ------------------------------------------------------------------
    def shard_stats(self, timeout_s: float = 2.0) -> Dict[int, dict]:
        """Per-shard worker stats (pid, size, index bytes, registry mirror).

        Sends a ``stats`` probe to every live worker and mirrors each
        returned registry snapshot into this process's registry under
        ``serve.shard.<i>.*`` gauges — the cross-process metrics handoff
        ``repro-tmn report`` and the bench read.
        """
        out: Dict[int, dict] = {}
        probes = []
        for handle in self._handles:
            if handle.dead:
                out[handle.idx] = {"dead": True}
                continue
            try:
                probes.append((handle, handle.request({"cmd": "stats"})))
            except Exception as exc:
                _LOG.debug(
                    "shard-stats-probe-failed",
                    shard=handle.idx,
                    error=type(exc).__name__,
                )
                out[handle.idx] = {"dead": True, "error": type(exc).__name__}
        registry = get_registry()
        for handle, future in probes:
            try:
                resp = future.result(timeout=timeout_s)
            except Exception as exc:
                _LOG.debug(
                    "shard-stats-timeout",
                    shard=handle.idx,
                    error=type(exc).__name__,
                )
                out[handle.idx] = {"dead": handle.dead, "error": type(exc).__name__}
                continue
            snapshot = resp.get("snapshot", {})
            mirror_snapshot(snapshot, f"serve.shard.{handle.idx}.", registry)
            out[handle.idx] = {
                "dead": False,
                "pid": resp.get("pid"),
                "size": resp.get("size", 0),
                "index_bytes": resp.get("index_bytes", 0),
            }
        with self._stats_lock:
            self._stats_refreshed_at = time.perf_counter()
        return out

    def _refresh_on_scrape(self) -> None:
        """Exposition scrape hook: keep ``serve.shard.N.*`` mirrors fresh."""
        self.refresh_shard_telemetry()

    def refresh_shard_telemetry(
        self, ttl_s: Optional[float] = None, timeout_s: float = 0.5
    ) -> bool:
        """Re-pull worker registry snapshots when the mirror has gone stale.

        Registered as a Prometheus scrape hook at construction, so the
        ``serve.shard.N.*`` gauges track live workers on every scrape
        instead of only moving when someone calls :meth:`shard_stats`.
        The TTL (``stats_ttl_s`` unless overridden) bounds scrape cost
        to at most one cheap per-worker probe per TTL window.  Returns
        True when a refresh actually ran.
        """
        with self._close_lock:
            if self._closed:
                return False
        ttl = self.stats_ttl_s if ttl_s is None else ttl_s
        now = time.perf_counter()
        with self._stats_lock:
            last = self._stats_refreshed_at
            if last is not None and now - last < ttl:
                return False
            # Claim the window before probing so concurrent scrapes
            # cannot stampede the workers with duplicate stats probes.
            self._stats_refreshed_at = now
        self.shard_stats(timeout_s=timeout_s)
        return True

    def dump_shard(self, shard: int, timeout_s: float = 60.0) -> dict:
        """One shard's index state and gid map (for in-process rebuilds)."""
        handle = self._handles[shard]
        resp = handle.request({"cmd": "dump"}).result(timeout=timeout_s)
        if "error" in resp:
            raise RuntimeError(f"shard {shard} dump failed: {resp['error']}")
        return {"state": resp["state"], "gids": resp["gids"]}

    def debug_shard(self, shard: int, timeout_s: float = 5.0, **hooks) -> dict:
        """Install fault-injection hooks (e.g. ``search_delay_s``) in a worker."""
        handle = self._handles[shard]
        resp = handle.request({"cmd": "debug", "hooks": hooks}).result(
            timeout=timeout_s
        )
        return resp.get("hooks", {})

    def echo_shard(self, shard: int, array: np.ndarray, timeout_s: float = 5.0) -> dict:
        """Round-trip an array through a worker's slab (lifecycle tests)."""
        handle = self._handles[shard]
        return handle.send_payload({"cmd": "echo"}, array).result(timeout=timeout_s)

    def stats(self) -> dict:
        """Coordinator-level serving counters snapshot."""
        with self._store_lock:
            n_trajs = len(self._trajs)
        return {
            "db_size": n_trajs,
            "n_shards": self.n_shards,
            "live_shards": len(self.live_shards),
            "cache_size": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
        }

    def memory_stats(self, registry=None) -> dict:
        """Byte audit across the process pool, mirrored into gauges.

        Accounts the coordinator's retained store (trajectories +
        fallback embedding blocks + cache) plus each live worker's index
        payload bytes and resident set (read from ``/proc/<pid>``), and
        derives ``bytes_per_trajectory`` over the accounted structures —
        the same gauges the memory SLOs and the bench gate read.
        """
        from ..obs.memory import rss_bytes

        with self._store_lock:
            n_trajs = len(self._trajs)
            store_bytes = sum(t.nbytes for t in self._trajs)
            block_bytes = sum(b.nbytes for blocks in self._blocks for b in blocks)
        cache_bytes = self.cache.nbytes
        reg = registry if registry is not None else get_registry()
        shard_info = self.shard_stats()
        index_bytes = 0
        worker_rss = 0
        for idx, info in shard_info.items():
            if info.get("dead"):
                continue
            index_bytes += int(info.get("index_bytes", 0))
            pid = info.get("pid")
            if pid:
                rss = rss_bytes(pid=pid)
                worker_rss += rss
                reg.gauge(f"serve.shard.{idx}.rss_bytes").set(rss)
        reg.gauge("serve.shard.worker_rss_bytes").set(worker_rss)
        out = publish_memory(
            reg, n_trajs, store_bytes + block_bytes, cache_bytes, index_bytes
        )
        out.update(store_bytes=store_bytes, block_bytes=block_bytes, worker_rss_bytes=worker_rss)
        return out

    def close(self) -> None:
        """Stop every worker, release every segment; idempotent, no raise."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        unregister_scrape_hook(self._refresh_on_scrape)
        for handle in self._handles:
            try:
                handle.stop()
            except Exception as exc:  # close must always complete
                _LOG.warning(
                    "shard-close-failed", shard=handle.idx, error=type(exc).__name__
                )
