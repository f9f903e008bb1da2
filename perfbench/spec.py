"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions; ``perfbench/tests`` checks that the two agree.  Each per-layer
metric also names the end-to-end metric it should move, on which
workload, and where it should stay flat, so a regression can be traced
to its layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Workload", "EndToEnd", "PerLayer", "WORKLOADS", "END_TO_END", "PER_LAYER"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    flat: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "serve-fresh",
        "never-seen noised or cropped long trips (4 topk : 1 add) miss the cache, "
        "so the batcher and TMN encode are timed and HNSW is written while read",
    ),
    Workload(
        "serve-sharded",
        "Zipf queries over stored Porto-like trips hit the coordinator's cache and "
        "fan out to 2 shard processes, so cache, IPC, scatter-gather and merge are timed",
    ),
    Workload(
        "train-eval",
        "the paper's offline pipeline: exact DTW ground truth, one Trainer.fit "
        "epoch and pair-matching top-k evaluation (Table II HR-10)",
    ),
)

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of 3 set-ups: corpus generation (+ server build and add_batch on serve-*)"),
    EndToEnd("query_qps", "1/s", "higher", 0.25,
             "completed top-k queries per second (serve-*: topk calls; train-eval: "
             "pair-matching queries, one query ranked against the base set)"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25, "median top-k query latency"),
    EndToEnd("hr10", "share", "higher", 0.2,
             "share of the true-DTW top-10 found in the answered top-10"),
    EndToEnd("ok_share", "share", "higher", 0.01,
             "1 - failed_share: operations that neither raised nor answered degraded"),
    EndToEnd("gt_pairs_per_s", "1/s", "higher", 0.25,
             "exact DTW pairs per second while the training ground truth is built "
             "(best of two builds, before and after the timed load)"),
    EndToEnd("train_pairs_per_s", "1/s", "higher", 0.25,
             "training pairs per second in one Trainer.fit epoch"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory, summed over the shard workers on serve-sharded"),
)

_SERVE = "serve-fresh, serve-sharded"

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("data.generate_s", "s", "lower", "data", "setup_s on all", "-"),
    PerLayer("metrics.dtw.pairs", "count", "higher", "metrics",
             "gt_pairs_per_s; train_pairs_per_s (sub-loss) on all", "query_* on serve-*"),
    PerLayer("metrics.dtw.busy_s", "s", "lower", "metrics",
             "gt_pairs_per_s; train_pairs_per_s (sub-loss) on all", "query_* on serve-*"),
    PerLayer("trainer.sampling_s", "s", "lower", "core.trainer", "train_pairs_per_s on all", "query_* on serve-*"),
    PerLayer("trainer.forward_s", "s", "lower", "core.trainer", "train_pairs_per_s on all", "query_* on serve-*"),
    PerLayer("trainer.loss_s", "s", "lower", "core.trainer", "train_pairs_per_s on all", "query_* on serve-*"),
    PerLayer("trainer.backward_s", "s", "lower", "core.trainer", "train_pairs_per_s on all", "query_* on serve-*"),
    PerLayer("trainer.optimizer_s", "s", "lower", "core.trainer", "train_pairs_per_s on all", "query_* on serve-*"),
    PerLayer("model.encode.calls", "count", "higher", "core.model",
             "query_p50_ms, query_qps on serve-fresh", "query_* on serve-sharded"),
    PerLayer("model.encode.trajs", "count", "higher", "core.model",
             "query_p50_ms, query_qps on serve-fresh", "query_* on serve-sharded"),
    PerLayer("model.encode.ms_per_traj", "ms", "lower", "core.model",
             "query_p50_ms, query_qps, setup_s on serve-fresh", "query_* on serve-sharded"),
    PerLayer("model.encode.batch_mean", "count", "higher", "core.model",
             "query_qps on serve-fresh", "query_* on serve-sharded"),
    PerLayer("model.pair_forward.pairs", "count", "higher", "core.model",
             "query_qps on train-eval", _SERVE),
    PerLayer("model.pair_forward.busy_s", "s", "lower", "core.model",
             "query_qps, query_p50_ms on train-eval", _SERVE),
    PerLayer("setup.add_batch_s", "s", "lower", "serve.engine", "setup_s on serve-*", "train-eval"),
    PerLayer("setup.encode_s", "s", "lower", "core.model", "setup_s on serve-fresh", "train-eval"),
    PerLayer("setup.index_add_s", "s", "lower", "index.hnsw", "setup_s on serve-fresh", "train-eval"),
    PerLayer("batcher.submits", "count", "higher", "serve.batcher", "query_p50_ms on serve-fresh", "serve-sharded"),
    PerLayer("batcher.wait_ms.p50", "ms", "lower", "serve.batcher", "query_p50_ms on serve-fresh", "serve-sharded"),
    PerLayer("batcher.wait_ms.p99", "ms", "lower", "serve.batcher", "info query_tail_ms on serve-fresh", "serve-sharded"),
    PerLayer("batcher.batch_mean", "count", "higher", "serve.batcher", "query_qps on serve-fresh", "serve-sharded"),
    PerLayer("cache.gets", "count", "higher", "serve.cache", "query_qps on serve-sharded", "serve-fresh"),
    PerLayer("cache.hit_ratio", "share", "higher", "serve.cache", "query_qps on serve-sharded", "serve-fresh"),
    PerLayer("cache.get_us.p50", "us", "lower", "serve.cache", "query_qps on serve-sharded", "serve-fresh"),
    PerLayer("cache.puts", "count", "higher", "serve.cache", "query_qps on serve-sharded", "serve-fresh"),
    PerLayer("index.query.calls", "count", "higher", "index.hnsw",
             "query_qps on serve-fresh (small share)", "train-eval"),
    PerLayer("index.query.ms.p50", "ms", "lower", "index.hnsw",
             "query_p50_ms on serve-fresh (small share)", "train-eval"),
    PerLayer("index.query.busy_s", "s", "lower", "index.hnsw",
             "query_p50_ms on serve-fresh (small share)", "train-eval"),
    PerLayer("index.add.calls", "count", "higher", "index.hnsw", "info add_p50_ms on serve-fresh", "serve-sharded"),
    PerLayer("index.add.ms.mean", "ms", "lower", "index.hnsw", "info add_p50_ms on serve-fresh", "serve-sharded"),
    PerLayer("index.recall10", "share", "higher", "index.hnsw", "hr10 on serve-fresh, serve-sharded", "-"),
    PerLayer("engine.topk.self_ms.p50", "ms", "lower", "serve.engine", "query_p50_ms on serve-fresh, serve-sharded", "-"),
    PerLayer("engine.source.hnsw", "count", "higher", "serve.engine", "query_qps on serve-*", "-"),
    PerLayer("engine.source.brute", "count", "higher", "serve.engine", "query_qps on serve-*", "-"),
    PerLayer("engine.source.degraded", "count", "lower", "serve.engine", "ok_share on serve-*", "-"),
    PerLayer("shard.echo_rtt_ms.p50", "ms", "lower", "serve.shard",
             "query_qps, query_p50_ms on serve-sharded", "single-process workloads"),
    PerLayer("shard.merge.calls", "count", "higher", "serve.shard",
             "query_qps on serve-sharded", "single-process workloads"),
    PerLayer("shard.merge.us", "us", "lower", "serve.shard",
             "query_p50_ms on serve-sharded", "single-process workloads"),
    PerLayer("shard.0.search.calls", "count", "higher", "serve.shard",
             "query_qps on serve-sharded", "single-process workloads"),
    PerLayer("shard.1.search.calls", "count", "higher", "serve.shard",
             "query_qps on serve-sharded", "single-process workloads"),
    PerLayer("shard.0.batcher.requests", "count", "higher", "serve.shard",
             "query_qps on serve-sharded", "single-process workloads"),
    PerLayer("shard.1.batcher.requests", "count", "higher", "serve.shard",
             "query_qps on serve-sharded", "single-process workloads"),
    PerLayer("serve.memory.store_bytes", "bytes", "lower", "memory", "peak_rss_mb on serve-*", "-"),
    PerLayer("serve.memory.cache_bytes", "bytes", "lower", "memory", "peak_rss_mb on serve-*", "-"),
    PerLayer("serve.memory.index_bytes", "bytes", "lower", "memory", "peak_rss_mb on serve-*", "-"),
    PerLayer("serve.memory.bytes_per_trajectory", "bytes", "lower", "memory", "peak_rss_mb on serve-*", "-"),
    PerLayer("trace.untraced_qps", "1/s", "higher", "benchmark", "query_qps with the wrappers off", "-"),
    PerLayer("trace.traced_qps", "1/s", "higher", "benchmark", "query_qps with the wrappers on", "-"),
    PerLayer("trace.overhead_pct", "%", "lower", "benchmark", "cost of the layer wrappers", "-"),
)
