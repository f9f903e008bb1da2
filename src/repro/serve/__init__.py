"""repro.serve — concurrent similarity serving over learned embeddings.

The paper's efficiency argument (Table III) is that similarity queries
collapse to embedding distances once trajectories are encoded; this
package is the subsystem that actually serves those queries:

- :mod:`repro.serve.cache` — thread-safe LRU embedding cache keyed by
  trajectory content hash, with hit/miss accounting;
- :mod:`repro.serve.batcher` — micro-batching encode queue coalescing
  concurrent requests into padded model batches (flush on size or
  deadline), with a fault-isolation boundary per batch;
- :mod:`repro.serve.engine` — :class:`SimilarityServer`: cache → queue →
  HNSW/brute top-k with per-request deadlines; a missed deadline or a
  poisoned batch yields a degraded-but-exact answer, never an exception.
  The module also holds the one degradation ladder both servers run, as
  plain functions: ``open_request``, ``search_embeddings`` over
  ``exact_scan``, ``embedding_answer``, ``degraded_answer``,
  ``last_resort`` / ``empty_result`` and the encoder and memory plumbing;
- :mod:`repro.serve.shard` — :class:`ShardedSimilarityServer`: the
  process-pool tier — N spawned workers each owning an index shard and
  a MicroBatcher, shared-memory payload handoff, scatter-gather top-k
  merge with per-shard deadlines, over the same ladder and never-raises
  contract;
- :mod:`repro.serve.bench` — the ``repro-tmn serve-bench`` harness
  measuring served vs naive one-forward-per-request throughput, plus
  the sharded closed-loop bench behind ``--shards``.

See DESIGN.md §11 for the single-process architecture and failure-mode
table, §16 for the sharded tier.
"""

from .batcher import MicroBatcher
from .bench import (
    ServeBenchResult,
    ShardBenchResult,
    format_serve_bench,
    format_shard_bench,
    run_serve_bench,
    run_shard_bench,
)
from .cache import EmbeddingCache, trajectory_key
from .engine import ServeResult, SimilarityServer, exact_metric_topk
from .shard import (
    FeatureEncoder,
    ShardDeadError,
    ShardedSimilarityServer,
    assign_shard,
    merge_topk,
)

__all__ = [
    "EmbeddingCache",
    "FeatureEncoder",
    "MicroBatcher",
    "ServeBenchResult",
    "ServeResult",
    "ShardBenchResult",
    "ShardDeadError",
    "ShardedSimilarityServer",
    "SimilarityServer",
    "assign_shard",
    "exact_metric_topk",
    "format_serve_bench",
    "format_shard_bench",
    "merge_topk",
    "run_serve_bench",
    "run_shard_bench",
    "trajectory_key",
]
