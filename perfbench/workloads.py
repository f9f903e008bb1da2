"""The workloads.  Each returns a :class:`Outcome` for ``run.py``.

Untraced runs (``trace=False``) leave the program as shipped: no wrapper
is installed, the tracer and the interpreter switch interval keep their
defaults.  Traced runs install :mod:`perfbench.layers` wrappers and time
the load twice, without and with them, to report their overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import is_grad_enabled
from repro.core import pair_cross_distance_matrix
from repro.metrics import cross_distance_matrix, get_metric
from repro.obs.memory import peak_rss_bytes
from repro.obs.metrics import get_registry
from repro.serve import ShardedSimilarityServer, SimilarityServer, trajectory_key

from . import inputs as I
from .checks import Checks, first_problems, overlap10
from .load import Run, drive, failed_count
from .layers import CountingEncoder, PairForwardTap, ServerTaps, Tap, counting_metric, p50_us
from .stats import median, steady_tail

__all__ = ["Outcome", "run_workload"]

#: Answers per query.
K = 10
#: Set-ups per untraced run; ``setup_s`` is their median.  train-eval's
#: set-up (corpus generation alone) takes tens of milliseconds, so it
#: repeats more often to keep its median steady.
SETUPS = 3
TRAIN_EVAL_SETUPS = 9
#: Floor on HNSW recall@10 against an exact scan of the stored embeddings.
RECALL_FLOOR = 0.8
#: Floors on hr10 that any working model clears (serve, train-eval).
HR10_FLOOR = {"serve": 0.05, "train": 0.2}


@dataclass
class Outcome:
    checks: Checks
    attempted: int
    failed: int
    metrics: Dict[str, float]
    layers: Dict[str, float]
    info: Dict[str, float]
    traffic: Dict[str, object]


@dataclass(frozen=True)
class ServeConfig:
    store: int
    min_len: int
    max_len: int
    hot: Optional[int]  # Zipf over a hot subset of stored trips; None: fresh variants
    add_share: float
    shards: int
    probes: int
    clients: int  # closed-loop client threads, at most the reference box's 2 cores


# serve-sharded runs one client: the coordinator's cache-hit path holds
# the GIL, so in trial runs a second client added no throughput
# (292-519 qps against 441-482 with one) and turned p99 into GIL hand-off
# waits that doubled from run to run.  serve-fresh keeps two: encodes
# release the GIL in numpy, so a second client raised throughput (64-72
# against 51-56 qps) and lets the batcher coalesce concurrent requests.
SERVE = {
    "serve-fresh": ServeConfig(700, 64, 128, hot=None, add_share=0.2, shards=1, probes=150, clients=2),
    "serve-sharded": ServeConfig(1000, 12, 48, hot=200, add_share=0.0, shards=2, probes=150, clients=1),
}


def _peak_rss_pid(pid: int) -> int:
    """Peak resident bytes (``VmHWM``) of another process, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _rates(first: I.Fixture, gt_again_s: float) -> Dict[str, float]:
    """The recipe's stage rates; ground truth is best of two timings.

    The ground truth is timed again some seconds after the first build:
    on a shared machine a stage of a second or two can land in a slow
    spell, and the faster of two builds apart in time is steadier.
    """
    return {
        "gt_pairs_per_s": first.gt_pairs / min(first.gt_s, gt_again_s),
        "train_pairs_per_s": first.train_pairs / first.fit_s,
    }


def _latency(ms: List[float]) -> Dict[str, float]:
    """Median and steady tail of latencies listed in the order they ran."""
    pct, tail = steady_tail(ms)
    return {"p50": median(ms), "tail": tail, "tail_pct": pct, "n": len(ms)}


# ----------------------------------------------------------------------
# serve-*
# ----------------------------------------------------------------------
class _ServeRun:
    """One serve workload run: fixture, set-up, probes, load, checks."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.cfg = SERVE[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.layers: Dict[str, float] = {}
        self.metric_tap = Tap()
        self.dtw = get_metric("dtw")
        self.metric = counting_metric(self.dtw, self.metric_tap) if trace else self.dtw

    # -- building ------------------------------------------------------
    def _server(self, encoder):
        if self.cfg.shards > 1:
            return ShardedSimilarityServer(
                self.fixture.model, I.HIDDEN_DIM, n_shards=self.cfg.shards, seed=self.seed
            )
        return SimilarityServer(encoder, I.HIDDEN_DIM, seed=self.seed)

    def _build(self):
        """One set-up: generate the store, build the server, ``add_batch``."""
        start = time.perf_counter()
        store, _ = I.make_trips(
            self.cfg.store, I.stream(self.seed, I.S_STORE),
            self.cfg.min_len, self.cfg.max_len, self.fixture.stats,
        )
        generated = time.perf_counter()
        encoder = CountingEncoder(self.fixture.model) if self.trace else self.fixture.model
        server = self._server(encoder)
        taps = ServerTaps(server, sharded=self.cfg.shards > 1) if self.trace else None
        if taps is not None:
            taps.install()
        added = time.perf_counter()
        server.add_batch(store)
        end = time.perf_counter()
        if taps is not None:
            taps.uninstall()
            encoder.active = False
            self.layers.update({
                "data.generate_s": generated - start,
                "setup.add_batch_s": end - added,
                "setup.encode_s": encoder.tap.busy_s,
                "setup.index_add_s": taps.taps["index.add"].busy_s,
            })
        return server, store, encoder, taps, end - start

    def _ops(self, rng, count: int) -> List[tuple]:
        if self.cfg.hot is not None:
            return [("topk", self.store[i]) for i in self.draws[:count]]
        trajs = I.variants(self.store, count, rng)
        kinds = np.where(rng.random(count) < self.cfg.add_share, "add", "topk")
        return list(zip(kinds.tolist(), trajs))

    # -- phases --------------------------------------------------------
    def _probe(self, server) -> List:
        return [server.topk(p, k=K) for p in self.probes]

    def _reset_cache(self, server) -> None:
        """Return the cache to its state right after set-up."""
        server.cache.clear()
        if self.cfg.shards == 1:
            for i, points in enumerate(self.store):
                server.cache.put(trajectory_key(points), server.index.vectors[i])

    def _exact_embeddings(self, server) -> np.ndarray:
        """Stored embeddings as the server computed them."""
        if self.cfg.shards == 1:
            return np.asarray(server.index.vectors[: len(self.store)])
        # Shard workers encode their stripe of gids in chunks of 32.
        out = np.zeros((len(self.store), I.HIDDEN_DIM))
        for s in range(self.cfg.shards):
            gids = np.arange(s, len(self.store), self.cfg.shards)
            for lo in range(0, len(gids), 32):
                part = gids[lo : lo + 32]
                out[part] = self.fixture.model.encode([self.store[g] for g in part])
        return out

    def _check_probes(self, server, answers) -> None:
        n = len(self.store)
        problems = first_problems(answers, K, n)
        self.checks.add("probe answers well-formed", not problems, "; ".join(problems))
        emb = self._exact_embeddings(server)
        recalls, worst = [], 0.0
        for probe, ans in zip(self.probes, answers):
            q = server.cache.get(trajectory_key(probe))
            sq = ((emb - q[None, :]) ** 2).sum(axis=1)
            exact = np.argsort(sq, kind="stable")[:K]
            recalls.append(overlap10(ans.ids, exact))
            if len(ans.ids):
                want = np.sqrt(sq[ans.ids])
                worst = max(worst, float(np.max(np.abs(want - ans.distances) / np.maximum(want, 1e-12))))
        self.recall10 = float(np.mean(recalls))
        self.checks.add(
            "index.recall10 >= floor", self.recall10 >= RECALL_FLOOR,
            f"{self.recall10:.3f} vs {RECALL_FLOOR}",
        )
        if self.cfg.shards > 1:
            self.checks.add(
                "sharded answers agree with an exact embedding scan", worst <= 1e-9,
                f"max relative distance error {worst:.2e}",
            )
        stack, lengths = I.pad(self.store)
        truths = [I.exact_topk(p, stack, lengths, K, self.dtw)[0] for p in self.probes]
        self.hr10 = float(np.mean([overlap10(a.ids, t) for a, t in zip(answers, truths)]))
        floor = HR10_FLOOR["serve"]
        self.checks.add("hr10 >= floor", self.hr10 >= floor, f"{self.hr10:.3f} vs {floor}")

    def _check_run(self, run: Run, n_final: int, label: str) -> None:
        topk = [r.result for r in run.of("topk") if r.error is None]
        problems = first_problems(topk, K, n_final)
        self.checks.add(f"{label} answers well-formed", not problems, "; ".join(problems))
        adds = [r.result for r in run.of("add") if r.error is None]
        ok_adds = len(set(adds)) == len(adds) and all(0 <= a < n_final for a in adds)
        self.checks.add(f"{label} add ids unique and in range", ok_adds)
        self.checks.add(f"{label} ran for the whole window", not run.exhausted)

    # -- the run -------------------------------------------------------
    def run(self) -> Outcome:
        self.corpus = I.train_corpus(I.FIXTURE_SEED)
        self.fixture = I.train_fixture(*self.corpus, I.FIXTURE_SEED, self.metric)
        self.checks.add("train_loss finite", bool(np.isfinite(self.fixture.loss)))

        setups = []
        for i in range(1 if self.trace else SETUPS):
            server, self.store, encoder, taps, setup_s = self._build()
            setups.append(setup_s)
            if i < (0 if self.trace else SETUPS - 1):
                server.close()
        try:
            return self._serve(server, encoder, taps, setups)
        finally:
            server.close()

    def _serve(self, server, encoder, taps, setups) -> Outcome:
        cfg = self.cfg
        rng_ops = I.stream(self.seed, I.S_OPS)
        phases = 2 if self.trace else 1
        n_ops = phases * (300 if cfg.hot is None else 10000) * max(int(self.seconds), 1)
        if cfg.hot is not None:
            hot, self.draws = I.zipf_draws(len(self.store), cfg.hot, n_ops, rng_ops)
            warm = [("topk", self.store[i]) for i in hot]
        else:
            warm = [("topk", t) for t in I.variants(self.store, 20, I.stream(self.seed, I.S_WARM))]
        ops = self._ops(rng_ops, n_ops)
        self.probes = I.variants(self.store, cfg.probes, I.stream(self.seed, I.S_PROBES))

        answers = self._probe(server)
        if self.trace:
            self._reset_cache(server)
            with taps:
                encoder.active = True
                traced = self._probe(server)
                encoder.active = False
            same = all(np.array_equal(a.ids, b.ids) for a, b in zip(answers, traced))
            self.checks.add("traced probe ids equal untraced", same)
        self._check_probes(server, answers)

        drive(server, warm, cfg.clients, 60.0, K)
        echo = self._echo(server) if cfg.shards > 1 else []
        half = len(ops) // phases
        run = drive(server, ops[:half], cfg.clients, self.seconds, K)
        self.grad_after_load = is_grad_enabled()
        self._check_run(run, len(server), "timed")
        if self.trace:
            taps.reset()
            encoder.tap = Tap()
            encoder.active = True
            before = self._shard_counts(server)
            batches = get_registry().histogram("serve.batch.size")
            b_count, b_total = batches.count, batches.total
            with taps:
                traced_run = drive(server, ops[half:], cfg.clients, self.seconds, K)
            encoder.active = False
            self._check_run(traced_run, len(server), "traced")
            self._layers(server, run, traced_run, taps, encoder, echo, before,
                         batches.count - b_count, batches.total - b_total)
            self.rates = _rates(self.fixture, self.fixture.gt_s)
        else:
            self.rates = _rates(self.fixture, I.ground_truth(self.corpus[0], self.dtw)[2])
        return self._outcome(server, run, setups)

    def _echo(self, server) -> List[float]:
        payload = self.store[int(np.argmax([len(t) for t in self.store]))]
        rtts = []
        for shard in range(self.cfg.shards):
            for _ in range(50):
                start = time.perf_counter()
                server.echo_shard(shard, payload)
                rtts.append(time.perf_counter() - start)
        return rtts

    def _shard_counts(self, server) -> Dict[str, float]:
        if self.cfg.shards == 1:
            return {}
        server.shard_stats()
        reg = get_registry()
        out = {}
        for s in range(self.cfg.shards):
            for key, gauge in (
                (f"shard.{s}.search.calls", f"serve.shard.{s}.index.hnsw.queries"),
                (f"shard.{s}.batcher.requests", f"serve.shard.{s}.serve.shard{s}.requests"),
            ):
                out[key] = reg.gauge(gauge).value or 0.0
        return out

    def _layers(self, server, run, traced, taps, encoder, echo, before, b_count, b_total) -> None:
        t = taps.taps
        enc = encoder.tap
        topk = traced.of("topk")
        untraced_qps = len(run.of("topk")) / run.elapsed_s
        traced_qps = len(topk) / traced.elapsed_s
        mem = server.memory_stats()
        after = self._shard_counts(server)
        spans = _trainer_spans(self.fixture)
        self.layers.update({
            "metrics.dtw.pairs": self.metric_tap.items,
            "metrics.dtw.busy_s": self.metric_tap.busy_s,
            **spans,
            "model.encode.calls": enc.calls,
            "model.encode.trajs": enc.items,
            "model.encode.ms_per_traj": enc.busy_s / enc.items * 1e3 if enc.items else 0.0,
            "model.encode.batch_mean": enc.items / enc.calls if enc.calls else 0.0,
            "batcher.submits": t["batcher.submit"].calls,
            "batcher.wait_ms.p50": t["batcher.wait"].p_ms(50),
            "batcher.wait_ms.p99": t["batcher.wait"].p_ms(99),
            "batcher.batch_mean": b_total / b_count if b_count else 0.0,
            "cache.gets": t["cache.get"].calls,
            "cache.hit_ratio": t["cache.get"].items / t["cache.get"].calls if t["cache.get"].calls else 0.0,
            "cache.get_us.p50": p50_us(t["cache.get"]),
            "cache.puts": t["cache.put"].calls,
            "index.query.calls": t["index.query"].calls,
            "index.query.ms.p50": t["index.query"].p_ms(50),
            "index.query.busy_s": t["index.query"].busy_s,
            "index.add.calls": t["index.add"].calls,
            "index.add.ms.mean": t["index.add"].mean_ms(),
            "index.recall10": self.recall10,
            "engine.topk.self_ms.p50": t["engine.self"].p_ms(50),
            "engine.source.hnsw": sum(r.result.source in ("hnsw", "sharded") for r in topk),
            "engine.source.brute": sum(r.result.source == "brute" for r in topk),
            "engine.source.degraded": sum(bool(r.result.degraded) for r in topk),
            "shard.echo_rtt_ms.p50": median(echo) * 1e3,
            "shard.merge.calls": t["merge"].calls,
            "shard.merge.us": t["merge"].mean_ms() * 1e3,
            **{k: after[k] - before[k] for k in after},
            "serve.memory.store_bytes": mem["store_bytes"],
            "serve.memory.cache_bytes": mem["cache_bytes"],
            "serve.memory.index_bytes": mem["index_bytes"],
            "serve.memory.bytes_per_trajectory": mem["bytes_per_trajectory"],
            "trace.untraced_qps": untraced_qps,
            "trace.traced_qps": traced_qps,
            "trace.overhead_pct": (untraced_qps - traced_qps) / untraced_qps * 100.0,
        })

    def _outcome(self, server, run: Run, setups: List[float]) -> Outcome:
        topk = run.of("topk")
        adds = run.of("add")
        failed = failed_count(run.records)
        lat = _latency([r.seconds * 1e3 for r in topk])
        peak = peak_rss_bytes()
        if self.cfg.shards > 1:
            peak += sum(_peak_rss_pid(info["pid"]) for info in server.shard_stats().values()
                        if info.get("pid"))
        fx = self.fixture
        answered = [r.result for r in topk if r.error is None]
        return Outcome(
            checks=self.checks,
            attempted=len(run.records),
            failed=failed,
            metrics={
                "setup_s": median(setups),
                "query_qps": len(topk) / run.elapsed_s,
                "query_p50_ms": lat["p50"],
                "hr10": self.hr10,
                "ok_share": 1.0 - failed / max(len(run.records), 1),
                **self.rates,
                "peak_rss_mb": peak / 2**20,
            },
            layers=self.layers,
            info={
                "query_samples": lat["n"],
                "query_tail_ms": lat["tail"],
                "query_tail_pct": lat["tail_pct"],
                "add_p50_ms": median([r.seconds * 1e3 for r in adds]),
                "failed_share": failed / max(len(run.records), 1),
                # 1 when autograd's process-wide grad switch survived the
                # load; concurrent no_grad() blocks can leave it off.
                "grad_enabled_after_load": float(self.grad_after_load),
                "train_loss": fx.loss,
                "setup_runs_s": setups,
            },
            traffic={
                "store_size": len(self.store),
                "mean_points_per_trip": float(np.mean([len(t) for t in self.store])),
                "cache_hit_share": float(np.mean([a.cache_hit for a in answered])) if answered else 0.0,
                "add_share": len(adds) / max(len(run.records), 1),
                "client_threads": self.cfg.clients,
                "shards": self.cfg.shards,
                "hot_subset": self.cfg.hot or 0,
                "probes": len(self.probes),
            },
        )


def _trainer_spans(fixture: I.Fixture) -> Dict[str, float]:
    """Seconds per trainer stage, summed over the epoch's span paths."""
    out = {f"trainer.{stage}_s": 0.0 for stage in ("sampling", "forward", "loss", "backward", "optimizer")}
    for path, stat in fixture.epoch_spans.items():
        key = f"trainer.{path.rsplit('/', 1)[-1]}_s"
        if key in out:
            out[key] += stat["seconds"]
    return out


# ----------------------------------------------------------------------
# train-eval
# ----------------------------------------------------------------------
#: Test queries and base trips of the pair-matching evaluation.
EVAL_QUERIES, EVAL_BASE = 120, 200


def _eval_loop(model, queries, base, seconds: float, checks: Checks, label: str):
    """Rank every query against ``base`` by pair forwards, for ``seconds``.

    Returns each query's first top-10 (by query index), the per-query
    latencies, the failed count and the elapsed time; later passes must
    reproduce the first pass's rankings.
    """
    first: Dict[int, np.ndarray] = {}
    latencies: List[float] = []
    errors = 0
    stable = True
    start = time.perf_counter()
    while True:
        for qi, q in enumerate(queries):
            t0 = time.perf_counter()
            try:
                row = pair_cross_distance_matrix(model, [q], base)[0]
            except Exception:  # counted as a failed query
                errors += 1
                continue
            latencies.append(time.perf_counter() - t0)
            top = np.argsort(row, kind="stable")[:K]
            if qi in first:
                stable &= bool(np.array_equal(first[qi], top))
            else:
                first[qi] = top
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    checks.add(f"{label} repeated rankings identical", stable)
    return first, latencies, errors, elapsed


def run_train_eval(seed: int, seconds: float, trace: bool) -> Outcome:
    checks = Checks()
    setups, layers = [], {}
    for _ in range(1 if trace else TRAIN_EVAL_SETUPS):
        start = time.perf_counter()
        train, stats = I.train_corpus(seed)
        test, _ = I.make_trips(EVAL_QUERIES + EVAL_BASE, I.stream(seed, I.S_TEST), stats=stats)
        setups.append(time.perf_counter() - start)
    queries, base = test[:EVAL_QUERIES], test[EVAL_QUERIES:]

    dtw = get_metric("dtw")
    metric_tap = Tap()
    metric = counting_metric(dtw, metric_tap) if trace else dtw
    truth: Dict[str, np.ndarray] = {}

    def eval_truth(m) -> int:
        truth["G"] = cross_distance_matrix(queries, base, m)
        return EVAL_QUERIES * EVAL_BASE

    fx = I.train_fixture(train, stats, seed, metric, eval_truth)
    checks.add("train_loss finite", bool(np.isfinite(fx.loss)))
    model = fx.model
    first, lat, errors, elapsed = _eval_loop(model, queries, base, seconds, checks, "eval")
    gt_top = [np.argsort(row, kind="stable")[:K] for row in truth["G"]]
    hr10 = float(np.mean([overlap10(first[qi], gt_top[qi]) for qi in first]))
    checks.add("hr10 >= floor", hr10 >= HR10_FLOOR["train"], f"{hr10:.3f} vs {HR10_FLOOR['train']}")
    checks.add("every eval query answered", len(first) == len(queries))
    qps = len(lat) / elapsed

    if not trace:
        rates = _rates(fx, I.ground_truth(train, dtw, eval_truth)[2])
    else:
        rates = _rates(fx, fx.gt_s)
        with PairForwardTap(model) as tap:
            traced_first, traced_lat, _, traced_elapsed = _eval_loop(
                model, queries, base, seconds, checks, "traced eval"
            )
        checks.add("traced eval rankings equal untraced",
                   all(np.array_equal(first[qi], traced_first.get(qi)) for qi in first))
        traced_qps = len(traced_lat) / traced_elapsed
        layers = {
            "data.generate_s": setups[0],
            "metrics.dtw.pairs": metric_tap.items,
            "metrics.dtw.busy_s": metric_tap.busy_s,
            **_trainer_spans(fx),
            "model.pair_forward.pairs": tap.tap.items,
            "model.pair_forward.busy_s": tap.tap.busy_s,
            "trace.untraced_qps": qps,
            "trace.traced_qps": traced_qps,
            "trace.overhead_pct": (qps - traced_qps) / qps * 100.0,
        }

    latency = _latency([s * 1e3 for s in lat])
    attempted = len(lat) + errors
    return Outcome(
        checks=checks,
        attempted=attempted,
        failed=errors,
        metrics={
            "setup_s": median(setups),
            "query_qps": qps,
            "query_p50_ms": latency["p50"],
            "hr10": hr10,
            "ok_share": 1.0 - errors / max(attempted, 1),
            **rates,
            "peak_rss_mb": peak_rss_bytes() / 2**20,
        },
        layers=layers,
        info={
            "query_samples": latency["n"],
            "query_tail_ms": latency["tail"],
            "query_tail_pct": latency["tail_pct"],
            "pair_eval_pairs_per_s": qps * EVAL_BASE,
            "failed_share": errors / max(attempted, 1),
            "train_loss": fx.loss,
            "setup_runs_s": setups,
        },
        traffic={
            "train_trips": len(train),
            "eval_queries": len(queries),
            "eval_base": len(base),
            "mean_points_per_trip": float(np.mean([len(t) for t in train + test])),
            "cache_hit_share": 0.0,
            "add_share": 0.0,
            "client_threads": 1,
            "shards": 1,
        },
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one named workload."""
    if name == "train-eval":
        return run_train_eval(seed, seconds, trace)
    return _ServeRun(name, seed, seconds, trace).run()
