"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import TMN, TMNConfig, pair_cross_distance_matrix
from repro.metrics import cross_distance_matrix, get_metric
from repro.serve import SimilarityServer, trajectory_key

from perfbench import inputs as I
from perfbench.checks import answer_problem
from perfbench.load import Record, drive, failed_count
from perfbench.layers import CountingEncoder, PairForwardTap, ServerTaps, Tap, counting_metric
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.stats import MIN_BEYOND, steady_tail, tail_percentile, valid_name

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def model():
    m = TMN(TMNConfig(hidden_dim=8, seed=3))
    m.eval()
    return m


@pytest.fixture(scope="module")
def trips():
    return I.make_trips(40, I.stream(7, I.S_STORE))[0]


def _server(encoder, trips):
    server = SimilarityServer(encoder, 8, brute_threshold=8, seed=1)
    server.add_batch(trips)
    return server


# ----------------------------------------------------------------------
# Names and the committed BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_and_workload_names_are_legal_and_unique():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    names += [w.name for w in WORKLOADS]
    assert all(valid_name(n) for n in names), [n for n in names if not valid_name(n)]
    assert len(set(names)) == len(names)
    assert not valid_name("cache hit ratio") and not valid_name("p99(ms)")


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 20, 57, 100, 200, 999, 1000, 1001, 5000])
def test_tail_has_at_least_ten_samples_beyond_it(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    pct, tail = tail_percentile(values)
    assert int((values > tail).sum()) >= MIN_BEYOND
    assert pct <= 99.0
    if n >= 1000:
        assert pct == 99.0
    else:
        # No higher percentile would still have ten samples beyond it.
        assert pct == pytest.approx(100.0 * (1 - MIN_BEYOND / n))


def test_tail_of_tiny_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_percentile([]) == (100.0, 0.0)


# ----------------------------------------------------------------------
# Accounting and answer checks
# ----------------------------------------------------------------------
def test_forced_degraded_answer_counts_as_failed(model, trips):
    server = _server(model, trips)
    try:
        fresh = I.variants(trips, 1, np.random.default_rng(0))[0]
        degraded = server.topk(fresh, k=3, deadline_s=0.0)
        normal = server.topk(trips[0], k=3)
    finally:
        server.close()
    assert degraded.degraded and not normal.degraded
    records = [
        Record("topk", 0, 0.01, degraded, None),
        Record("topk", 1, 0.01, normal, None),
        Record("add", 2, 0.01, None, "RuntimeError: boom"),
        Record("add", 3, 0.01, 41, None),
    ]
    assert failed_count(records) == 2


def test_answer_problem_flags_malformed_answers(model, trips):
    server = _server(model, trips)
    try:
        good = server.topk(trips[1], k=5)
    finally:
        server.close()
    assert answer_problem(good, 5, len(trips)) == ""

    class Fake:
        def __init__(self, ids, distances):
            self.ids, self.distances = np.asarray(ids), np.asarray(distances, float)

    assert "expected 3" in answer_problem(Fake([0, 1], [0.1, 0.2]), 3, 10)
    assert "duplicate" in answer_problem(Fake([0, 0, 1], [0.1, 0.2, 0.3]), 3, 10)
    assert "range" in answer_problem(Fake([0, 1, 10], [0.1, 0.2, 0.3]), 3, 10)
    assert "ascending" in answer_problem(Fake([0, 1, 2], [0.3, 0.2, 0.4]), 3, 10)


def test_drive_stops_when_operations_run_out(model, trips):
    server = _server(model, trips)
    try:
        run = drive(server, [("topk", t) for t in trips[:6]], clients=2, seconds=30.0, k=3)
    finally:
        server.close()
    assert run.exhausted
    assert sorted(r.index for r in run.records) == list(range(6))
    assert failed_count(run.records) == 0


# ----------------------------------------------------------------------
# Wrappers are transparent
# ----------------------------------------------------------------------
def test_server_taps_return_the_unwrapped_answers(model, trips):
    server = _server(CountingEncoder(model), trips)
    queries = I.variants(trips, 6, np.random.default_rng(1)) + trips[:3]
    try:
        plain = [server.topk(q, k=4) for q in queries]
        # Back to the post-set-up cache: stored trips hit, variants miss.
        server.cache.clear()
        for i, points in enumerate(trips):
            server.cache.put(trajectory_key(points), server.index.vectors[i])
        taps = ServerTaps(server)
        with taps:
            wrapped = [server.topk(q, k=4) for q in queries]
        assert "topk" not in vars(server) and "get" not in vars(server.cache)
        assert "query" not in vars(server.index) and "submit" not in vars(server.batcher)
    finally:
        server.close()
    for a, b in zip(plain, wrapped):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
    assert taps.taps["topk"].calls == len(queries)
    assert taps.taps["cache.get"].calls == len(queries)
    assert taps.taps["cache.get"].items == 3  # the stored trips hit
    assert taps.taps["batcher.submit"].calls == 6
    assert taps.taps["index.query"].calls == len(queries)


def test_counting_metric_and_encoder_are_transparent(model, trips):
    tap = Tap()
    dtw = get_metric("dtw")
    wrapped = counting_metric(dtw, tap)
    np.testing.assert_array_equal(
        cross_distance_matrix(trips[:3], trips[3:9], wrapped),
        cross_distance_matrix(trips[:3], trips[3:9], dtw),
    )
    assert tap.items == 18
    encoder = CountingEncoder(model)
    np.testing.assert_array_equal(encoder.encode(trips[:5]), model.encode(trips[:5]))
    assert (encoder.tap.calls, encoder.tap.items) == (1, 5)


def test_pair_forward_tap_is_transparent(model, trips):
    plain = pair_cross_distance_matrix(model, trips[:2], trips[2:12])
    with PairForwardTap(model) as tap:
        wrapped = pair_cross_distance_matrix(model, trips[:2], trips[2:12])
    assert "embed_pair" not in vars(model)
    np.testing.assert_array_equal(plain, wrapped)
    assert tap.tap.items == 20


# ----------------------------------------------------------------------
# Inputs and ground truth
# ----------------------------------------------------------------------
def test_pruned_ground_truth_is_exact(trips):
    dtw = get_metric("dtw")
    queries = I.variants(trips, 5, np.random.default_rng(2))
    stack, lengths = I.pad(trips)
    full = cross_distance_matrix(queries, trips, dtw)
    for q, row in zip(queries, full):
        ids, pairs = I.exact_topk(q, stack, lengths, 10, dtw, chunk=4)
        np.testing.assert_array_equal(ids, np.lexsort((np.arange(len(row)), row))[:10])
        assert pairs <= len(trips)
        assert np.all(I.dtw_lower_bounds(q, stack, lengths) <= row + 1e-9)


def test_inputs_are_a_function_of_the_seed():
    a, stats = I.make_trips(30, I.stream(5, I.S_STORE))
    b, _ = I.make_trips(30, I.stream(5, I.S_STORE))
    c, _ = I.make_trips(30, I.stream(6, I.S_STORE))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(len(x) == len(y) and np.array_equal(x, y) for x, y in zip(a, c))
    hot_a, draws_a = I.zipf_draws(30, 8, 100, I.stream(5, I.S_OPS))
    hot_b, draws_b = I.zipf_draws(30, 8, 100, I.stream(5, I.S_OPS))
    assert np.array_equal(draws_a, draws_b) and set(draws_a) <= set(hot_a)
    va = I.variants(a, 10, I.stream(5, I.S_PROBES))
    vb = I.variants(a, 10, I.stream(5, I.S_PROBES))
    assert all(np.array_equal(x, y) for x, y in zip(va, vb))
    assert not any(any(np.array_equal(v, t) for t in a if len(t) == len(v)) for v in va)


def test_steady_tail_uses_slices_of_a_thousand_and_resists_one_stall():
    rng = np.random.default_rng(0)
    values = rng.exponential(1.0, size=5000)
    pct, tail = steady_tail(values)
    assert pct == 99.0
    stalled = values.copy()
    stalled[:200] += 50.0  # one slow spell inside the first slice
    assert steady_tail(stalled)[1] == pytest.approx(tail, rel=0.2)
    assert tail_percentile(stalled)[1] > 5 * tail
    # Fewer than two slices' worth: the plain rule over all samples.
    assert steady_tail(values[:1500]) == tail_percentile(values[:1500])


def test_reap_children_leaves_no_process_running():
    # A fresh interpreter, so the exit finalisers run on its own state only.
    script = textwrap.dedent("""
        import multiprocessing as mp, os
        from multiprocessing import shared_memory
        from perfbench.procs import reap_children, tracker_pid
        if __name__ == "__main__":
            ctx = mp.get_context("spawn")
            q = ctx.Queue()  # its semaphores register with the tracker
            seg = shared_memory.SharedMemory(create=True, size=64)
            child = ctx.Process(target=os.getpid)
            child.start()
            child.join()
            seg.close()
            seg.unlink()
            pid = tracker_pid()
            assert pid is not None
            reap_children()
            assert tracker_pid() is None and not mp.active_children()
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                print("reaped")
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "reaped"
