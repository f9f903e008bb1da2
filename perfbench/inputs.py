"""Seeded inputs, the trained-model fixture and exact DTW ground truth.

Every input a workload hands the program is drawn from
``np.random.default_rng([seed, stream])``, one stream per purpose, so the
same seed gives the same corpora, Zipf draws, variants, operation order
and probe set.  Ground truth is a pure function of those inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import TMN, TMNConfig, Trainer
from repro.data import NormStats, add_noise, crop, make_porto_like, normalize
from repro.metrics import MetricSpec, get_metric, pairwise_distance_matrix
from repro.obs.metrics import get_registry

__all__ = [
    "HIDDEN_DIM",
    "Fixture",
    "dtw_lower_bounds",
    "exact_topk",
    "ground_truth",
    "make_trips",
    "pad",
    "stream",
    "train_corpus",
    "train_fixture",
    "variants",
    "zipf_draws",
]

#: The one TMN hidden size every workload uses (matching is on).
HIDDEN_DIM = 16
#: Trips in the fixture's training set (the train-eval recipe).
TRAIN_TRIPS = 150
#: Seed of the training set behind the model the serve workloads load.
FIXTURE_SEED = 0

# Stream ids: one independent generator per purpose.
S_TRAIN, S_STORE, S_OPS, S_PROBES, S_TEST, S_WARM = 1, 2, 3, 4, 5, 6


def stream(seed: int, purpose: int) -> np.random.Generator:
    """The generator for one input purpose under ``seed``."""
    return np.random.default_rng([seed, purpose])


def make_trips(
    n: int,
    rng: np.random.Generator,
    min_len: int = 12,
    max_len: int = 48,
    stats: Optional[NormStats] = None,
) -> Tuple[List[np.ndarray], NormStats]:
    """``n`` normalised Porto-like trips and the normalisation used."""
    raw = make_porto_like(n, rng=rng, min_len=min_len, max_len=max_len)
    if stats is None:
        ds, stats = normalize(raw)
        return ds.points_list, stats
    return [stats.transform(t.points) for t in raw], stats


def zipf_draws(
    n_items: int, n_hot: int, n_draws: int, rng: np.random.Generator, s: float = 1.1
) -> Tuple[np.ndarray, np.ndarray]:
    """A hot subset of item ids and ``n_draws`` Zipf(``s``) draws from it."""
    hot = rng.choice(n_items, size=min(n_hot, n_items), replace=False)
    weights = 1.0 / np.arange(1, len(hot) + 1) ** s
    return hot, hot[rng.choice(len(hot), size=n_draws, p=weights / weights.sum())]


def variants(
    store: Sequence[np.ndarray], n: int, rng: np.random.Generator, sigma: float = 0.02
) -> List[np.ndarray]:
    """``n`` never-seen variants of stored trips: half noised, half cropped."""
    out = []
    for i in rng.integers(0, len(store), size=n):
        if rng.random() < 0.5:
            out.append(add_noise(store[i], sigma, rng))
        else:
            out.append(crop(store[i], rng.uniform(0.6, 0.9), rng))
    return out


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
def dtw_lower_bounds(
    query: np.ndarray, stack: np.ndarray, lengths: np.ndarray, chunk: int = 128
) -> np.ndarray:
    """A lower bound on DTW(query, stack[i]) for every stored trip.

    Every point on either side is matched at least once, at no less than
    its distance to the nearest point of the other side, so both sums of
    nearest-point distances bound DTW from below; the larger is kept.
    """
    out = np.empty(len(stack))
    cols = np.arange(stack.shape[1])
    q_sq = (query**2).sum(axis=1)
    for lo in range(0, len(stack), chunk):
        part = stack[lo : lo + chunk]
        valid = cols[None, :] < lengths[lo : lo + chunk, None]
        # Squared point distances (c, L, n); the square root is taken
        # after the minimum, which it commutes with.
        d2 = (part**2).sum(axis=2)[:, :, None] + q_sq[None, None, :] - 2.0 * part @ query.T
        np.maximum(d2, 0.0, out=d2)
        from_stored = np.where(valid, np.sqrt(d2.min(axis=2)), 0.0).sum(axis=1)
        d2[~valid] = np.inf
        from_query = np.sqrt(d2.min(axis=1)).sum(axis=1)
        out[lo : lo + chunk] = np.maximum(from_query, from_stored)
    return out


def exact_topk(
    query: np.ndarray,
    stack: np.ndarray,
    lengths: np.ndarray,
    k: int,
    metric: MetricSpec,
    chunk: int = 32,
) -> Tuple[np.ndarray, int]:
    """Exact DTW top-``k`` ids of ``query`` (ties to the lower id), pairs run.

    Candidates are evaluated in ascending lower-bound order and the scan
    stops once the next bound exceeds the current k-th distance.
    """
    bounds = dtw_lower_bounds(query, stack, lengths)
    order = np.argsort(bounds, kind="stable")
    best_d = np.zeros(0)
    best_i = np.zeros(0, dtype=int)
    pairs = 0
    for lo in range(0, len(order), chunk):
        idx = order[lo : lo + chunk]
        if len(best_d) >= k and bounds[idx[0]] > best_d[k - 1]:
            break
        q = np.repeat(query[None], len(idx), axis=0)
        q_len = np.full(len(idx), len(query))
        d = metric.batch(q, stack[idx], q_len, lengths[idx])
        pairs += len(idx)
        all_d = np.concatenate([best_d, d])
        all_i = np.concatenate([best_i, idx])
        keep = np.lexsort((all_i, all_d))[:k]
        best_d, best_i = all_d[keep], all_i[keep]
    return best_i, pairs


def pad(trajs: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-padded ``(N, L, 2)`` stack and lengths."""
    lengths = np.array([len(t) for t in trajs])
    stack = np.zeros((len(trajs), lengths.max(), 2))
    for i, t in enumerate(trajs):
        stack[i, : len(t)] = t
    return stack, lengths


# ----------------------------------------------------------------------
# The model fixture: the train-eval recipe
# ----------------------------------------------------------------------
@dataclass
class Fixture:
    """A TMN trained by the train-eval recipe, with its stage timings."""

    model: TMN
    stats: NormStats
    gt_pairs: int
    gt_s: float
    train_pairs: int
    fit_s: float
    loss: float
    #: The epoch's ``{span path: {"seconds", "count"}}`` from ``on_epoch``.
    epoch_spans: Dict[str, Dict[str, float]] = field(default_factory=dict)


def train_corpus(seed: int) -> Tuple[List[np.ndarray], NormStats]:
    """The recipe's training trips under ``seed`` and their normalisation."""
    return make_trips(TRAIN_TRIPS, stream(seed, S_TRAIN))


def ground_truth(
    train: List[np.ndarray],
    metric: MetricSpec,
    extra_gt: Optional[Callable[[MetricSpec], int]] = None,
) -> Tuple[np.ndarray, int, float]:
    """The recipe's exact DTW matrix of ``train``: ``(matrix, pairs, seconds)``.

    ``extra_gt(metric)`` runs inside the timed stage and returns the DTW
    pairs it computed (train-eval adds its evaluation matrix there).
    """
    start = time.perf_counter()
    distances = pairwise_distance_matrix(train, metric)
    pairs = len(train) * (len(train) - 1) // 2
    if extra_gt is not None:
        pairs += extra_gt(metric)
    return distances, pairs, time.perf_counter() - start


def train_fixture(
    train: List[np.ndarray],
    stats: NormStats,
    seed: int,
    metric: Optional[MetricSpec] = None,
    extra_gt: Optional[Callable[[MetricSpec], int]] = None,
) -> Fixture:
    """Build the exact DTW ground truth of ``train`` and fit one TMN epoch."""
    metric = metric if metric is not None else get_metric("dtw")
    distances, gt_pairs, gt_s = ground_truth(train, metric, extra_gt)

    config = TMNConfig(hidden_dim=HIDDEN_DIM, epochs=1, seed=seed)
    model = TMN(config)
    spans: Dict[str, Dict[str, float]] = {}
    pairs_counter = get_registry().counter("train.pairs")
    pairs_before = pairs_counter.value
    start = time.perf_counter()
    history = Trainer(model, config, metric).fit(
        train, distances=distances, on_epoch=lambda p: spans.update(p["spans"])
    )
    fit_s = time.perf_counter() - start
    model.eval()
    return Fixture(
        model=model,
        stats=stats,
        gt_pairs=gt_pairs,
        gt_s=gt_s,
        train_pairs=int(pairs_counter.value - pairs_before),
        fit_s=fit_s,
        loss=history.final_loss,
        epoch_spans=spans,
    )
