"""Per-layer timing from outside the program: wrappers around public calls.

Used only by the traced run (``--trace 1``).  Each wrapper forwards its
arguments and result untouched and records counts and durations in a
:class:`Tap`.  Wrappers are installed as instance attributes (or, for
``merge_topk``, the module attribute the sharded coordinator calls) and
removed again by :meth:`ServerTaps.uninstall`, which restores the
program exactly as shipped.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.metrics import MetricSpec
from repro.serve import shard as shard_module

from .stats import median

__all__ = ["CountingEncoder", "PairForwardTap", "ServerTaps", "Tap", "counting_metric", "p50_us"]


class Tap:
    """Thread-safe record of one call site: durations and items handled."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.durations: List[float] = []
        self.items = 0

    def record(self, seconds: float, items: int = 1) -> None:
        with self._lock:
            self.durations.append(seconds)
            self.items += items

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return float(sum(self.durations))

    def p_ms(self, pct: float) -> float:
        return float(np.percentile(self.durations, pct)) * 1e3 if self.durations else 0.0

    def mean_ms(self) -> float:
        return self.busy_s / self.calls * 1e3 if self.calls else 0.0


class _InnerClock:
    """Per-thread seconds spent in wrapped layers below ``topk``."""

    def __init__(self) -> None:
        self._local = threading.local()

    def reset(self) -> None:
        self._local.seconds = 0.0

    def add(self, seconds: float) -> None:
        self._local.seconds = getattr(self._local, "seconds", 0.0) + seconds

    @property
    def seconds(self) -> float:
        return getattr(self._local, "seconds", 0.0)


def _timed(fn: Callable, tap: Tap, inner: Optional[_InnerClock] = None,
           items: Callable = lambda args: 1) -> Callable:
    """``fn`` with every call timed into ``tap`` (and ``inner``)."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            tap.record(elapsed, items(args))
            if inner is not None:
                inner.add(elapsed)

    return wrapper


def counting_metric(spec: MetricSpec, tap: Tap) -> MetricSpec:
    """``spec`` with its batched kernel timed; items are pairs."""
    return MetricSpec(
        spec.name, spec.scalar, _timed(spec.batch, tap, items=lambda a: len(a[0])),
        dict(spec.params),
    )


class CountingEncoder:
    """An encoder handed to the server: forwards to ``model.encode``.

    Records calls, trajectories and time while ``active``.
    """

    def __init__(self, model) -> None:
        self.model = model
        self.tap = Tap()
        self.active = True

    def encode(self, trajs) -> np.ndarray:
        if not self.active:
            return self.model.encode(trajs)
        start = time.perf_counter()
        out = self.model.encode(trajs)
        self.tap.record(time.perf_counter() - start, len(trajs))
        return out


class PairForwardTap:
    """Times ``model.embed_pair`` (the pair-matching forward) while installed."""

    def __init__(self, model) -> None:
        self.model = model
        self.tap = Tap()

    def __enter__(self) -> "PairForwardTap":
        self.model.embed_pair = _timed(
            type(self.model).embed_pair.__get__(self.model), self.tap,
            items=lambda a: len(a[0]),
        )
        return self

    def __exit__(self, *exc) -> None:
        del self.model.embed_pair


class ServerTaps:
    """Wrappers around a server's cache, batcher, index, merge and ``topk``.

    ``engine_self`` records each ``topk`` call's time minus the time the
    same thread spent in the wrapped cache, batcher wait, index and merge.
    """

    def __init__(self, server, sharded: bool = False) -> None:
        self.server = server
        self.sharded = sharded
        self._inner = _InnerClock()
        self._installed = False
        self.reset()

    def reset(self) -> None:
        self.taps: Dict[str, Tap] = {
            name: Tap()
            for name in ("cache.get", "cache.put", "batcher.submit", "batcher.wait",
                         "index.query", "index.add", "merge", "topk", "engine.self")
        }

    # -- wrappers ------------------------------------------------------
    def _cache_get(self, orig: Callable) -> Callable:
        """Timed ``cache.get``; the tap's items count the hits."""

        def get(key):
            start = time.perf_counter()
            out = orig(key)
            elapsed = time.perf_counter() - start
            self.taps["cache.get"].record(elapsed, int(out is not None))
            self._inner.add(elapsed)
            return out

        return get

    def _submit(self, orig: Callable) -> Callable:
        def submit(traj):
            start = time.perf_counter()
            future = orig(traj)
            self.taps["batcher.submit"].record(time.perf_counter() - start)
            self._inner.add(time.perf_counter() - start)
            future.add_done_callback(
                lambda f: self.taps["batcher.wait"].record(time.perf_counter() - start)
            )
            # The engine blocks in result(); count that wait on this thread.
            result = future.result

            def timed_result(timeout=None):
                t0 = time.perf_counter()
                try:
                    return result(timeout=timeout)
                finally:
                    self._inner.add(time.perf_counter() - t0)

            future.result = timed_result
            return future

        return submit

    def _topk(self, orig: Callable) -> Callable:
        def topk(traj, k=1, deadline_s=None):
            self._inner.reset()
            start = time.perf_counter()
            out = orig(traj, k=k, deadline_s=deadline_s)
            elapsed = time.perf_counter() - start
            self.taps["topk"].record(elapsed)
            self.taps["engine.self"].record(max(elapsed - self._inner.seconds, 0.0))
            return out

        return topk

    def install(self) -> None:
        s = self.server
        s.cache.get = self._cache_get(type(s.cache).get.__get__(s.cache))
        s.cache.put = _timed(type(s.cache).put.__get__(s.cache), self.taps["cache.put"], self._inner)
        if self.sharded:
            shard_module.merge_topk = _timed(
                _MERGE, self.taps["merge"], self._inner
            )
        else:
            s.batcher.submit = self._submit(type(s.batcher).submit.__get__(s.batcher))
            s.index.query = _timed(type(s.index).query.__get__(s.index),
                                   self.taps["index.query"], self._inner)
            s.index.add = _timed(type(s.index).add.__get__(s.index), self.taps["index.add"])
        s.topk = self._topk(type(s).topk.__get__(s))
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        s = self.server
        del s.cache.get, s.cache.put, s.topk
        if self.sharded:
            shard_module.merge_topk = _MERGE
        else:
            del s.batcher.submit, s.index.query, s.index.add
        self._installed = False

    def __enter__(self) -> "ServerTaps":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


#: The shipped merge function, restored after every traced run.
_MERGE = shard_module.merge_topk


def p50_us(tap: Tap) -> float:
    """Median call time of ``tap`` in microseconds."""
    return median(tap.durations) * 1e6
