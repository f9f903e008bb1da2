"""Correctness checks: any failure marks the run incorrect (exit code 1)."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["Checks", "answer_problem", "first_problems", "overlap10"]


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self) -> None:
        self.results: List[tuple] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> List[str]:
        return [
            f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
            for name, ok, detail in self.results
        ]


def answer_problem(result, k: int, n: int) -> str:
    """Why a top-k answer over ``n`` stored trips is malformed, or ``""``.

    A well-formed answer has ``min(k, n)`` unique ids in ``[0, n)`` with
    finite distances in ascending order.
    """
    ids = np.asarray(result.ids)
    dists = np.asarray(result.distances, dtype=float)
    want = min(k, n)
    if len(ids) != want or len(dists) != want:
        return f"{len(ids)} ids / {len(dists)} distances, expected {want}"
    if len(set(ids.tolist())) != len(ids):
        return "duplicate ids"
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        return f"id out of range [0, {n})"
    if not np.all(np.isfinite(dists)):
        return "non-finite distance"
    if np.any(np.diff(dists) < 0):
        return "distances not ascending"
    return ""


def first_problems(results: Iterable, k: int, n: int, limit: int = 3) -> List[str]:
    """Up to ``limit`` malformed-answer descriptions among ``results``."""
    out = []
    for i, result in enumerate(results):
        problem = answer_problem(result, k, n)
        if problem:
            out.append(f"answer {i}: {problem}")
            if len(out) >= limit:
                break
    return out


def overlap10(found: Sequence[int], truth: Sequence[int]) -> float:
    """Share of ``truth`` (a top-10) present in ``found``."""
    return len(set(np.asarray(found).tolist()) & set(np.asarray(truth).tolist())) / len(truth)
