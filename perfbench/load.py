"""Closed-loop load: client threads that each wait for their reply.

Operations come from one seeded list, handed out in order to whichever
client is free; each client sends its next operation only after the
previous one returned.  Answers are kept and checked after the timed
window, so checking costs nothing inside it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["Op", "Record", "Run", "drive", "failed_count"]

#: One operation: ``("topk", trajectory)`` or ``("add", trajectory)``.
Op = Tuple[str, Any]


@dataclass
class Record:
    kind: str
    index: int
    seconds: float
    result: Any
    error: Optional[str]


@dataclass
class Run:
    records: List[Record]
    elapsed_s: float
    exhausted: bool

    def of(self, kind: str) -> List[Record]:
        return [r for r in self.records if r.kind == kind]


def failed_count(records: Sequence[Record]) -> int:
    """Operations that raised, plus top-k answers flagged ``degraded``."""
    return sum(
        r.error is not None or (r.kind == "topk" and bool(r.result.degraded))
        for r in records
    )


def drive(server, ops: Sequence[Op], clients: int, seconds: float, k: int) -> Run:
    """Run ``ops`` against ``server`` from ``clients`` threads for ``seconds``."""
    tickets = itertools.count()
    per_client: List[List[Record]] = [[] for _ in range(clients)]
    exhausted = threading.Event()
    start = time.perf_counter()
    deadline = start + seconds

    def client(out: List[Record]) -> None:
        while time.perf_counter() < deadline:
            i = next(tickets)
            if i >= len(ops):
                exhausted.set()
                return
            kind, traj = ops[i]
            t0 = time.perf_counter()
            try:
                result = server.topk(traj, k=k) if kind == "topk" else server.add(traj)
                error = None
            except Exception as exc:  # counted as a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            out.append(Record(kind, i, time.perf_counter() - t0, result, error))

    threads = [
        threading.Thread(target=client, args=(out,), name=f"perfbench-client-{n}")
        for n, out in enumerate(per_client)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    records = sorted((r for out in per_client for r in out), key=lambda r: r.index)
    return Run(records, elapsed, exhausted.is_set())
