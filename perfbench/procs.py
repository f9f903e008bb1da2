"""Leave no process behind: end every child a run started and wait for it.

``ShardedSimilarityServer.close`` joins its shard workers, but the run
also starts multiprocessing's resource tracker (for the shard slabs and
the queues' semaphores).  Left alone, the tracker outlives the benchmark
until it notices the closed pipe, and a queue semaphore finalised at
interpreter exit can even start a fresh one.  ``reap_children`` runs the
multiprocessing exit finalisers now, joins what is left and stops the
tracker, so the process exits with no child running.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
from multiprocessing import resource_tracker, util


def tracker_pid():
    """PID of this process's resource tracker, or None when none runs."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def reap_children(timeout: float = 10.0) -> None:
    """Finalise multiprocessing state, end every child and the tracker."""
    gc.collect()
    # What interpreter exit would do: run the finalisers (semaphore
    # unlinks, queue closes) and join the children.  Doing it here means
    # none of it can restart the tracker after it has been stopped.
    for child in mp.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)
    util._exit_function()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
