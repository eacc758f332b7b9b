"""The one supervised worker pool: lazy fork, rebuild once, then degrade.

Both places that ship work to worker processes —
:class:`repro.analysis.campaign.Campaign` and the ``repro.serve``
:class:`~repro.serve.queue.WorkerPool` — go through
:class:`SupervisedPool`, so recovery from a dead worker is one state
machine with one fault-injection seam (``factory``):

* the pool is acquired lazily from ``factory(max_workers)``; the default
  prefers the ``fork`` start method (workers inherit ``sys.path`` and
  the imported library, so no re-import cost per task);
* ``factory`` returning ``None``, or ``submit`` raising ``OSError``
  (workers fork lazily inside ``submit``, so a sandbox that blocks fork
  surfaces there) means this environment never yields a working pool:
  **degraded for good**, all later work runs off-pool;
* ``BrokenProcessPool`` — a worker died (SIGKILL, OOM) — costs the
  failed or not-yet-submitted work one re-run off-pool, exactly once.
  The first broken *pool object* is forgiven: it is dropped, a fresh one
  is forked on next use and ``exec.pool_rebuilds`` is counted; the
  second degrades for good.  However many futures one broken pool
  fails, it is one incident (``pool_failures`` counts pool objects);
* an exception raised by the task itself is never a pool failure and
  propagates untouched.

Two entry points share that machine: :meth:`SupervisedPool.run` is the
synchronous batch (off-pool work runs inline in the caller), and
:meth:`SupervisedPool.submit` / :meth:`SupervisedPool.retire` is the
pair an asyncio caller drives itself, choosing where its off-pool work
runs.  Incidents are logged as ``pool.unavailable``, ``pool.rebuild``
and ``pool.degraded`` with an ``owner=`` field naming the caller.

A :class:`SupervisedPool` is driven from one thread (or one event loop);
it takes no lock.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
import weakref
# imported explicitly: the `concurrent.futures.process` attribute is only
# bound once the submodule is imported, so referencing it lazily inside an
# except clause can itself raise AttributeError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.base import TileTask
from repro.obs.log import log_event
from repro.obs.registry import NULL_TELEMETRY, Telemetry

logger = logging.getLogger(__name__)


def preferred_mp_context() -> multiprocessing.context.BaseContext:
    """The ``fork`` start method where available, platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def make_process_pool(max_workers: int
                      ) -> Optional[concurrent.futures.ProcessPoolExecutor]:
    """A fork-preferring process pool, or None where subprocesses are banned.

    The default :class:`SupervisedPool` factory: environments that
    forbid the semaphores/processes multiprocessing needs surface the
    refusal here as OSError/PermissionError/ValueError, which maps to
    None.
    """
    try:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=preferred_mp_context(),
        )
    except (OSError, PermissionError, ValueError):
        return None


class SupervisedPool:
    """A process pool that survives its workers (see the module docstring).

    Parameters
    ----------
    max_workers:
        Worker processes of each pool the factory is asked for.
    owner:
        Short caller name carried as ``owner=`` on the ``pool.*`` events.
    factory:
        ``factory(max_workers)`` returns a pool (anything with
        ``submit``/``shutdown``) or ``None`` where pools are unavailable;
        fault tests substitute :class:`repro.ckpt.faults.BrokenPoolOnce`.
    obs:
        The owner's registry: counts ``exec.pool_rebuilds`` and mirrors
        the ``pool.*`` events.
    """

    #: broken pool objects forgiven (rebuilt) before degrading for good
    MAX_POOL_REBUILDS = 1

    def __init__(self, max_workers: int, *, owner: str,
                 factory: Callable[[int], Optional[Any]] = make_process_pool,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        self.max_workers = int(max_workers)
        self.owner = owner
        self.factory = factory
        self.obs = obs
        #: True once pools are given up on and all work runs off-pool
        self.degraded = False
        #: pool objects that broke so far
        self.pool_failures = 0
        #: tasks :meth:`run` executed inline although a pool was wanted
        self.off_pool_tasks = 0
        self._pool: Optional[Any] = None
        #: future -> the pool object it was submitted to, so that many
        #: failed futures of one broken pool count as one incident
        self._pool_of = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any
               ) -> Optional["concurrent.futures.Future"]:
        """Hand ``fn(*args)`` to the pool.

        Returns the future, or ``None`` when the caller must run the
        work off-pool: the pool is degraded, unavailable, or broke or
        refused at this very submit.  A future that later fails is
        shown to :meth:`retire`, which tells a dead worker from a task
        that raised.
        """
        if self.degraded:
            return None
        if self._pool is None:
            self._pool = self.factory(self.max_workers)
            if self._pool is None:
                self._incident("the factory returned none", broke=False)
                return None
        try:
            future = self._pool.submit(fn, *args)
        except (BrokenProcessPool, OSError) as exc:
            self._incident(exc, broke=isinstance(exc, BrokenProcessPool))
            return None
        self._pool_of[future] = self._pool
        return future

    def retire(self, future: "concurrent.futures.Future") -> bool:
        """Classify a failed future: did its worker die?

        True means ``future`` failed with ``BrokenProcessPool`` and the
        caller re-runs that work off-pool, once; the pool object the
        future belonged to is retired on the first such report only.
        False means the task itself raised: not a pool failure, the
        caller lets the exception propagate.
        """
        cause = future.exception()
        if not isinstance(cause, BrokenProcessPool):
            return False
        pool = self._pool_of.pop(future, None)
        if pool is not None and pool is self._pool:
            self._incident(cause, broke=True)
        return True

    def run(self, tasks: Sequence[TileTask],
            on_result: Optional[Callable[[int, Any], None]] = None
            ) -> List[Any]:
        """Run a batch and return the results in task order.

        ``on_result(position, result)`` fires as each result
        materializes — before the batch finishes — so a caller can
        persist completed work even when a later task raises.  Work the
        pool could not finish runs inline here, once.  A batch call
        blocks its caller, so a single task or a single worker cannot
        beat running inline and never touches the pool.  When tasks
        raise, the siblings are still collected (and reported) first,
        then the exception of the earliest failed task propagates.
        """
        results: Dict[int, Any] = {}

        def emit(position: int, result: Any) -> None:
            results[position] = result
            if on_result is not None:
                on_result(position, result)

        pooled = len(tasks) > 1 and self.max_workers > 1
        futures: Dict["concurrent.futures.Future", int] = {}
        if pooled:
            for position, task in enumerate(tasks):
                future = self.submit(task.fn, *task.args)
                if future is None:
                    # the rest of the batch runs inline below; a rebuilt
                    # pool is for the next batch
                    break
                futures[future] = position
        failed: Dict[int, Exception] = {}
        # as_completed (not a batch wait) so each result is reported the
        # moment its worker finishes
        for future in concurrent.futures.as_completed(futures):
            position = futures[future]
            try:
                emit(position, future.result())
            except Exception as exc:
                if not self.retire(future):
                    failed[position] = exc
        if failed:
            raise failed[min(failed)]
        for position, task in enumerate(tasks):
            if position not in results:
                if pooled:
                    self.off_pool_tasks += 1
                emit(position, task())
        return [results[position] for position in range(len(tasks))]

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes; the next use forks afresh."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    # ------------------------------------------------------------------
    def _incident(self, cause: object, broke: bool) -> None:
        """The one state transition: a pool broke, or there is none."""
        # work already handed to the dropped pool still completes
        self.shutdown(wait=False)
        if broke:
            self.pool_failures += 1
        if broke and self.pool_failures <= self.MAX_POOL_REBUILDS:
            event, outlook = "pool.rebuild", "the pool is rebuilt on next use"
            self.obs.count("exec.pool_rebuilds")
        else:
            self.degraded = True
            event = "pool.degraded" if broke else "pool.unavailable"
            outlook = "all work runs off-pool from now on"
        log_event(
            event, "%s process pool %s (%s); unfinished work is re-run "
            "off-pool once, %s", self.owner,
            "lost a worker" if broke else "is unavailable", cause, outlook,
            logger=logger, obs=self.obs, owner=self.owner,
            failures=self.pool_failures)
