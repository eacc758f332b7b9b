"""Contract suite of the one pool supervisor (repro.exec.pool).

Every recovery schedule the campaign runner and the ``repro.serve``
worker pool rely on is driven here, once,
against :class:`SupervisedPool` itself through its single fault seam
(``factory``) and through **both** entry points: the synchronous batch
(``run``) and the ``submit``/``retire`` pair an asyncio caller drives.
The callers keep one wiring test each (``tests/test_faults.py``,
``tests/test_serve.py``) plus their real-SIGKILL tests.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.ckpt.faults import BrokenPoolOnce
from repro.exec import SupervisedPool, TileTask
from repro.obs import ObsConfig, Telemetry

from helpers import log_events

N_TASKS = 5


def make_tasks(ran, n=N_TASKS):
    """``n`` tasks that log their index in ``ran`` and return its square."""
    def work(i):
        ran.append(i)
        return i * i

    return [TileTask(work, (i,)) for i in range(n)]


def expected(n=N_TASKS):
    return [i * i for i in range(n)]


def scheduled(*pools):
    """A ``factory`` handing out ``pools`` in order, never more."""
    remaining = list(pools)

    def factory(max_workers):
        assert remaining, "factory asked for more pools than scheduled"
        return remaining.pop(0)

    factory.remaining = remaining
    return factory


def healthy():
    return BrokenPoolOnce(fail="result", at=-1)  # index never reached


def run_batch(pool, tasks):
    return pool.run(tasks)


def run_pair(pool, tasks):
    """What an asyncio caller does with submit/retire, minus the awaits."""
    results = []
    for task in tasks:
        future = pool.submit(task.fn, *task.args)
        if future is not None:
            try:
                results.append(future.result())
                continue
            except Exception:
                if not pool.retire(future):
                    raise
        results.append(task())  # the one off-pool run
    return results


ENTRY_POINTS = pytest.mark.parametrize(
    "drive", [run_batch, run_pair], ids=["batch", "pair"])
BREAK_MODES = pytest.mark.parametrize("fail", ["submit", "result"])


# ----------------------------------------------------------------------
# worker death: re-run once, rebuild once, then degrade
# ----------------------------------------------------------------------

@ENTRY_POINTS
@BREAK_MODES
class TestWorkerDeath:
    def test_first_broken_pool_is_forgiven_and_rebuilt(self, drive, fail):
        obs = Telemetry(ObsConfig(trace=True))
        factory = scheduled(BrokenPoolOnce(fail=fail, at=1), healthy())
        pool = SupervisedPool(2, owner="contract", factory=factory, obs=obs)
        ran = []
        assert drive(pool, make_tasks(ran)) == expected()
        # the failed work ran off-pool exactly once, nothing ran twice
        assert sorted(ran) == list(range(N_TASKS))
        assert pool.pool_failures == 1 and not pool.degraded
        # counted and mirrored on the handle the pool was given
        assert obs.metrics.get("exec.pool_rebuilds") == 1
        (event,) = log_events(obs, "pool.rebuild")
        assert event["owner"] == "contract"
        assert event["failures"] == 1
        # later work runs on the rebuilt, healthy pool
        assert drive(pool, make_tasks(ran)) == expected()
        assert not factory.remaining
        assert pool.pool_failures == 1 and not pool.degraded

    def test_second_broken_pool_degrades_for_good(self, drive, fail):
        factory = scheduled(BrokenPoolOnce(fail=fail, at=1),
                            BrokenPoolOnce(fail=fail, at=0))
        active = Telemetry(ObsConfig(trace=True))
        pool = SupervisedPool(2, owner="contract", factory=factory,
                              obs=active)
        ran = []
        assert drive(pool, make_tasks(ran)) == expected()
        assert drive(pool, make_tasks(ran)) == expected()
        assert pool.pool_failures == 2 and pool.degraded
        # degraded pools keep working, off-pool, and never ask the
        # factory again (it would assert)
        assert drive(pool, make_tasks(ran)) == expected()
        assert sorted(ran) == sorted(3 * list(range(N_TASKS)))
        assert pool.pool_failures == 2
        assert active.metrics.get("exec.pool_rebuilds") == 1
        assert len(log_events(active, "pool.rebuild")) == 1
        (event,) = log_events(active, "pool.degraded")
        assert event["owner"] == "contract"


class AllBrokenPool:
    """Every future fails the way a dead worker's does."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("injected: all workers died"))
        return future

    def shutdown(self, wait=True):
        pass


@ENTRY_POINTS
def test_pool_failures_counts_pool_objects_not_futures(drive):
    pool = SupervisedPool(
        2, owner="contract", factory=scheduled(AllBrokenPool(), healthy()))
    futures = [pool.submit(pow, 2, 2) for _ in range(3)]
    assert all(pool.retire(future) for future in futures)
    assert pool.pool_failures == 1 and not pool.degraded
    # and the same through the entry point: one broken pool, one incident
    pool = SupervisedPool(
        2, owner="contract", factory=scheduled(AllBrokenPool(), healthy()))
    ran = []
    assert drive(pool, make_tasks(ran)) == expected()
    assert pool.pool_failures == 1 and not pool.degraded


# ----------------------------------------------------------------------
# environments without process pools
# ----------------------------------------------------------------------

class ForkBlockedPool:
    """Runs ``healthy_submits`` tasks, then ``submit`` raises OSError."""

    def __init__(self, healthy_submits=0):
        self.inner = healthy()
        self.healthy_submits = healthy_submits

    def submit(self, fn, *args):
        if self.inner.submitted >= self.healthy_submits:
            raise OSError("fork blocked")
        return self.inner.submit(fn, *args)

    def shutdown(self, wait=True):
        pass


@ENTRY_POINTS
class TestUnavailable:
    def test_factory_returning_none_degrades_at_once(self, drive):
        active = Telemetry(ObsConfig(trace=True))
        pool = SupervisedPool(2, owner="contract",
                              factory=scheduled(None), obs=active)
        ran = []
        assert drive(pool, make_tasks(ran)) == expected()
        assert drive(pool, make_tasks(ran)) == expected()
        assert pool.degraded and pool.pool_failures == 0
        (event,) = log_events(active, "pool.unavailable")
        assert event["owner"] == "contract"

    def test_submit_oserror_degrades_at_once(self, drive):
        active = Telemetry(ObsConfig(trace=True))
        pool = SupervisedPool(2, owner="contract",
                              factory=scheduled(ForkBlockedPool(2)),
                              obs=active)
        ran = []
        assert drive(pool, make_tasks(ran)) == expected()
        # what was already submitted is kept, the rest ran off-pool
        assert sorted(ran) == list(range(N_TASKS))
        assert pool.degraded and pool.pool_failures == 0
        assert len(log_events(active, "pool.unavailable")) == 1
        assert drive(pool, make_tasks(ran)) == expected()


# ----------------------------------------------------------------------
# task exceptions are not pool failures
# ----------------------------------------------------------------------

def boom(i):
    raise OSError(f"task {i} failed")  # OSError: must not read as "no fork"


@ENTRY_POINTS
def test_task_exception_propagates_untouched(drive):
    pool = SupervisedPool(2, owner="contract", factory=scheduled(healthy()))
    tasks = make_tasks([], 2) + [TileTask(boom, (2,)), TileTask(boom, (3,))]
    with pytest.raises(OSError, match="task 2 failed"):
        drive(pool, tasks)
    assert pool.pool_failures == 0 and not pool.degraded


def test_batch_reports_siblings_before_raising():
    pool = SupervisedPool(2, owner="contract", factory=scheduled(healthy()))
    tasks = [TileTask(boom, (0,))] + make_tasks([], 3)[1:]
    seen = {}
    with pytest.raises(OSError, match="task 0 failed"):
        pool.run(tasks, on_result=seen.__setitem__)
    assert seen == {1: 1, 2: 4}


# ----------------------------------------------------------------------
# the batch entry point's own promises
# ----------------------------------------------------------------------

class TestBatch:
    def test_on_result_fires_once_per_position_off_pool_included(self):
        pool = SupervisedPool(
            2, owner="contract",
            factory=scheduled(BrokenPoolOnce(fail="submit", at=2)))
        seen = []
        results = pool.run(make_tasks([]),
                           on_result=lambda pos, res: seen.append((pos, res)))
        assert results == expected()
        assert sorted(seen) == list(enumerate(expected()))
        # positions 2.. never reached the pool
        assert pool.off_pool_tasks == N_TASKS - 2

    @pytest.mark.parametrize("workers, n", [(2, 1), (1, N_TASKS), (2, 0)])
    def test_one_task_or_one_worker_never_touches_the_pool(self, workers, n):
        pool = SupervisedPool(workers, owner="contract",
                              factory=scheduled())  # any call asserts
        assert pool.run(make_tasks([], n)) == expected(n)
        assert pool.off_pool_tasks == 0 and not pool.degraded

    def test_shutdown_releases_the_pool_and_next_use_forks_afresh(self):
        first, second = healthy(), healthy()
        pool = SupervisedPool(2, owner="contract",
                              factory=scheduled(first, second))
        assert pool.run(make_tasks([])) == expected()
        pool.shutdown()
        assert pool.run(make_tasks([])) == expected()
        assert first.submitted == second.submitted == N_TASKS
        assert pool.pool_failures == 0
