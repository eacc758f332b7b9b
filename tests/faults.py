"""Deterministic fault injection for the checkpoint/restart harness.

Recovery code that is only ever exercised by real crashes is recovery
code that does not work.  This module makes every failure mode the
subsystem claims to survive *injectable on demand*, so the test suite
and the CI ``fault-tolerance`` job can assert the recovery contract
instead of hoping:

* :class:`KillSwitch` / :func:`kill_current_process` — SIGKILL a worker
  (or the whole campaign process) exactly once, coordinated across
  processes through a marker file: whichever process removes the marker
  dies, every later attempt finds it gone and proceeds.  This is what
  lets "kill a worker mid-step, retry once, succeed" be a deterministic
  test.
* :class:`BrokenPoolOnce` — an inline stand-in for
  ``ProcessPoolExecutor`` that raises ``BrokenProcessPool`` at a chosen
  submit or result.  It goes in through the one seam every pool user
  shares, the ``factory`` of :class:`repro.exec.pool.SupervisedPool`,
  and works in sandboxes where real process pools are unavailable.
* :func:`truncate_file` / :func:`flip_byte` — torn-write and
  bit-corruption fixtures for snapshot, record-log and cache files.

Nothing under ``src/`` imports it.  The pool forks, so a task defined
here (:func:`chaos_shard_task`, :func:`killing_spec_executor`) unpickles
in the worker.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict

from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = [
    "BrokenPoolOnce",
    "KillSwitch",
    "chaos_shard_task",
    "flip_byte",
    "kill_current_process",
    "killing_spec_executor",
    "truncate_file",
]

#: environment variable carrying the kill-switch marker path into
#: campaign worker processes (inherited across fork)
SPEC_KILL_MARKER_ENV = "REPRO_FAULT_SPEC_KILL_MARKER"


def kill_current_process() -> None:
    """SIGKILL the calling process — no cleanup, no excuses."""
    os.kill(os.getpid(), signal.SIGKILL)


class KillSwitch:
    """One-shot, cross-process kill trigger backed by a marker file.

    ``arm()`` creates the marker; ``fire()`` removes it and SIGKILLs the
    calling process.  Removal is the atomic claim: when several workers
    race, exactly one dies, and after the kill every retry finds the
    marker gone and runs to completion — which is precisely the
    "die once, succeed on retry" schedule the recovery tests need.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def arm(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("armed\n")

    @property
    def armed(self) -> bool:
        return os.path.exists(self.path)

    def disarm(self) -> None:
        try:
            os.remove(self.path)
        except OSError:
            pass

    def fire(self) -> bool:
        """Die iff the switch is still armed; returns False otherwise."""
        try:
            os.remove(self.path)
        except OSError:
            return False
        kill_current_process()
        return True  # pragma: no cover - unreachable


def chaos_shard_task(marker_path: str, payload: Any) -> Any:
    """Pool task that dies once (via ``marker_path``) then echoes.

    Module-level so the worker pool can pickle it; the first
    worker to claim the armed marker is SIGKILLed mid-task, every retry
    returns ``payload`` unchanged.
    """
    KillSwitch(marker_path).fire()
    return payload


def killing_spec_executor(spec_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Drop-in for ``repro.analysis.campaign._execute_spec_payload`` that
    SIGKILLs the worker once when ``$REPRO_FAULT_SPEC_KILL_MARKER`` names
    an armed :class:`KillSwitch`, then computes the cell normally.

    The cell is recomputed through ``run_spec`` directly (not via the
    ``_execute_spec_payload`` module attribute, which tests monkeypatch
    to *this* function — looking it up again would recurse forever).
    """
    marker = os.environ.get(SPEC_KILL_MARKER_ENV)
    if marker:
        KillSwitch(marker).fire()
    from repro.analysis.campaign import ExperimentSpec, run_spec

    return run_spec(ExperimentSpec.from_dict(spec_payload)).to_json()


def truncate_file(path: str) -> int:
    """Simulate a torn write: keep only the first half of ``path``.

    Returns the new size.
    """
    keep = os.path.getsize(path) // 2
    with open(path, "rb+") as fh:
        fh.truncate(keep)
    return keep


def flip_byte(path: str) -> int:
    """XOR the middle byte of ``path`` in place.

    Returns the offset that was corrupted.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    position = size // 2
    with open(path, "rb+") as fh:
        fh.seek(position)
        original = fh.read(1)
        fh.seek(position)
        fh.write(bytes([original[0] ^ 0xFF]))
    return position


class BrokenPoolOnce:
    """Inline ``ProcessPoolExecutor`` stand-in with injectable breakage.

    Work submitted to it runs synchronously in the calling process, but
    the submission whose zero-based index equals ``at`` fails the way a
    dead worker does: with ``fail="submit"`` the ``submit`` call itself
    raises ``BrokenProcessPool`` (the pool broke while handing work
    out); with ``fail="result"`` (default) the returned future carries
    ``BrokenProcessPool`` (the worker died mid-task).  Deterministic,
    fork-free, usable where sandboxes forbid real process pools.
    Each injected fault counts ``faults.injected`` on ``obs``.
    """

    def __init__(self, fail: str = "result", at: int = 0,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        if fail not in ("submit", "result"):
            raise ValueError(f"fail must be 'submit' or 'result', "
                             f"got {fail!r}")
        self.fail = fail
        self.at = int(at)
        self.obs = obs
        self.submitted = 0
        self.broke = False

    def submit(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> "concurrent.futures.Future":
        index = self.submitted
        self.submitted += 1
        if self.fail == "submit" and index == self.at:
            self.broke = True
            self.obs.count("faults.injected")
            raise BrokenProcessPool(
                "injected fault: pool broke at submit")
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        if self.fail == "result" and index == self.at:
            self.broke = True
            self.obs.count("faults.injected")
            future.set_exception(BrokenProcessPool(
                "injected fault: worker died mid-task"))
            return future
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # deliver like a real pool would
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **_kwargs: Any) -> None:
        pass
