"""Serial executor: the reference backend.

Runs every task inline, in submission order.  With ``num_shards > 1`` it
still applies the shard partition and scratch-buffer merge discipline, so
it is the numerical reference the concurrent backends are compared
against: serial-with-N-shards and threaded-with-N-shards must be bitwise
identical.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.exec.base import BACKEND_SERIAL, TileExecutor, TileTask


class SerialExecutor(TileExecutor):
    """Run tile tasks one after another in the calling thread."""

    name = BACKEND_SERIAL

    def run(self, tasks: Sequence[TileTask]) -> List[Any]:
        return [task() for task in tasks]
