"""Server-Sent Events: wire format and the per-job event broker.

The progress feed of a job is an ordered stream of SSE frames
(``text/event-stream``): each frame carries an ``event:`` name, a
monotonically increasing ``id:`` and one ``data:`` line of sorted-key
JSON.  :func:`format_sse` renders one frame; :class:`EventBroker` fans
frames out to any number of concurrent subscribers and *replays* the
full history to late subscribers, so streaming the events of an
already-finished job yields the complete feed and then ends — exactly
what the CI smoke and a polling client rely on.

The broker is an asyncio-side object: ``publish``/``close`` must run on
the event loop thread (the :class:`~repro.serve.server.JobService` is
the only producer), and subscribers consume through per-subscriber
``asyncio.Queue`` handoffs so one slow SSE connection never blocks the
job or its sibling subscribers.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Optional

__all__ = [
    "EventBroker",
    "format_sse",
]

#: sentinel a closed broker enqueues so subscriber loops terminate
_CLOSED = None


def format_sse(data: Dict[str, Any], *, event: Optional[str] = None,
               event_id: Optional[int] = None) -> bytes:
    """One SSE frame: ``event:``/``id:`` headers plus JSON ``data:``.

    The payload is compact sorted-key JSON (no embedded newlines, so a
    single ``data:`` line always suffices and the frame is trivially
    parseable by line-splitting clients).
    """
    lines: List[str] = []
    if event is not None:
        lines.append(f"event: {event}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append("data: " + json.dumps(data, sort_keys=True,
                                       separators=(",", ":")))
    return ("\n".join(lines) + "\n\n").encode("utf-8")

#: frames one job's broker keeps for replay to late subscribers
HISTORY_LIMIT = 4096


class EventBroker:
    """Fan-out of one job's SSE frames with full-history replay.

    :data:`HISTORY_LIMIT` bounds the replay buffer; when exceeded, the
    oldest frames are dropped and :attr:`dropped` counts them (the live
    feed is unaffected — only late subscribers lose the overflow, and
    the ``id:`` sequence makes the gap visible to them).
    """

    def __init__(self) -> None:
        self.dropped = 0
        self.closed = False
        self._next_id = 0
        self._history: List[bytes] = []
        self._queues: List["asyncio.Queue[Optional[bytes]]"] = []

    def publish(self, event: str, data: Dict[str, Any]) -> bytes:
        """Render and fan out one frame; returns the encoded frame.

        Publishing to a closed broker is a no-op returning ``b""`` (the
        job finished while a straggling callback still held a
        reference).
        """
        if self.closed:
            return b""
        frame = format_sse(data, event=event, event_id=self._next_id)
        self._next_id += 1
        self._history.append(frame)
        if len(self._history) > HISTORY_LIMIT:
            overflow = len(self._history) - HISTORY_LIMIT
            del self._history[:overflow]
            self.dropped += overflow
        for queue in self._queues:
            queue.put_nowait(frame)
        return frame

    def close(self) -> None:
        """Terminate the stream: subscribers drain and then finish."""
        if self.closed:
            return
        self.closed = True
        for queue in self._queues:
            queue.put_nowait(_CLOSED)

    async def subscribe(self) -> AsyncIterator[bytes]:
        """Yield every frame: the history so far, then live until close.

        Registration and the history snapshot happen in the same
        synchronous block, so no frame is ever missed or duplicated
        between replay and the live tail.
        """
        queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        replay = list(self._history)
        live = not self.closed
        if live:
            self._queues.append(queue)
        try:
            for frame in replay:
                yield frame
            if not live:
                return
            while True:
                frame = await queue.get()
                if frame is _CLOSED:
                    return
                yield frame
        finally:
            if live:
                try:
                    self._queues.remove(queue)
                except ValueError:  # pragma: no cover - defensive
                    pass

    def __len__(self) -> int:
        """Frames currently replayable from history."""
        return len(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"EventBroker({state}, {len(self._history)} frames, "
                f"{len(self._queues)} subscribers)")
