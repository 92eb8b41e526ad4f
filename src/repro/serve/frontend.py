"""Asyncio query front-end over the :class:`DistanceOracle`.

The event loop accepts queries and hands every read to a
``ThreadPoolExecutor`` worker, so it stays free to accept more while a
read runs.  Table reads are pure Python over per-epoch
:class:`~repro.serve.oracle.TableView` snapshots, so under the GIL the
pool runs no two reads in parallel; what it buys is a responsive loop.
Each pool trip therefore carries as much work as it can:

* point queries (``distance``/``path``) go through a micro-batcher
  that coalesces whatever arrived while the previous chunk was
  executing, up to ``max_batch`` queries, into one
  :meth:`DistanceOracle.query_batch` trip; ``await``-ing callers get
  their own answers back, and a query that raises (an unserved source,
  a target out of range) fails only its own caller;
* a stream (``serve``) is one pool job: :meth:`DistanceOracle.serve`
  answers it one ``query_batch`` per ``batch_size`` chunk, in stream
  order.

Point chunks keep their trip rather than running on the loop itself:
measured that way, the open-loop median latency rose by half, because
the query generator's wake-ups came late (docs/PERFORMANCE.md).

Because each ``query_batch`` captures one table view, a concurrent
:meth:`DistanceOracle.refresh` from another task or thread is safe by
construction: batches that started before the swap finish on the old
epoch, batches that start after it see the new one, and nothing in
between.  A stream that a refresh crosses answers its earlier batches
on the old epoch and its later ones on the new.

>>> async with AsyncFrontend(oracle) as fe:
...     d = await fe.distance(0, 5)
...     route = await fe.path(0, 5)
...     answers = await fe.serve(workload)     # one pool job
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, List, Optional, Tuple

from ..core.routing import Route
from .oracle import DistanceOracle
from .workload import Query


class AsyncFrontend:
    """Async facade: awaitable ``distance``/``path`` plus stream serving.

    ``max_workers`` sizes the thread pool.  One worker serves
    everything; a second lets a :meth:`refresh` run beside a stream or
    a point chunk instead of queueing behind it.  Under the GIL more
    workers add no read throughput.  ``max_batch`` caps how many
    pending point queries one executor trip coalesces.
    """

    def __init__(self, oracle: DistanceOracle, *, max_workers: int = 2,
                 max_batch: int = 256) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.oracle = oracle
        self.max_batch = max_batch
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve")
        self._pending: List[Tuple[Query, "asyncio.Future[Any]"]] = []
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        self._closed = True
        if self._flusher is not None:
            await asyncio.gather(self._flusher, return_exceptions=True)
        await self._flush()
        self._pool.shutdown(wait=True)

    def close(self) -> None:
        """Synchronous shutdown (for non-async owners); pending point
        queries must already be awaited."""
        self._closed = True
        self._pool.shutdown(wait=True)

    # -- point queries (micro-batched) --------------------------------

    def _submit(self, query: Query) -> "asyncio.Future[Any]":
        if self._closed:
            raise RuntimeError("frontend is closed")
        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[Any]" = loop.create_future()
        self._pending.append((query, fut))
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush())
        return fut

    async def _flush(self) -> None:
        loop = asyncio.get_running_loop()
        while self._pending:
            chunk = self._pending[:self.max_batch]
            del self._pending[:len(chunk)]
            queries = [q for q, _ in chunk]
            try:
                answers = await loop.run_in_executor(
                    self._pool, self.oracle.query_batch, queries)
            except Exception:
                # One bad query fails its whole batch: answer each query
                # alone, in one more trip, so only its own future fails.
                outcomes = await loop.run_in_executor(
                    self._pool, self._answer_each, queries)
            else:
                outcomes = [(ans, None) for ans in answers]
            for (_, fut), (ans, exc) in zip(chunk, outcomes):
                if fut.done():
                    continue
                if exc is None:
                    fut.set_result(ans)
                else:
                    fut.set_exception(exc)

    def _answer_each(self, queries: List[Query]
                     ) -> List[Tuple[Any, Optional[Exception]]]:
        """Each query as its own batch: ``(answer, None)``, or
        ``(None, exc)`` for a query that raised."""
        outcomes: List[Tuple[Any, Optional[Exception]]] = []
        for q in queries:
            try:
                outcomes.append((self.oracle.query_batch([q])[0], None))
            except Exception as exc:
                outcomes.append((None, exc))
        return outcomes

    async def distance(self, u: int, v: int) -> float:
        """Awaitable shortest-path distance (``inf`` if unreachable)."""
        return await self._submit(Query(u, v, "distance"))

    async def path(self, u: int, v: int) -> Optional[Route]:
        """Awaitable full route (``None`` if unreachable)."""
        return await self._submit(Query(u, v, "path"))

    # -- stream serving -----------------------------------------------

    async def serve(self, queries: Iterable[Query], *,
                    batch_size: int = 256) -> List[Any]:
        """Serve a whole stream as one pool job:
        :meth:`DistanceOracle.serve` answers it one ``query_batch`` per
        *batch_size* chunk, in stream order."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool,
            lambda: self.oracle.serve(queries, batch_size=batch_size))

    async def refresh(self, *events: Any):
        """Run a table refresh on the pool (epoch swap is atomic, so
        queries in flight are unaffected)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, lambda: self.oracle.refresh(*events))


def serve_stream(oracle: DistanceOracle, queries: Iterable[Query], *,
                 batch_size: int = 256) -> List[Any]:
    """Synchronous convenience: spin an event loop, serve *queries*
    through an :class:`AsyncFrontend`, return the answers."""

    async def _run() -> List[Any]:
        async with AsyncFrontend(oracle) as fe:
            return await fe.serve(queries, batch_size=batch_size)

    return asyncio.run(_run())


__all__ = ["AsyncFrontend", "serve_stream"]
