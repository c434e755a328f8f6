"""Micro-batching: coalesce concurrent trace estimations per model.

Trace-based estimation of a short request is dominated by fixed Python
overhead (argument checking, classification setup), not by numpy work.
The :class:`MicroBatcher` therefore queues each incoming
``estimate_from_bits`` request and coalesces every concurrent request
*for the same model* into one
:meth:`~repro.core.estimator.PowerEstimator.estimate_batch_from_bits`
call — a single vectorized classification pass whose per-request results
match direct calls to floating-point summation order (the batch API
drops the spurious boundary cycles, see the estimator docstring).

A batch is flushed by whichever trigger fires first:

* **size** — ``max_batch`` requests are waiting;
* **timeout** — the oldest request has waited ``max_wait``.  The default
  window is zero: the flush runs at the end of the event-loop tick in
  which the first request arrived, so requests that arrive in the same
  tick coalesce and a lone request never sits idle.  A positive window
  holds the batch open that many seconds longer, trading latency for
  bigger batches;
* **drain** — the server is shutting down.

Analytic endpoints (distribution / DBT statistics) never enter the queue:
they are O(m) dot products, cheaper than the batching latency itself, so
:meth:`estimate_distribution` and :meth:`estimate_analytic` are direct
fast paths.

The numpy work of a flush runs in an executor thread, so the event loop
keeps accepting requests while a batch computes.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.estimator import EstimationResult
from ..obs import tracing
from ..obs.events import EVENTS
from ..stats.wordstats import WordStats
from .metrics import ServeMetrics
from .registry import ServedModel

#: Default flush bounds: 64 requests, or the end of the loop tick in
#: which the first request of the batch arrived (a zero window).
DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_WAIT = 0.0


class _Pending:
    """One queued request: its bit matrix, the caller's future and the
    loop time it was queued at."""

    __slots__ = ("bits", "future", "enqueued")

    def __init__(
        self, bits: np.ndarray, future: "asyncio.Future", enqueued: float
    ):
        self.bits = bits
        self.future = future
        self.enqueued = enqueued


class _ModelQueue:
    """Per-model pending batch plus its scheduled timeout flush."""

    __slots__ = ("served", "pending", "timer")

    def __init__(self, served: ServedModel):
        self.served = served
        self.pending: List[_Pending] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class MicroBatcher:
    """Coalesces per-model trace estimations into vectorized batches.

    Args:
        executor: Where flush computations run; ``None`` uses the event
            loop's default executor.
        max_batch: Flush as soon as this many requests are queued
            (``1`` disables coalescing — the unbatched baseline the
            benchmark compares against).
        max_wait: Maximum seconds the oldest request waits before a
            timeout flush; ``0`` (the default) flushes at the end of the
            current event-loop tick.
        metrics: Shared :class:`ServeMetrics`; a private set by default.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait: float = DEFAULT_MAX_WAIT,
        metrics: Optional[ServeMetrics] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self.executor = executor
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._queues: Dict[Tuple[str, int, bool, str], _ModelQueue] = {}

    # ------------------------------------------------------------------
    # Batched trace path
    # ------------------------------------------------------------------
    async def estimate_bits(
        self, served: ServedModel, bits: np.ndarray
    ) -> EstimationResult:
        """Queue one trace estimation; resolves when its batch flushes."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = (served.kind, served.width, served.enhanced, served.source)
        queue = self._queues.get(key)
        if queue is None:
            queue = _ModelQueue(served)
            self._queues[key] = queue
        queue.pending.append(_Pending(bits, future, loop.time()))
        if len(queue.pending) >= self.max_batch:
            self._flush(key, "size")
        elif queue.timer is None:
            queue.timer = loop.call_later(
                self.max_wait, self._flush, key, "timeout"
            )
        return await future

    async def estimate_streams(
        self, served: ServedModel, words: Sequence[Sequence[int]]
    ) -> EstimationResult:
        """Trace estimation from per-operand signed word lists.

        The words are packed to the module bit matrix inline (cheap) and
        the result rides the same batched bits path.
        """
        bits = streams_to_bits(served.module, words)
        return await self.estimate_bits(served, bits)

    def _flush(self, key: Tuple[str, int, bool, str], reason: str) -> None:
        queue = self._queues.get(key)
        if queue is None or not queue.pending:
            return
        if queue.timer is not None:
            queue.timer.cancel()
            queue.timer = None
        batch = queue.pending
        queue.pending = []
        self.metrics.batch_flush_total.inc(reason=reason)
        self.metrics.batch_size.observe(len(batch))
        loop = asyncio.get_running_loop()
        now = loop.time()
        for pending in batch:
            self.metrics.batch_wait_seconds.observe(now - pending.enqueued)
        # Executor threads do not inherit contextvars — tracing.wrap
        # captures the flusher's context (size-triggered flushes run in
        # the requester's context, timeout flushes in the loop's) so the
        # batch.flush span lands in the active trace, if any.
        task = loop.run_in_executor(
            self.executor,
            tracing.wrap(
                self._compute, queue.served, [p.bits for p in batch], reason
            ),
        )
        task.add_done_callback(
            lambda done, batch=batch: self._deliver(done, batch)
        )

    def _compute(
        self, served: ServedModel, matrices: List[np.ndarray],
        reason: str = "size",
    ) -> List[EstimationResult]:
        with tracing.span(
            "batch.flush", model=served.name, size=len(matrices),
            reason=reason,
        ):
            results = served.estimator.estimate_batch_from_bits(matrices)
        cycles = sum(max(m.shape[0] - 1, 0) for m in matrices)
        EVENTS.batch_cycles.inc(cycles)
        EVENTS.batch_requests.inc(len(matrices))
        return results

    @staticmethod
    def _deliver(done: "asyncio.Future", batch: List[_Pending]) -> None:
        error = done.exception()
        if error is not None:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        for pending, result in zip(batch, done.result()):
            if not pending.future.done():
                pending.future.set_result(result)

    # ------------------------------------------------------------------
    # Direct (analytic) fast paths — no queueing
    # ------------------------------------------------------------------
    def estimate_distribution(
        self, served: ServedModel, distribution: Sequence[float]
    ) -> EstimationResult:
        """Distribution-based estimation (Section 6.3): one dot product."""
        pmf = np.asarray(distribution, dtype=np.float64)
        return served.estimator.estimate_from_distribution(pmf)

    def estimate_analytic(
        self,
        served: ServedModel,
        operand_stats: Sequence[Dict[str, float]],
        use_distribution: bool = True,
    ) -> EstimationResult:
        """Fully analytic estimation from (μ, σ², ρ) word statistics.

        Builds the Eq. 18 DBT Hamming-distance distribution per operand —
        no simulation, no bit patterns.
        """
        stats = [
            WordStats(
                mean=float(s["mean"]),
                variance=float(s["variance"]),
                rho=float(s.get("rho", 0.0)),
            )
            for s in operand_stats
        ]
        return served.estimator.estimate_analytic(
            served.module, stats, use_distribution=use_distribution
        )

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush every pending batch immediately (server shutdown)."""
        for key in list(self._queues):
            self._flush(key, "drain")
        # Yield so executor callbacks can deliver before the loop closes.
        await asyncio.sleep(0)

    @property
    def pending_requests(self) -> int:
        return sum(len(q.pending) for q in self._queues.values())


def streams_to_bits(
    module, words: Sequence[Sequence[int]]
) -> np.ndarray:
    """Pack per-operand signed word lists into the module bit matrix.

    Args:
        module: Target :class:`DatapathModule`.
        words: One list of signed integers per operand, equal lengths.
    """
    from ..signals.streams import PatternStream, module_stimulus

    if len(words) != module.n_operands:
        raise ValueError(
            f"{module.kind} has {module.n_operands} operands, "
            f"got {len(words)} word lists"
        )
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise ValueError("operand word lists must have equal lengths")
    streams = [
        PatternStream(
            np.asarray(operand_words, dtype=np.int64), width, name=name
        )
        for (name, width), operand_words in zip(module.operand_specs, words)
    ]
    return module_stimulus(module, streams)
