"""The asyncio front door: admission batching over the serving tier.

The paper's multiple-query optimization (§7) amortizes work across a
*batch* of queries — but production load arrives one request at a time.
The front door converts load into batches at admission: the first goal
of a shape opens a window of a few milliseconds; every same-shape goal
arriving inside the window joins the bucket; when the window closes the
whole bucket executes as **one** ``ask_many`` on one worker, riding the
PR 4 ``IN (VALUES …)`` parameter-batch / PR 5 batch-seeded recursive
CTE fast path.  The busier the system, the fuller the buckets — load
itself buys the amortization.

All bucket state is touched only from the event loop thread, so the
front door needs no locks; the blocking tier dispatch runs in the
loop's default executor.  Goals carrying an explicit ``deadline=``
bypass coalescing: one goal's budget must not gate a stranger's batch.
"""

from __future__ import annotations

from typing import Optional

from ..coupling.global_opt import goal_shape
from ..prolog.reader import parse_goal


class FrontDoor:
    """Coalesces same-shape asks into batched ``ask_many`` dispatches."""

    def __init__(
        self,
        tier,
        window_seconds: float = 0.003,
        max_batch: int = 64,
    ):
        self.tier = tier
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        #: shape key -> list of (future, goal text) awaiting the window.
        self._buckets: dict = {}
        self.stats = {
            "goals": 0,
            "batches": 0,
            "batched_goals": 0,
            "solo_dispatches": 0,
            "max_batch_size": 0,
        }

    async def ask(
        self,
        goal,
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list:
        """Answer one goal, coalescing it with same-shape contemporaries."""
        # Imported where a running event loop has loaded it already: a
        # process that never serves through here skips asyncio and ssl.
        import asyncio

        loop = asyncio.get_running_loop()
        self.stats["goals"] += 1
        term = parse_goal(goal) if isinstance(goal, str) else goal
        shape = goal_shape(term)
        if deadline is not None or shape is None:
            # Deadline-carrying goals keep their own budget; shapeless
            # goals (not batchable anyway) go straight through too.
            self.stats["solo_dispatches"] += 1
            return await loop.run_in_executor(
                None, self.tier.ask, term, max_solutions, deadline
            )
        key = (shape.key, max_solutions)
        future = loop.create_future()
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = []
            loop.create_task(self._close_window(key, bucket))
        bucket.append((future, term))
        if len(bucket) >= self.max_batch:
            self._flush(key)
        return await future

    async def _close_window(self, key, bucket) -> None:
        # The bucket's identity is its epoch: if the max-batch path
        # already flushed this window and a fresh bucket opened under
        # the same key, this stale timer must not cut the new window
        # short — the new bucket's own timer is pending.
        import asyncio

        await asyncio.sleep(self.window_seconds)
        if self._buckets.get(key) is bucket:
            self._flush(key)

    def _flush(self, key) -> None:
        bucket = self._buckets.pop(key, None)
        if not bucket:
            return  # the max-batch path already flushed this window
        import asyncio

        loop = asyncio.get_running_loop()
        max_solutions = key[1]
        goals = [goal for _, goal in bucket]
        futures = [future for future, _ in bucket]
        if len(goals) == 1:
            self.stats["solo_dispatches"] += 1
            dispatched = loop.run_in_executor(
                None, self.tier.ask, goals[0], max_solutions
            )
        else:
            self.stats["batches"] += 1
            self.stats["batched_goals"] += len(goals)
            self.stats["max_batch_size"] = max(
                self.stats["max_batch_size"], len(goals)
            )
            dispatched = loop.run_in_executor(
                None, self.tier.ask_many, goals, max_solutions
            )
        loop.create_task(self._demux(dispatched, futures, len(goals) > 1))

    @staticmethod
    async def _demux(dispatched, futures, batched: bool) -> None:
        """Fan one tier result (or error) back out to the waiting askers."""
        try:
            answers = await dispatched
        except Exception as error:  # noqa: BLE001 - every asker must resolve
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        if not batched:
            if not futures[0].done():
                futures[0].set_result(answers)
            return
        for future, per_goal in zip(futures, answers):
            if not future.done():
                future.set_result(per_goal)
