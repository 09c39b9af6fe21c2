"""Remap watches: the daemon's background drift → remap-decision loops.

One :class:`RemapWatch` per ``POST /v1/remap/watch`` registration: a
:class:`~repro.remap.loop.RemapLoop` (the whole remap state) plus the
daemon's schedule for it, a strictly sequential tick chain.  A tick
refreshes the snapshot and calls ``RemapLoop.step``; this module adds
the decision document, the log line and adoption at the tick's logical
time.  :class:`RemapWatches` owns the registry, the loops and the
bounded ring of decision documents.  See ``docs/REMAPPING.md``.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass, field

from repro import telemetry
from repro.core.mapping import TaskMapping
from repro.core.service import CBES
from repro.remap.drift import DRIFT_EVENTS_TOTAL, DriftWatcher
from repro.remap.loop import RemapLoop
from repro.remap.remapper import DECISIONS_TOTAL, MIGRATION_SECONDS_TOTAL, Remapper
from repro.server.execution import JobRunner
from repro.server.protocol import ApiError

__all__ = ["MAX_DECISIONS", "RemapWatch", "RemapWatches"]

log = logging.getLogger("repro.server.watches")

#: Retained remap decision documents, and retained finished watches
#: (oldest dropped beyond this; running watches are always kept).
MAX_DECISIONS = 256

#: Wire order of a watch document's fields.
_WATCH_FIELDS = (
    "id", "app", "mapping", "pool", "interval_s", "max_ticks", "seed",
    "baseline_s", "ticks", "drift_events", "proposals", "remaps", "done",
)


@dataclass
class RemapWatch:
    """One ``POST /v1/remap/watch`` registration: a loop and its schedule.

    Mutated only from the watch's own (strictly sequential) tick chain,
    so no lock is needed; the listing endpoint reads a point-in-time
    view of plain ints/floats.  A daemon watch has no progress signal,
    so its loop steps at ``fraction_remaining=1.0`` (whole-run scale);
    callers with progress knowledge should drive a ``RemapLoop`` directly.
    """

    id: str
    app: str
    loop: RemapLoop
    interval_s: float
    max_ticks: int | None
    ticks: int = 0
    done: bool = False
    task: asyncio.Task | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        doc = self.loop.to_dict()
        doc.update(
            id=self.id,
            app=self.app,
            interval_s=self.interval_s,
            max_ticks=self.max_ticks,
            ticks=self.ticks,
            done=self.done,
        )
        return {key: doc[key] for key in _WATCH_FIELDS}


class RemapWatches:
    """The daemon's remap watches and the decisions they produced.

    Ticks borrow the *runner*'s serving snapshot (polled and adopted
    before each one), evaluation-context cache and worker threads.
    """

    def __init__(
        self, service: CBES, runner: JobRunner, metrics: telemetry.MetricsRegistry
    ) -> None:
        self._service = service
        self._runner = runner
        self._watches: dict[str, RemapWatch] = {}
        self._seq = 0
        #: Remap decision documents, oldest first, capped at MAX_DECISIONS.
        self._decisions: list[dict] = []
        self._decision_lock = threading.Lock()
        # Remap families are incremented by repro.remap through the
        # ambient registry; declaring them here (same name/help) makes
        # them visible at /v1/metrics from the first scrape.
        metrics.counter(*DRIFT_EVENTS_TOTAL)
        metrics.counter(*DECISIONS_TOTAL)
        metrics.counter(*MIGRATION_SECONDS_TOTAL)
        metrics.gauge(
            "cbes_remap_watches",
            "Listed remap watches (running, plus retained finished ones).",
            callback=lambda: len(self._watches),
        )

    def __len__(self) -> int:
        return len(self._watches)

    def to_dicts(self) -> list[dict]:
        """Running watches and the retained finished ones, oldest first."""
        return [watch.to_dict() for watch in self._watches.values()]

    @property
    def decision_count(self) -> int:
        return len(self._decisions)

    def decisions(self, limit: int | None = None) -> list[dict]:
        """Retained decision documents, oldest first; the last *limit* if given."""
        with self._decision_lock:
            decisions = list(self._decisions)
        if limit is not None:
            decisions = decisions[-limit:] if limit > 0 else []
        return decisions

    def create(self, doc: dict) -> RemapWatch:
        """Register a watch from a validated request and start its loop."""
        mapping = TaskMapping(doc["mapping"])
        evaluator = self._service.evaluator(doc["app"], snapshot=self._runner.snapshot)
        try:
            baseline_s = evaluator.execution_time(mapping)
        except Exception as exc:  # e.g. rank count != profiled nprocs
            raise ApiError(400, "bad-request", f"mapping rejected: {exc}") from None
        self._seq += 1
        watch = RemapWatch(
            id=f"w{self._seq:04d}",
            app=doc["app"],
            loop=RemapLoop(
                mapping=mapping,
                baseline_s=baseline_s,
                watcher=DriftWatcher(
                    threshold=doc["threshold"],
                    hysteresis=doc["hysteresis"],
                    cooldown_s=doc["cooldown_s"],
                ),
                remapper=Remapper(safety_factor=doc["safety_factor"]),
                pool=tuple(doc["pool"]) if doc["pool"] is not None else None,
                seed=doc["seed"],
            ),
            interval_s=doc["interval_s"],
            max_ticks=doc["max_ticks"],
        )
        self._watches[watch.id] = watch
        watch.task = asyncio.get_running_loop().create_task(
            self._loop(watch), name=f"cbes-remap-{watch.id}"
        )
        log.info(
            "remap watch %s registered (app=%s interval=%.2fs baseline=%.2fs)",
            watch.id,
            watch.app,
            watch.interval_s,
            baseline_s,
        )
        return watch

    async def stop(self) -> None:
        """Cancel every watch loop and wait for them to unwind."""
        tasks = [w.task for w in self._watches.values() if w.task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _loop(self, watch: RemapWatch) -> None:
        """Drive one watch: refresh the snapshot, then tick, repeat.

        Ticks are awaited one at a time, so a watch never has two
        proposals in flight — drift arriving while a remap decision is
        being computed is simply observed on the next tick, against the
        already-adopted mapping.
        """
        loop = asyncio.get_running_loop()
        while not watch.done:
            await asyncio.sleep(watch.interval_s)
            watch.ticks += 1
            try:
                snapshot = await loop.run_in_executor(None, self._runner.poll_snapshot)
                self._runner.adopt_snapshot(snapshot)
                await self._runner.run_in_executor(self._tick, watch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - keep the watch alive
                log.warning("remap watch %s tick failed: %s", watch.id, exc)
            if watch.max_ticks is not None and watch.ticks >= watch.max_ticks:
                watch.done = True
                self._forget_finished()
                log.info("remap watch %s finished after %d tick(s)", watch.id, watch.ticks)

    def _forget_finished(self) -> None:
        """Drop all but the newest ``MAX_DECISIONS`` finished watches."""
        finished = [watch.id for watch in self._watches.values() if watch.done]
        for watch_id in finished[:-MAX_DECISIONS]:
            del self._watches[watch_id]

    def _tick(self, watch: RemapWatch) -> None:
        """One monitoring tick, on a worker thread (CPU-bound search)."""
        snapshot, fingerprint = self._runner.serving  # one atomic read per tick
        evaluator = self._service.evaluator(watch.app, snapshot=snapshot)
        self._runner.context_for(watch.app, evaluator.options, fingerprint, evaluator)
        now_s = watch.ticks * watch.interval_s  # logical clock: deterministic
        fired = watch.loop.step(evaluator, now_s)
        if fired is None:
            return
        event, plan = fired
        doc = plan.to_dict()
        doc.update(
            watch_id=watch.id,
            app=watch.app,
            tick=watch.ticks,
            at_s=now_s,
            drift=round(event.degradation, 6),
            snapshot_fingerprint=fingerprint,
        )
        with self._decision_lock:
            self._decisions.append(doc)
            del self._decisions[:-MAX_DECISIONS]
        if plan.remap:
            # The daemon's clock does not pause for the migration.
            watch.loop.adopt(plan, evaluator, now_s)
        log.info(
            "remap watch %s tick %d: drift %.1f%% -> %s (savings %.2fs, cost %.2fs)",
            watch.id,
            watch.ticks,
            event.degradation * 100.0,
            "remap" if plan.remap else "stay",
            plan.savings_s,
            plan.migration_cost_s,
        )
