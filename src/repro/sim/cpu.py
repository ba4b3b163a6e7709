"""CPU resource model.

Mini-RAID ran every database site as a process on *one* processor, so all
site processing and inter-process communication serialized on a single CPU.
That serialization is visible in the paper's numbers (a four-site commit
costs roughly the sum of everyone's work).  :class:`CpuResource` reproduces
it: a piece of work submitted while the CPU is busy starts when the CPU
frees up.

Setting ``cores`` to the number of sites models the "complete RAID" future
work where each site has its own machine.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import Callable

from repro.errors import SimulationError
from repro.sim.scheduler import EventScheduler


class CpuResource:
    """A bank of ``cores`` FIFO processors shared by the whole system.

    Work items run to completion (no preemption), matching the paper's
    serial, run-to-completion processing.
    """

    def __init__(self, scheduler: EventScheduler, cores: int = 1) -> None:
        if cores < 1:
            raise SimulationError(f"need at least one core, got {cores}")
        self._scheduler = scheduler
        # Earliest time each core becomes free, kept as a min-heap: the
        # root is the core the next piece of work lands on.  Cores with
        # equal free times are interchangeable, so only the multiset of
        # free times matters, and the heap evolves it exactly as a scan
        # for the first least-loaded core would.
        self._free_at = [0.0] * cores
        self.busy_ms = 0.0
        self.jobs = 0

    @property
    def cores(self) -> int:
        return len(self._free_at)

    def execute(
        self,
        duration: float,
        on_done: Callable[..., None],
        label: str = "",
        args: tuple = (),
    ) -> float:
        """Run ``duration`` ms of work on the least-loaded core.

        ``on_done(*args)`` fires when the work completes.  Returns the
        absolute completion time.  ``Network._finish_activation`` inlines
        this body (one runs per activation); keep the two in step.
        """
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        free_at = self._free_at
        start = free_at[0]
        now = self._scheduler.clock._now
        if now > start:
            start = now
        done = start + duration
        heapreplace(free_at, done)
        self.busy_ms += duration
        self.jobs += 1
        self._scheduler.post_at(done, on_done, args)
        return done

    def __repr__(self) -> str:
        return f"CpuResource(cores={self.cores}, jobs={self.jobs}, busy={self.busy_ms:.1f}ms)"
