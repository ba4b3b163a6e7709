"""CpuResource: serialization on one core, parallelism on many."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.network import Network
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler


def test_single_core_serializes_work():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    done = []
    cpu.execute(10.0, lambda: done.append(sched.now))
    cpu.execute(5.0, lambda: done.append(sched.now))
    sched.run()
    # Second job starts only when the first completes: 10 then 15.
    assert done == [10.0, 15.0]


def test_two_cores_run_in_parallel():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=2)
    done = []
    cpu.execute(10.0, lambda: done.append(sched.now))
    cpu.execute(5.0, lambda: done.append(sched.now))
    sched.run()
    assert sorted(done) == [5.0, 10.0]


def test_work_submitted_later_starts_at_now():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    done = []
    sched.schedule(100.0, lambda: cpu.execute(1.0, lambda: done.append(sched.now)))
    sched.run()
    assert done == [101.0]


def test_zero_duration_work_completes_immediately():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    done = []
    cpu.execute(0.0, lambda: done.append(sched.now))
    sched.run()
    assert done == [0.0]


def test_rejects_negative_duration():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    with pytest.raises(SimulationError):
        cpu.execute(-1.0, lambda: None)


def test_rejects_zero_cores():
    with pytest.raises(SimulationError):
        CpuResource(EventScheduler(), cores=0)


def test_accounting():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    cpu.execute(3.0, lambda: None)
    cpu.execute(4.0, lambda: None)
    sched.run()
    assert cpu.busy_ms == 7.0
    assert cpu.jobs == 2
    assert cpu.busy_ms == sched.now  # busy the whole run


def test_utilization_with_idle_time():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=1)
    sched.schedule(90.0, lambda: cpu.execute(10.0, lambda: None))
    sched.run()
    assert cpu.busy_ms / sched.now == pytest.approx(0.1)


def test_least_loaded_core_chosen():
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=2)
    done = []
    cpu.execute(10.0, lambda: done.append(("long", sched.now)))
    cpu.execute(1.0, lambda: done.append(("short1", sched.now)))
    cpu.execute(1.0, lambda: done.append(("short2", sched.now)))
    sched.run()
    # The third job lands on the core freed at t=1, not behind the 10ms job.
    assert ("short2", 2.0) in done


# -- the heap-ordered bank against the list it replaced ------------------------


def reference_bank(cores, jobs):
    """The list-based bank: each job takes the first least-loaded core.
    Also counts the jobs that found several cores tied for least loaded."""
    free_at = [0.0] * cores
    starts, dones = [], []
    busy_ms = 0.0
    ties = 0
    for now, duration in jobs:
        ties += free_at.count(min(free_at)) > 1
        core = free_at.index(min(free_at))
        start = free_at[core]
        if now > start:
            start = now
        done = start + duration
        free_at[core] = done
        busy_ms += duration
        starts.append(start)
        dones.append(done)
    return starts, dones, busy_ms, len(jobs), sorted(free_at), ties


def job_stream(seed, count=400):
    """``(submit time, duration)`` pairs, submit times non-decreasing.

    Small multiples of 0.5 make equal free times common, and keep every
    sum exact, so ``done - duration`` recovers a job's start bit for bit.
    """
    rng = random.Random(seed)
    now = 0.0
    jobs = []
    for _ in range(count):
        now += rng.choice((0.0, 0.0, 0.0, 0.5, 1.0, 2.5))
        jobs.append((now, rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 4.5))))
    return jobs


def run_execute(cores, jobs):
    """``jobs`` through ``CpuResource.execute``, each submitted at its time."""
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=cores)
    dones = [None] * len(jobs)

    def submit(index, duration):
        dones[index] = cpu.execute(duration, lambda: None)

    for index, (now, duration) in enumerate(jobs):
        sched.post_at(now, submit, (index, duration))
    sched.run()
    return dones, cpu


class _Idle(Endpoint):
    def handle(self, ctx, msg):  # pragma: no cover - never sent anything
        raise AssertionError(msg)


def run_activations(cores, jobs):
    """``jobs`` as activations through ``Network._finish_activation``; a
    job's done time is when its release runs."""
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=cores)
    network = Network(sched, cpu)
    endpoint = _Idle(0)
    network.register(endpoint)
    dones = [None] * len(jobs)

    def submit(index, duration):
        ctx = HandlerContext(network, endpoint, duration)
        ctx.on_done(lambda: dones.__setitem__(index, sched.now))
        network._finish_activation(ctx)

    for index, (now, duration) in enumerate(jobs):
        sched.post_at(now, submit, (index, duration))
    sched.run()
    return dones, cpu


@pytest.mark.parametrize("cores", range(1, 7))
@pytest.mark.parametrize("seed", range(5))
def test_heap_bank_matches_the_list_bank(cores, seed):
    jobs = job_stream(1000 * cores + seed)
    starts, dones, busy_ms, count, free_at, ties = reference_bank(cores, jobs)
    # Cores tied for least loaded are common, not an edge case.
    assert cores == 1 or ties > len(jobs) // 20
    for run in (run_execute, run_activations):
        got, cpu = run(cores, jobs)
        assert got == dones
        assert [done - d for done, (_now, d) in zip(got, jobs)] == starts
        assert (cpu.busy_ms, cpu.jobs) == (busy_ms, count)
        assert sorted(cpu._free_at) == free_at


@pytest.mark.parametrize("cores", range(1, 7))
@pytest.mark.parametrize("seed", range(3))
def test_a_zero_length_job_moves_no_later_start(cores, seed):
    """A zero-length job lands on the least-loaded core and leaves it free
    at ``max(its free time, now)``; every core free by ``now`` is as good
    as any other for work submitted from ``now`` on.  So inserting one
    anywhere changes no other job's start — which is why
    ``Network._finish_activation`` may skip an activation with no cost and
    no output."""
    jobs = job_stream(2000 * cores + seed)
    base, _cpu = run_execute(cores, jobs)
    rng = random.Random(seed)
    for at in sorted(rng.sample(range(len(jobs) + 1), 15)):
        now = jobs[at - 1][0] if at else 0.0
        got, _cpu = run_execute(cores, jobs[:at] + [(now, 0.0)] + jobs[at:])
        assert got[:at] + got[at + 1:] == base
