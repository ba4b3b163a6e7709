"""The soak engine end to end (repro.soak).

A short smoke soak covers the full path — load shape, fault injection,
streaming sink, report build/validate, byte-determinism.  The crash/REDO
unit tests pin the 2PC stable-log semantics the soak's consistency audit
depends on: a coordinator that crashed mid-phase-2 must replay its own
logged commit at recovery (see the `slow` regression at the bottom for
the schedule that catches it end to end).  The other `slow` test is the
memory-flatness gate: a 20x-longer soak must not use more memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.site.coordinator import CommitPhase, CoordinatorRole, CoordinatorState
from repro.soak import SoakConfig, run_soak
from repro.soak.report import build_report, render_soak_text, validate_soak_report
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.txn.transaction import Transaction


def smoke_config(**overrides) -> SoakConfig:
    base = dict(seed=3, txns=600, rate_tps=40.0)
    base.update(overrides)
    return SoakConfig(**base)


@pytest.fixture(scope="module")
def smoke_report() -> dict:
    return build_report(run_soak(smoke_config()))


# -- the smoke run ------------------------------------------------------------


def test_smoke_report_validates_clean(smoke_report):
    assert validate_soak_report(smoke_report) == []


def test_smoke_totals_are_consistent(smoke_report):
    totals = smoke_report["totals"]
    assert totals["txns"] == 600
    assert totals["commits"] + totals["aborts"] == totals["txns"]
    assert totals["lost"] > 0  # the crash stranded in-flight transactions
    assert totals["lost"] == smoke_report["fault"]["lost_txns"]
    # Lost transactions surface as coordinator_failed aborts.
    assert (
        totals["abort_reasons"].get("coordinator_failed", 0) >= totals["lost"]
    )


def test_smoke_shows_dip_and_recovery(smoke_report):
    """The report's headline claim: availability dips when the site
    fails and returns to the pre-fail baseline after recovery."""
    fault = smoke_report["fault"]
    availability = smoke_report["availability"]
    assert fault["failed_at_ms"] is not None
    assert fault["recover_done_ms"] > fault["recover_at_ms"]
    assert availability["baseline"] is not None
    assert availability["dip"] < availability["baseline"]
    assert fault["failed_at_ms"] <= availability["dip_t_ms"]
    assert availability["recovered"] is True
    assert availability["time_to_baseline_ms"] > 0


def test_smoke_windows_span_the_run(smoke_report):
    series = smoke_report["windows"]["series"]
    assert len(series) >= 8
    assert series[0]["t_ms"] == 0.0
    assert sum(w["arrivals"] for w in series) == 600
    # Gauge snapshots were taken at each window roll.
    assert any(w["in_flight"] > 0 for w in series)
    assert any(w["faillocks"] > 0 for w in series)  # while the site was down


def test_smoke_exemplars_are_sorted_and_bounded(smoke_report):
    exemplars = smoke_report["exemplars"]
    assert 0 < len(exemplars) <= smoke_report["config"]["exemplars"]
    txn_ids = [e["txn"] for e in exemplars]
    assert txn_ids == sorted(txn_ids)


def test_same_seed_is_byte_identical(smoke_report):
    again = build_report(run_soak(smoke_config()))
    assert json.dumps(again) == json.dumps(smoke_report)


def test_render_text_mentions_fault_and_charts(smoke_report):
    text = render_soak_text(smoke_report)
    assert "fault: site 2 failed" in text
    assert "availability per window" in text
    assert "latency p95 per window" in text
    assert "time (ms)" in text


def test_no_fault_run_has_no_dip_analysis():
    doc = build_report(run_soak(smoke_config(txns=200, fail_site=None)))
    assert validate_soak_report(doc) == []
    assert doc["fault"] is None
    assert doc["availability"]["baseline"] is None
    assert doc["availability"]["overall"] is not None


# -- config -------------------------------------------------------------------


def test_config_validation_rejects_bad_knobs():
    for bad in (
        dict(txns=0),
        dict(rate_tps=0.0),
        dict(window_ms=0.0),
        dict(max_windows=4),
        dict(exemplars=-1),
        dict(fail_site=9),
        dict(shape="sawtooth"),
        # Each name resolves up front, not once the cluster is built.
        dict(workload="hot-cold"),
        dict(detection="oracle"),
        dict(recovery_policy="bogus"),
    ):
        with pytest.raises(ConfigurationError):
            SoakConfig(**bad).validate()
    with pytest.raises(ConfigurationError):
        SoakConfig(workload="hot-cold").build_workload(
            SoakConfig().system_config()
        )
    with pytest.raises(ConfigurationError):
        SoakConfig(detection="oracle").system_config()


def test_benchmark_mixes_are_soak_selectable():
    from repro.workload.shapes import DebitCreditWorkload
    from repro.workload.wisconsin import WisconsinWorkload

    cfg = SoakConfig(workload="debitcredit")
    assert isinstance(cfg.build_workload(cfg.system_config()), DebitCreditWorkload)
    cfg = SoakConfig(workload="wisconsin", read_fraction=0.4)
    wisconsin = cfg.build_workload(cfg.system_config())
    assert isinstance(wisconsin, WisconsinWorkload)
    assert wisconsin.scan_fraction == 0.4


@pytest.mark.parametrize("workload", ["debitcredit", "wisconsin"])
def test_benchmark_mixes_deterministic(workload):
    config = smoke_config(txns=300, workload=workload)
    first = run_soak(config)
    assert first.txns > 0
    # Same seed, same config: the report (windows, exemplars, totals)
    # must replay byte-for-byte.
    assert build_report(run_soak(config)) == build_report(first)


def test_effective_window_widens_for_long_runs():
    short = SoakConfig(txns=600, rate_tps=40.0)
    assert short.effective_window_ms() == short.window_ms
    long_run = SoakConfig(txns=1_000_000, rate_tps=25.0, max_windows=240)
    est = long_run.estimated_duration_ms()
    widened = long_run.effective_window_ms()
    assert widened > long_run.window_ms
    assert est / widened <= 240


def test_fault_schedule_defaults_and_ordering():
    config = SoakConfig(txns=600, rate_tps=40.0)
    site, fail_at, recover_at = config.fault_schedule()
    assert site == config.fail_site
    assert 0 < fail_at < recover_at
    assert SoakConfig(fail_site=None).fault_schedule() is None
    with pytest.raises(ConfigurationError):
        SoakConfig(fail_at_ms=5000.0, recover_at_ms=4000.0).fault_schedule()


# -- coordinator crash log / REDO ---------------------------------------------


@pytest.fixture
def crashed_site():
    cluster = Cluster(SystemConfig(seed=1, num_sites=3, db_size=8))
    return cluster.sites[0]


def test_crash_logs_phase2_decisions_and_redo_replays_them(crashed_site):
    coordinator = crashed_site.coordinator
    db = crashed_site.db
    # Mid-phase-2: commit record is on the stable log (force-written
    # before the COMMITs went out), local apply had not happened yet.
    committing = CoordinatorState(
        txn=Transaction(txn_id=50, ops=[]),
        phase=CommitPhase.COMMITTING,
        updates=[(3, 555, db.version(3))],
        commit_version=7,
    )
    # Phase 1 and execution: presumed abort, nothing survives the crash.
    voting = CoordinatorState(
        txn=Transaction(txn_id=51, ops=[]),
        phase=CommitPhase.VOTING,
        updates=[(4, 666, db.version(4))],
        commit_version=8,
    )
    executing = CoordinatorState(txn=Transaction(txn_id=52, ops=[]))
    coordinator.active.update({50: committing, 51: voting, 52: executing})

    coordinator.crash_reset()
    assert coordinator.active == {50: committing}  # 51 and 52 dropped
    assert committing.phase is CommitPhase.RECOVERY
    assert coordinator.decisions.get(50) == ("committed", 7)
    assert 51 not in coordinator.decisions.outcomes
    assert 52 not in coordinator.decisions.outcomes
    assert db.version(3) < 7  # nothing applied yet: REDO is recovery's job

    coordinator.recover(SimpleNamespace(now=123.0))
    assert db.read(3) == 555
    assert db.version(3) == 7
    assert coordinator.active == {}


def test_redo_is_idempotent_against_newer_copies(crashed_site):
    """If a survivor's copier already refreshed the item past the logged
    version, REDO must not regress it (install_copy refuses)."""
    coordinator = crashed_site.coordinator
    db = crashed_site.db
    db.apply_writes(txn_id=90, updates=[(3, 999, 9)], time=50.0)
    coordinator.active[50] = CoordinatorState(
        txn=Transaction(txn_id=50, ops=[]),
        phase=CommitPhase.RECOVERY,
        updates=[(3, 555, -1)],
        commit_version=7,
    )
    coordinator.recover(SimpleNamespace(now=123.0))
    assert coordinator.active == {}
    assert db.read(3) == 999
    assert db.version(3) == 9


def test_decision_log_cap_evicts_oldest(crashed_site):
    coordinator = crashed_site.coordinator
    participant = crashed_site.participant
    for role in (coordinator, participant):
        role.decisions.cap = 4
        for txn_id in range(10):
            role.decisions.note(txn_id, ("committed", txn_id))
        assert len(role.decisions.outcomes) == 4
        assert sorted(role.decisions.outcomes) == [6, 7, 8, 9]  # newest survive
    # Unbounded (the experiments' default) keeps everything.
    coordinator.decisions.cap = None
    for txn_id in range(10, 40):
        coordinator.decisions.note(txn_id, ("aborted", -1))
    assert len(coordinator.decisions.outcomes) == 34


# -- the schedule that needs REDO, end to end ---------------------------------


@pytest.mark.slow
def test_redo_regression_seed42(monkeypatch):
    """seed=42/txns=2000 reliably crashes a coordinator mid-phase-2.
    Without the REDO pass over its RECOVERY states the run fails its
    consistency audit (the crashed coordinator's own copy goes stale with
    no fail-lock); with it, the run is clean.  The monkeypatched half proves the schedule
    still exercises the window — if it stops failing, the regression
    test has gone stale."""
    config = lambda: SoakConfig(seed=42, txns=2000)
    result = run_soak(config())
    assert validate_soak_report(build_report(result)) == []

    monkeypatch.setattr(CoordinatorRole, "recover", lambda self, ctx: None)
    with pytest.raises(SimulationError, match="consistency violated"):
        run_soak(config())


# -- memory flatness: a 20x-longer run must not use more memory ---------------

# Long-run peaks must stay within these factors of the short run's.
# Traced peak gets a slightly looser allowance: it resolves growth RSS
# can't see (so it is the gate that catches a reintroduced per-txn
# list: 8.1x traced, 1.3x RSS), but that same sharpness picks up bounded
# log-ish residue — quantile-sketch buckets widening with rare tail
# latencies, GC timing at peak — worth tolerating.
RSS_FLATNESS_RATIO = 1.5
TRACED_FLATNESS_RATIO = 1.75

# The short run must already be at memory steady state — every bounded
# structure (decision-log tails, redo-log windows, the windowed series)
# filled to its cap — or the comparison measures caps filling rather
# than growth.  With the cap below, steady state is reached well before
# SHORT_TXNS transactions.
SCALE = 20
SHORT_TXNS = 1000

# The soak default targets 240 series points; the children use a smaller
# target so even the short run saturates its series (the series is
# bounded by construction — the gate is about per-transaction state).
FLATNESS_MAX_WINDOWS = 48

# Runs one soak and prints its peaks as JSON.  Executed via ``python -c``
# so every measurement starts from a cold interpreter: ``ru_maxrss`` is a
# process-lifetime high-water mark, so measured in-process the long run
# would inherit the short run's (or vice versa).
_FLATNESS_CHILD = """\
import json, resource, sys, tracemalloc
from repro.soak import SoakConfig, run_soak

txns, seed, max_windows = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
tracemalloc.start()
result = run_soak(SoakConfig(seed=seed, txns=txns, max_windows=max_windows))
_, traced_peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({
    "txns": result.txns,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "traced_peak_kb": round(traced_peak / 1024.0, 1),
}))
"""


def _measure_soak_child(txns: int) -> dict:
    """Run one seed-42 soak in a fresh interpreter; return its memory peaks."""
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-c", _FLATNESS_CHILD, str(txns), "42",
         str(FLATNESS_MAX_WINDOWS)],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src_root, inherited))),
        },
    )
    assert proc.returncode == 0, (
        f"soak child ({txns} txns) failed:\n{proc.stderr.strip()}"
    )
    return json.loads(proc.stdout)


@pytest.mark.slow
def test_memory_stays_flat_over_20x_longer_run():
    """The soak engine's whole point is O(1)-memory streaming.  A truly
    O(n) structure (one TxnRecord retained per transaction in the sink)
    measures 8.1x traced; streaming aggregates land near 1.0."""
    short = _measure_soak_child(SHORT_TXNS)
    long_run = _measure_soak_child(SHORT_TXNS * SCALE)
    assert long_run["txns"] == short["txns"] * SCALE
    rss_ratio = long_run["peak_rss_kb"] / short["peak_rss_kb"]
    traced_ratio = long_run["traced_peak_kb"] / short["traced_peak_kb"]
    assert (
        rss_ratio <= RSS_FLATNESS_RATIO
        and traced_ratio <= TRACED_FLATNESS_RATIO
    ), (
        f"memory grew with run length: rss {short['peak_rss_kb']} -> "
        f"{long_run['peak_rss_kb']} kB (x{rss_ratio:.2f}, allowed "
        f"{RSS_FLATNESS_RATIO}), traced {short['traced_peak_kb']} -> "
        f"{long_run['traced_peak_kb']} kB (x{traced_ratio:.2f}, allowed "
        f"{TRACED_FLATNESS_RATIO})"
    )
