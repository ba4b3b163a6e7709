"""InteractiveDriver and the console shell."""

import io

import pytest

from repro.errors import ConfigurationError
from repro.console import MiniRaidConsole
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.interactive import InteractiveDriver
from repro.txn.operations import OpKind, Operation


@pytest.fixture
def driver() -> InteractiveDriver:
    config = SystemConfig(db_size=8, num_sites=3, max_txn_size=3, seed=5)
    return InteractiveDriver(Cluster(config))


def test_submit_single_txn(driver):
    record = driver.submit_txn()
    assert record.committed
    assert record.seq == 1
    assert len(driver.metrics.txns) == 1


def test_submit_to_specific_site(driver):
    record = driver.submit_txn(site=2)
    assert record.coordinator == 2


def test_submit_explicit_ops(driver):
    """Explicit operations go through ``ControlPlane.submit``, the call
    every driver makes."""
    ops = [Operation(OpKind.WRITE, 3), Operation(OpKind.READ, 3)]
    driver.cluster.network.spawn(driver, lambda ctx: driver.submit(ctx, 1, ops, 0, 1))
    driver.cluster.scheduler.run()
    assert driver.metrics.txns[-1].committed
    assert driver.cluster.site(1).db.version(3) == 1


def test_fail_and_recover_cycle(driver):
    driver.fail_site(1)
    assert driver.up_sites == [0, 2]
    for _ in range(8):
        driver.submit_txn()
    stale_before = driver.cluster.faillock_counts()[1]
    assert stale_before > 0
    driver.recover_site(1)
    assert driver.up_sites == [0, 1, 2]
    assert driver.cluster.site(1).nsv.my_session == 2


def test_submit_to_down_site_rejected(driver):
    driver.fail_site(0)
    with pytest.raises(ConfigurationError):
        driver.submit_txn(site=0)


def test_double_fail_rejected(driver):
    driver.fail_site(0)
    with pytest.raises(ConfigurationError):
        driver.fail_site(0)


def test_recover_up_site_rejected(driver):
    with pytest.raises(ConfigurationError):
        driver.recover_site(0)


def test_status_rows(driver):
    driver.fail_site(2)
    rows = driver.status()
    assert [r["site"] for r in rows] == [0, 1, 2]
    assert rows[2]["alive"] is False


def test_chart_renders_after_txns(driver):
    driver.run_txns(3)
    assert "site 0" in driver.chart()


# -- console shell ------------------------------------------------------------------


def console(driver):
    out = io.StringIO()
    shell = MiniRaidConsole(driver, stdout=out)
    return shell, out


def test_console_txn_and_status(driver):
    shell, out = console(driver)
    shell.onecmd("txn 1")
    shell.onecmd("status")
    text = out.getvalue()
    assert "txn 1 @ site 1: committed" in text
    assert "site 0: up" in text


def test_console_fail_run_recover_audit(driver):
    shell, out = console(driver)
    shell.onecmd("fail 0")
    shell.onecmd("run 5")
    shell.onecmd("recover 0")
    shell.onecmd("locks")
    shell.onecmd("audit")
    text = out.getvalue()
    assert "site 0 is down" in text
    assert "5/5 committed" in text
    assert "site 0 is up" in text
    assert "consistent" in text


def test_console_error_paths(driver):
    shell, out = console(driver)
    shell.onecmd("fail")          # missing argument
    shell.onecmd("fail x")        # not a number
    shell.onecmd("recover 0")     # already up
    text = out.getvalue()
    assert "usage: fail" in text
    assert "not a number" in text
    assert "error:" in text


def test_console_stats_and_quit(driver):
    shell, out = console(driver)
    shell.onecmd("txn")
    shell.onecmd("stats")
    assert shell.onecmd("quit") is True
    assert "commits: 1" in out.getvalue()
