"""Interactive mini-RAID console — the paper's managing site, live.

Run ``python -m repro.console`` and poke the cluster by hand::

    mini-raid> fail 0
    mini-raid> run 20
    mini-raid> recover 0
    mini-raid> chart
    mini-raid> audit

This is the modern analogue of the paper's §1.2 managing site, which
"provide[d] interactive control of system actions".
"""

from __future__ import annotations

import cmd
import shlex

from repro.errors import ReproError
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.interactive import InteractiveDriver


class MiniRaidConsole(cmd.Cmd):
    """Command shell over an :class:`InteractiveDriver`."""

    intro = (
        "mini-RAID interactive managing site.  Type help or ? for commands.\n"
    )
    prompt = "mini-raid> "

    def __init__(self, driver: InteractiveDriver, **cmd_kwargs):
        super().__init__(**cmd_kwargs)
        self.driver = driver

    # -- helpers -----------------------------------------------------------------

    def _int_arg(self, arg: str, name: str) -> int | None:
        parts = shlex.split(arg)
        if not parts:
            self.stdout.write(f"usage: {name} <number>\n")
            return None
        try:
            return int(parts[0])
        except ValueError:
            self.stdout.write(f"not a number: {parts[0]}\n")
            return None

    # -- commands ------------------------------------------------------------------

    def do_txn(self, arg: str) -> None:
        """txn [site] — submit one random transaction (to SITE if given)."""
        site = None
        if arg.strip():
            site = self._int_arg(arg, "txn")
            if site is None:
                return
        try:
            record = self.driver.submit_txn(site=site)
        except ReproError as exc:
            self.stdout.write(f"error: {exc}\n")
            return
        outcome = "committed" if record.committed else (
            f"ABORTED ({record.abort_reason.value})"
        )
        self.stdout.write(
            f"txn {record.txn_id} @ site {record.coordinator}: {outcome}, "
            f"{record.size} ops, {record.coordinator_elapsed:.0f} ms"
            f"{', ' + str(record.copiers_requested) + ' copier(s)' if record.copiers_requested else ''}\n"
        )

    def do_run(self, arg: str) -> None:
        """run N — submit N random transactions."""
        count = self._int_arg(arg, "run")
        if count is None:
            return
        try:
            records = self.driver.run_txns(count)
        except ReproError as exc:
            self.stdout.write(f"error: {exc}\n")
            return
        commits = sum(1 for r in records if r.committed)
        self.stdout.write(f"{commits}/{count} committed\n")

    def do_fail(self, arg: str) -> None:
        """fail N — cause site N to fail."""
        site = self._int_arg(arg, "fail")
        if site is None:
            return
        try:
            self.driver.fail_site(site)
        except ReproError as exc:
            self.stdout.write(f"error: {exc}\n")
            return
        self.stdout.write(f"site {site} is down\n")

    def do_recover(self, arg: str) -> None:
        """recover N — bring site N back up (type-1 control transaction)."""
        site = self._int_arg(arg, "recover")
        if site is None:
            return
        try:
            self.driver.recover_site(site)
        except ReproError as exc:
            self.stdout.write(f"error: {exc}\n")
            return
        self.stdout.write(f"site {site} is up (recovering via fail-locks)\n")

    def do_status(self, arg: str) -> None:
        """status — per-site state, session number, stale-copy count."""
        for row in self.driver.status():
            state = "up  " if row["alive"] else "DOWN"
            self.stdout.write(
                f"site {row['site']}: {state} session={row['session']} "
                f"stale_copies={row['stale']}\n"
            )

    def do_locks(self, arg: str) -> None:
        """locks — fail-lock counts per site."""
        counts = self.driver.cluster.faillock_counts()
        for site, count in sorted(counts.items()):
            self.stdout.write(f"site {site}: {count} fail-locked copies\n")

    def do_chart(self, arg: str) -> None:
        """chart — ASCII chart of the fail-lock history."""
        self.stdout.write(self.driver.chart() + "\n")

    def do_audit(self, arg: str) -> None:
        """audit — check the replicated-copy consistency invariant."""
        problems = self.driver.cluster.audit_consistency()
        if problems:
            for p in problems:
                self.stdout.write(f"VIOLATION: {p}\n")
        else:
            self.stdout.write("consistent: fail-locks exactly track staleness\n")

    def do_stats(self, arg: str) -> None:
        """stats — run counters so far."""
        for name, value in sorted(self.driver.metrics.counters.as_dict().items()):
            self.stdout.write(f"{name}: {value}\n")

    def do_quit(self, arg: str) -> bool:
        """quit — leave the console."""
        return True

    do_exit = do_quit
    do_EOF = do_quit


def main() -> None:  # pragma: no cover - interactive entry
    import argparse

    defaults = SystemConfig()
    parser = argparse.ArgumentParser(description="mini-RAID interactive console")
    parser.add_argument("--sites", type=int, default=defaults.num_sites)
    parser.add_argument("--db", type=int, default=defaults.db_size)
    parser.add_argument("--max-txn", type=int, default=defaults.max_txn_size)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    args = parser.parse_args()
    config = SystemConfig(
        db_size=args.db,
        num_sites=args.sites,
        max_txn_size=args.max_txn,
        seed=args.seed,
    )
    # Not ``with Cluster(...)``: the driver *is* the live cluster's
    # managing site, stepped one command at a time for as long as the
    # console runs, so nothing here knows when its run is over.
    MiniRaidConsole(InteractiveDriver(Cluster(config))).cmdloop()


if __name__ == "__main__":  # pragma: no cover
    main()
