"""SiteDatabase against a plain ``dict[item] -> (value, version, committed_at)``.

A copy becomes a ``DataItem`` only when first written, so the database
keeps two maps where the model keeps one.  Seeded random sequences of
every mutator and reader must give the same answers, the same
``signature()``, held set and redo-log records, and the same error types
for unknown items.  ``signature()`` is cached until a mutator drops
it, so after every step the cached tuple must also equal a rebuild.
"""

import copy
import gc
import random

import pytest

from repro.errors import StorageError, UnknownItemError
from repro.storage.database import SiteDatabase
from repro.storage.item import DataItem
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from conftest import copies

DEFAULT = (0, 0, 0.0)


class Model:
    """The database as one dict of (value, version, committed_at)."""

    def __init__(self, items):
        self.copies = {i: DEFAULT for i in items}
        self.staged = {}
        self.log = []

    def _held(self, item):
        if item not in self.copies:
            raise UnknownItemError(item)

    def _write(self, txn, item, value, version, time):
        old_value, old_version, _at = self.copies[item]
        self.log.append(
            (len(self.log) + 1, txn, item, old_value, value, old_version, version, time)
        )
        self.copies[item] = (value, version, time)

    def read(self, item):
        self._held(item)
        return self.copies[item][0]

    def version(self, item):
        self._held(item)
        return self.copies[item][1]

    def get(self, item):
        self._held(item)
        return DataItem(item, *self.copies[item])

    def snapshots(self, items):
        for item in items:
            self._held(item)
        return [(i, *self.copies[i][:2]) for i in items]

    def stage(self, txn, updates):
        if txn in self.staged:
            raise StorageError(txn)
        for item, _v, _ver in updates:
            self._held(item)
        self.staged[txn] = list(updates)

    def abort_staged(self, txn):
        self.staged.pop(txn, None)

    def drop_staged(self):
        self.staged.clear()

    def apply_writes(self, txn, updates, time):
        applied = []
        for item, value, version in updates:
            if item in self.copies:
                self._write(txn, item, value, version, time)
                applied.append(item)
        return applied

    def install_copies(self, copies, time, source_txn=-1):
        for item, _v, _ver in copies:
            self._held(item)
        installed = []
        for item, value, version in copies:
            if version > self.copies[item][1]:
                self._write(source_txn, item, value, version, time)
                installed.append(item)
        return installed

    def install_copy(self, item, value, version, time, source_txn=-1):
        return bool(self.install_copies([(item, value, version)], time, source_txn))

    def create_item(self, item, value, version, time):
        if item in self.copies:
            raise StorageError(item)
        self.copies[item] = (value, version, time)

    def drop_item(self, item):
        self._held(item)
        del self.copies[item]

    def wipe(self):
        self.copies = dict.fromkeys(self.copies, DEFAULT)
        self.staged.clear()
        self.log = []

    def signature(self):
        return (
            tuple((i, *self.copies[i][:2]) for i in sorted(self.copies)),
            tuple((txn, tuple(u)) for txn, u in sorted(self.staged.items())),
        )


def _random_op(rng, step):
    """One (method name, args) over items 0..11, some of them never held."""
    def item():
        return rng.randrange(12)

    def update():
        return item(), rng.randrange(100), rng.randrange(40)

    time = float(step)
    kind = rng.choice(
        "read version get snapshots stage abort_staged drop_staged apply_writes "
        "install_copies install_copy create_item drop_item wipe".split()
    )
    if kind in ("read", "version", "get", "drop_item"):
        return kind, (item(),)
    if kind == "snapshots":
        return kind, ([item() for _ in range(rng.randrange(4))],)
    if kind == "stage":
        return kind, (rng.randrange(4), [update() for _ in range(rng.randrange(3))])
    if kind == "abort_staged":
        return kind, (rng.randrange(4),)
    if kind == "apply_writes":
        return kind, (rng.randrange(40), [update() for _ in range(rng.randrange(4))], time)
    if kind == "install_copies":
        items = rng.sample(range(12), rng.randrange(4))  # a response names each once
        return kind, ([(i, *update()[1:]) for i in items], time, rng.randrange(-1, 40))
    if kind == "install_copy":
        return kind, (*update(), time)
    if kind == "create_item":
        return kind, (*update(), time)
    return kind, ()


def _rebuilt_signature(db: SiteDatabase) -> tuple:
    """``signature()`` from scratch: a copy whose cache starts empty."""
    fresh = copy.copy(db)
    fresh._signature = None
    return fresh.signature()


def _answer(target, kind, args):
    try:
        return getattr(target, kind)(*args)  # ``get``: DataItems compare by field
    except (StorageError, UnknownItemError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(25))
def test_database_matches_the_dict_model(seed):
    rng = random.Random(seed)
    held = rng.sample(range(12), 8)  # catalog order, not sorted
    db, model = SiteDatabase(0, held), Model(held)
    for step in range(150):
        kind, args = _random_op(rng, step)
        assert _answer(db, kind, args) == _answer(model, kind, args), (step, kind, args)
        # Kept from the step before unless this step's mutator dropped it.
        assert db.signature() == _rebuilt_signature(db) == model.signature()
        assert [
            (r.lsn, r.txn_id, r.item_id, r.old_value, r.new_value, r.old_version,
             r.new_version, r.time)
            for r in db.log.records
        ] == model.log
        assert [i for i in range(12) if i in db] == sorted(model.copies)
        assert len(db) == len(model.copies)


def test_a_failed_install_writes_nothing():
    db = SiteDatabase(0, range(3))
    with pytest.raises(UnknownItemError):
        db.install_copies([(0, 5, 5), (7, 5, 5)], time=1.0)
    assert copies(db) == {0: (0, 0), 1: (0, 0), 2: (0, 0)} and len(db.log) == 0


def _copy_objects() -> int:
    gc.collect()
    return sum(isinstance(o, DataItem) for o in gc.get_objects())


def test_a_cluster_holds_no_copy_object_until_a_write():
    before = _copy_objects()
    cluster = Cluster(SystemConfig(db_size=512, num_sites=7, seed=1))
    for site in cluster.sites:
        site.db.signature(), site.db.snapshots(range(512))
        assert site.db.read(511) == 0 and site.db.version(0) == 0
        assert site.db.get(7).version == 0
    assert cluster.audit_consistency() == []
    assert _copy_objects() == before
    cluster.site(3).db.apply_writes(1, [(5, 50, 1), (9, 90, 1)], time=1.0)
    cluster.site(4).db.install_copies([(5, 50, 1)], time=2.0)
    assert _copy_objects() == before + 3
