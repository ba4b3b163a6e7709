"""A single replicated data item copy.

``version`` is the identifier of the transaction that last wrote the copy.
Under the paper's serial execution, transaction ids are issued in
processing order, so version comparison tells which of two copies is newer
— the property copier transactions and the consistency checker rely on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class DataItem:
    """One site's copy of a logical data item."""

    item_id: int
    value: int = 0
    version: int = 0

    def __repr__(self) -> str:
        return f"DataItem(id={self.item_id}, value={self.value}, v={self.version})"
