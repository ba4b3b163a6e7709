"""Network partition injection.

The fail-lock machinery is designed to handle copies made unavailable "due
to site failure or network partitioning" (paper §1.1).  The experiments in
the paper only use site failures, but the substrate supports partitions so
the protocol's partition behaviour can be tested and benchmarked too.
"""

from __future__ import annotations

from repro.errors import NetworkError


class PartitionManager:
    """Tracks which groups of sites can currently talk to each other.

    With no partition installed, everyone reaches everyone.  Installing a
    partition replaces any previous one.
    """

    def __init__(self) -> None:
        self._group_of: dict[int, int] = {}
        self._active = False

    def partition(self, groups: list[list[int]]) -> None:
        """Split sites into the given disjoint ``groups``.

        Sites not mentioned in any group form an implicit extra group
        together (they can still reach each other, but no listed group).
        """
        seen: set[int] = set()
        for group in groups:
            for site in group:
                if site in seen:
                    raise NetworkError(f"site {site} appears in two groups")
                seen.add(site)
        self._group_of = {}
        for index, group in enumerate(groups):
            for site in group:
                self._group_of[site] = index
        self._active = True

    def heal(self) -> None:
        """Remove the partition; full connectivity is restored."""
        self._group_of = {}
        self._active = False

    def connected(self, a: int, b: int) -> bool:
        """True if sites ``a`` and ``b`` can currently exchange messages."""
        if not self._active or a == b:
            return True
        # Unlisted sites share the implicit group (-1).
        return self._group_of.get(a, -1) == self._group_of.get(b, -1)

    def __repr__(self) -> str:
        return f"PartitionManager(active={self._active}, map={self._group_of})"
