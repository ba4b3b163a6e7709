"""Named monotonic counters."""

from __future__ import annotations


class CounterSet:
    """A dictionary of named counts with a forgiving increment API."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to ``name`` (creating it at 0); returns new value."""
        if amount < 0:
            raise ValueError(f"counters only go up: {name} += {amount}")
        value = self._counts[name] = self._counts.get(name, 0) + amount
        return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        """A snapshot copy of all counters."""
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"CounterSet({inner})"
