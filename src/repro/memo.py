"""In-process memos: one bounded, thread-safe LRU and its registry.

A figure grid's cells share a lot of machine-independent work: the
workload programs, their traces, baseline simulations, optimized runs
of identical p-thread sets, and spawn expansions.  Every module that
shares such work across cells does it through one :class:`Memo`, so
there is one eviction policy, one lock discipline, one set of counters
and one way to start cold:

- :meth:`Memo.get` / :meth:`Memo.put` each run under the memo's lock
  (``repro serve`` runs jobs on several threads in one process);
- every memo counts ``{name}.hits``, ``{name}.misses`` and
  ``{name}.evictions`` in :data:`repro.obs.counters`, so run manifests
  record what each memo served;
- :func:`clear_all` empties every registered memo (the bench's cold
  passes and tests that need each cell computed independently), and
  :func:`stats` reports their occupancy and counters.

Values are shared, not copied: callers must treat them as read-only.
Analyses memoized *on* a value (``Trace.derived``) live exactly as long
as the memo keeps that value.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List

from repro import obs

_REGISTRY: Dict[str, "Memo"] = {}


class Memo:
    """A named, bounded LRU map whose operations hold one lock."""

    def __init__(self, name: str, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"memo {name!r}: limit must be >= 1")
        if name in _REGISTRY:
            raise ValueError(f"memo {name!r} is already registered")
        self.name = name
        self.limit = limit
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = obs.counters.counter(f"{name}.hits")
        self._misses = obs.counters.counter(f"{name}.misses")
        self._evictions = obs.counters.counter(f"{name}.evictions")
        _REGISTRY[name] = self

    def get(self, key: Hashable) -> Any:
        """The value for ``key`` (now most recently used), or None."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses.add()
                return None
            self._entries.move_to_end(key)
            self._hits.add()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as most recently used, evicting beyond the limit."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self._evictions.add()

    def keys(self) -> List[Hashable]:
        """Current keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "limit": self.limit,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
        }


def clear_all() -> None:
    """Empty every registered memo."""
    for memo in list(_REGISTRY.values()):
        memo.clear()


def stats() -> Dict[str, Dict[str, int]]:
    """Per-memo occupancy and counters, keyed by memo name."""
    return {name: memo.stats() for name, memo in sorted(_REGISTRY.items())}


def _reset_locks_after_fork() -> None:
    # A pool worker forked while another thread held a memo's lock would
    # inherit it held forever; the child is single-threaded, so fresh
    # locks are safe.
    for memo in _REGISTRY.values():
        memo._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks_after_fork)
