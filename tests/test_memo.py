"""The in-process memo class and its registry."""

import pytest

from repro import memo


@pytest.fixture()
def scratch():
    """A throwaway registered memo, unregistered afterwards."""
    made = []

    def make(name, limit):
        made.append(memo.Memo(name, limit))
        return made[-1]

    yield make
    for instance in made:
        memo._REGISTRY.pop(instance.name, None)


def test_lru_order_and_counters(scratch):
    lru = scratch("test.memo.lru", limit=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # a becomes most recently used
    lru.put("c", 3)  # evicts b, the least recently used
    assert lru.keys() == ["a", "c"]
    assert lru.get("b") is None
    assert lru.stats() == {
        "entries": 2, "limit": 2, "hits": 1, "misses": 1, "evictions": 1,
    }


def test_put_refreshes_an_existing_key(scratch):
    lru = scratch("test.memo.refresh", limit=2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)
    lru.put("c", 3)
    assert lru.keys() == ["a", "c"]
    assert lru.get("a") == 10


def test_counters_are_obs_counters(scratch):
    from repro import obs

    lru = scratch("test.memo.obs", limit=1)
    lru.get("x")
    lru.put("x", 1)
    lru.get("x")
    lru.put("y", 2)
    snap = obs.counters.snapshot()
    assert snap["test.memo.obs.hits"] == 1
    assert snap["test.memo.obs.misses"] == 1
    assert snap["test.memo.obs.evictions"] == 1


def test_clear_all_empties_every_registered_memo(scratch):
    first = scratch("test.memo.first", limit=4)
    second = scratch("test.memo.second", limit=4)
    first.put(1, "one")
    second.put(2, "two")
    assert first.get(1) == "one"
    memo.clear_all()
    assert len(first) == len(second) == 0
    assert all(s["entries"] == 0 for s in memo.stats().values())
    # Counters are process telemetry: clearing keeps them.
    assert memo.stats()["test.memo.first"]["hits"] == 1
    assert first.get(1) is None


def test_names_are_unique_and_limits_positive(scratch):
    scratch("test.memo.unique", limit=1)
    with pytest.raises(ValueError, match="already registered"):
        memo.Memo("test.memo.unique", 1)
    with pytest.raises(ValueError, match="limit"):
        memo.Memo("test.memo.zero", 0)
