"""Every process memo of balisim is one that empty_memos empties."""

import functools
import importlib
import pkgutil

import balisim
from balisim.sim import scenario
from conftest import MEMOS, TABLES

LRU_CACHE = type(functools.lru_cache(lambda: None))


def name(fn):
    return f"{fn.__module__}.{fn.__qualname__}"


def test_every_lru_cache_is_a_memo_the_fixture_empties_or_a_table():
    caches = {name(value)
              for info in pkgutil.walk_packages(balisim.__path__, "balisim.")
              for value in vars(importlib.import_module(info.name)).values()
              if isinstance(value, LRU_CACHE)}
    assert caches == {name(fn) for fn in MEMOS + TABLES}


def test_empty_memos_empties_every_memo(empty_memos):
    scenario.run_scenario(scenario.ScenarioConfig(auth_mode="authenticated"))
    assert all(memo.cache_info().currsize for memo in MEMOS)
    empty_memos()
    assert not any(memo.cache_info().currsize for memo in MEMOS)
