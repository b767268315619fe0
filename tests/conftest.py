"""One Hypothesis profile for the whole suite: every run draws the same
cases (`derandomize`) and keeps no example database, so a run neither
depends on nor leaves behind the failures of an earlier one.

`clear_caches` empties every memoized table of the package, for tests
that sabotage one."""

import sys

from hypothesis import settings

settings.register_profile("cantorkit", derandomize=True, database=None)
settings.load_profile("cantorkit")


def clear_caches():
    """Empty every `functools.lru_cache` bound in a `cantorkit` module, found
    by introspection, so no cache a test sabotaged, or one added later, leaks
    its tables into the next test.  Call it after undoing the sabotage."""
    for name, module in list(sys.modules.items()):
        if name == "cantorkit" or name.startswith("cantorkit."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
