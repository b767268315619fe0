"""One Hypothesis profile for the whole suite: every run draws the same
cases (`derandomize`) and keeps no example database, so a run neither
depends on nor leaves behind the failures of an earlier one."""

from hypothesis import settings

settings.register_profile("cantorkit", derandomize=True, database=None)
settings.load_profile("cantorkit")
