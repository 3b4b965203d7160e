"""Property tests draw the same examples on every run and keep no example
database in the checkout: a failure seen once is seen on every rerun."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
