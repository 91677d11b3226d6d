"""Run hypothesis property tests derandomised and without a deadline, so the
suite gives the same verdicts on every run and on a slow machine."""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
