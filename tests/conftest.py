"""Run hypothesis property tests derandomised and without a deadline, so the
suite gives the same verdicts on every run and on a slow machine; start every
test with an empty entropy-bracket memo, so no test sees another's brackets."""

import pytest

from dbhole import survivor

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _empty_bracket_memo():
    survivor._brackets.clear()
