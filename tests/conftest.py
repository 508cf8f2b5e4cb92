import os
from pathlib import Path

import pytest

# The CLI tests run `python -m inarq` in child processes; point them at this
# checkout's src directory, as pyproject's pythonpath does for the test process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def reseed_once():
    """Retry policy for seeded stochastic checks.

    A correctly calibrated check still fails by chance at its stated level
    (3 standard errors in a test's own assertions, or the verdict's
    ``diagnostics.LEVEL`` for ``check``/``appendix``), so a failing check is
    rerun exactly once at a fixed alternate seed before counting as a real
    failure.
    """

    def run(check, primary_seed, alternate_seed):
        try:
            check(primary_seed)
        except AssertionError:
            check(alternate_seed)

    return run
