import multiprocessing
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

# Exact rational pivots make single examples slow; wall-clock deadlines
# only add flakiness on a loaded machine.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def inline_pool(monkeypatch):
    """Patch multiprocessing.get_context with a context whose pools map in process.

    Returns the list of the pool sizes asked for, so a test sees how many
    workers a command would fork without starting a process.
    """
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            return list(map(fn, tasks))

    context = SimpleNamespace(Pool=Pool)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    return sizes
