import time

import pytest

from pvc.verification import CHECKED_MODULES, run_grad_check


@pytest.fixture(scope="session")
def grad_check_sweep():
    """Seed-0 grad-check reports of every checked module, by module, and the
    sweep's wall time in seconds; the sweep runs once per session."""
    start = time.monotonic()
    reports = {module: run_grad_check(module, seed=0) for module in CHECKED_MODULES}
    return reports, time.monotonic() - start
