import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    from levyid.randkit import RngStream

    return RngStream(20260816)


@pytest.fixture
def grid():
    from levyid.core import make_grid

    return make_grid([0.5, 1.0, 1.5, 2.0])


def assert_close_se(estimate, target, se, z_crit=3.0, label=""):
    """Assert |estimate - target| <= z_crit * se with a readable message."""
    gap = abs(estimate - target)
    assert gap <= z_crit * se, (
        f"{label or 'estimate'} {estimate:.6g} vs {target:.6g}: "
        f"|z| = {gap / se if se > 0 else np.inf:.2f} > {z_crit}"
    )


def report_diff(path_a, path_b) -> str:
    """What `levyid diff` prints for two report files: empty when they agree
    outside their timestamp blocks, else each differing JSON path with both
    values, or the reason a file cannot be read."""
    from levyid.cli import _diff

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        _diff(str(path_a), str(path_b))
    return out.getvalue()


@pytest.fixture(params=[1, 3], ids=["pool-1", "pool-3"])
def pool_cores(request, monkeypatch):
    """The usable core count sample_ensemble sizes its pool by, with a fresh
    pool made for the test and shut down after it."""
    from levyid import processes

    monkeypatch.setattr(processes, "_usable_cores", lambda: request.param)
    monkeypatch.setattr(processes, "_pool", None)
    yield request.param
    if processes._pool is not None:
        processes._pool[0].shutdown()
