import numpy as np
import pytest

from pwcycles import SystemParams, averaging, smooth


@pytest.fixture
def params():
    """Unbounded annulus, non-resonant."""
    return SystemParams(1.0, -2.0)


@pytest.fixture
def resonant_params():
    return SystemParams(1.0, -1.0)


@pytest.fixture
def bounded_params():
    """Bounded annulus: r0 = min(1.5, 2.0) = 1.5."""
    return SystemParams(-1.5, 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _clear_reduction_caches():
    for cached in (averaging.assembly_matrix, averaging._unit_parts, averaging._unit_half,
                   averaging._kept_grid, smooth._check_smooth_units):
        cached.cache_clear()


@pytest.fixture
def reduce_calls(monkeypatch):
    """(c, alternate) of every `_reduce_half` call, from cold reduction
    caches; the caches are cleared again afterwards."""
    calls = []
    original = averaging._reduce_half

    def counting(S, c, degree, alternate):
        calls.append((c, alternate))
        return original(S, c, degree, alternate)

    monkeypatch.setattr(averaging, "_reduce_half", counting)
    _clear_reduction_caches()
    yield calls
    _clear_reduction_caches()
