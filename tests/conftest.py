import numpy as np
import pytest

from pwcycles import averaging, kernels, smooth
from pwcycles.kernels import SystemParams


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
def triple_zero_expansion():
    """(r - 1)^3 (r - 2) = 2 - 7r + 9r^2 - 5r^3 + r^4 at degree 3: an exact
    non-simple zero at r = 1 and a simple one at r = 2."""
    e = averaging.BasisExpansion.zeros(3)
    e.coeff_poly[:5] = [2.0, -7.0, 9.0, -5.0, 1.0]
    return e


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _clear_reduction_caches():
    for cached in (averaging.assembly_matrix, averaging._unit_parts, kernels._unit_half,
                   averaging._kept_grid, smooth._check_smooth_units):
        cached.cache_clear()


@pytest.fixture
def reduce_calls(monkeypatch):
    """(c, alternate) of every `_reduce_half` call, from cold reduction
    caches; the caches are cleared again afterwards."""
    calls = []
    original = kernels._reduce_half

    def counting(S, c, degree, alternate):
        calls.append((c, alternate))
        return original(S, c, degree, alternate)

    monkeypatch.setattr(kernels, "_reduce_half", counting)
    _clear_reduction_caches()
    yield calls
    _clear_reduction_caches()
