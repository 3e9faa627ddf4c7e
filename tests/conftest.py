import math

import numpy as np
import pytest

import wesurf as ws
from wesurf import catalog, grids, pde, quadrature, stencils

from oracles import wick_rotate, with_values


@pytest.fixture(scope="session")
def annulus_grid():
    """Full-circle annulus inside the unit disk (oracle comparisons)."""
    return ws.default_annulus(0.4, 0.9, 51, 128)


@pytest.fixture(scope="session")
def sector_grid():
    """Annular sector with both steps ~1e-2 (finite-difference checks)."""
    return ws.verification_grid("catenoid")


@pytest.fixture(scope="session")
def catenoid_pair(annulus_grid):
    data = ws.we_data("catenoid", base=1.0, kappa=1.0)
    return ws.generate_conjugate_pair(data, annulus_grid)


@pytest.fixture(scope="session")
def hc_family(annulus_grid):
    """Helicoid/catenoid conjugate family on the full annulus."""
    return ws.SolitonFamily(ws.helicoid_closed(annulus_grid),
                            ws.catenoid_closed(annulus_grid))


@pytest.fixture(scope="session")
def hc_family_sector(sector_grid):
    return ws.SolitonFamily(ws.helicoid_closed(sector_grid),
                            ws.catenoid_closed(sector_grid))


@pytest.fixture(scope="session", params=[(37, 53), (131, 257)], ids=["37x53", "131x257"])
def s_theta_annulus(request):
    """A Wick-rotated helicoid/catenoid member on a non-square annulus, as a
    complex surface with its jac and jac2 (`oracles.wick_rotate`), each
    component turned by its own complex phase.

    The phases give every product non-zero real and imaginary parts: a real
    times an imaginary array would commute bit for bit and hide a swapped
    complex multiply.  At 131x257 the whole grid holds 526 KiB per complex
    array and a band of 3 or 7 rows less than 256 KiB, numpy's
    temporary-elision size.
    """
    n1, n2 = request.param
    grid = ws.ParamGrid("annulus", n1, n2, (0.4, 0.9, 0.0, 2 * math.pi))
    s = wick_rotate(ws.SolitonFamily(ws.helicoid_closed(grid),
                                     ws.catenoid_closed(grid)).at(0.7).member)
    c = np.exp(1j * np.array([0.3, -0.5, 1.1]))[:, None, None]
    return with_values(s, c * s.values, jac=c[:, None] * s.jac, jac2=c[:, None] * s.jac2)


@pytest.fixture(scope="session")
def enneper_family():
    grid = ws.verification_grid("enneper")
    X, Y = ws.generate_conjugate_pair(ws.we_data("enneper"), grid)
    return ws.SolitonFamily(X, Y)


def rng_points(n, rho_lo=0.4, rho_hi=0.9, seed=7):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(rho_lo, rho_hi, n)
    psi = rng.uniform(0.0, 2 * math.pi, n)
    return rho * np.exp(1j * psi)


@pytest.fixture
def scans(monkeypatch):
    """Count the calls of the finiteness helper, in every module using it."""
    calls, scan = [], stencils.all_finite

    def spy(a):
        calls.append(a.shape)
        return scan(a)

    for module in (stencils, grids, pde, quadrature, catalog):
        monkeypatch.setattr(module, "all_finite", spy)
    return calls
