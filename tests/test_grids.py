import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf.grids import GridError
from wesurf.stencils import axis_derivative, interior_mask

from oracles import surface_from_components, with_values


def rect(n, half=0.5):
    return ws.ParamGrid("rectangle", n, n, (-half, half, -half, half))


def surface_of(grid, fn):
    r = grid.nodes()
    z = np.zeros(grid.shape)
    return surface_from_components(grid, fn(r), z, z)


# ---------------------------------------------------------------- ParamGrid

def test_grid_counts_must_be_at_least_three():
    with pytest.raises(GridError):
        ws.ParamGrid("rectangle", 2, 5, (0, 1, 0, 1))


def test_annulus_requires_positive_inner_radius():
    with pytest.raises(GridError):
        ws.ParamGrid("annulus", 5, 5, (0.0, 1.0, 0.0, 1.0))


def test_annulus_straddling_unit_circle_needs_acknowledgement():
    with pytest.raises(GridError):
        ws.ParamGrid("annulus", 5, 5, (0.5, 1.5, 0.0, 1.0))
    g = ws.ParamGrid("annulus", 5, 5, (0.5, 1.5, 0.0, 1.0), allow_unit_circle=True)
    assert g.bounds[1] == 1.5


def test_grid_nodes_and_spacing():
    g = ws.ParamGrid("annulus", 3, 5, (0.5, 0.7, 0.0, 1.0))
    r = g.nodes()
    assert r.shape == (3, 5)
    assert r[0, 0] == pytest.approx(0.5)
    assert abs(r[2, 4] - 0.7 * np.exp(1j)) < 1e-15
    assert g.h1 == pytest.approx(0.1)


def test_surface_values_immutable_and_validated():
    g = rect(5)
    s = surface_of(g, lambda r: r.real)
    with pytest.raises(ValueError):
        s.values[0, 0, 0] = 9.0
    with pytest.raises(GridError):
        surface_from_components(g, g.nodes(), 0 * g.nodes(), 0 * g.nodes())  # complex x
    with pytest.raises(GridError):
        bad = np.full(g.shape, np.nan)
        surface_from_components(g, bad, bad, bad)


@pytest.mark.parametrize("field", ["values", "jac", "jac2"])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 1.0)])
def test_surface_rejects_one_non_finite_part(field, bad):
    # the finiteness scan comes first, so a non-finite imaginary part is
    # reported as such
    s = ws.helicoid_closed(ws.default_annulus(0.4, 0.9, 5, 7))
    arrays = {name: getattr(s, name).astype(complex) for name in ("values", "jac", "jac2")}
    arrays[field].flat[7] = bad
    with pytest.raises(GridError, match="finite"):
        ws.SurfaceGrid(s.grid, arrays["values"], arrays["jac"], arrays["jac2"])


@pytest.mark.parametrize("field", ["values", "jac", "jac2"])
def test_real_surface_is_float64(field):
    # complex input is taken when every imaginary part is a zero of either
    # sign, and stored as its real parts; any other imaginary part is refused
    s = ws.catenoid_closed(ws.default_annulus(0.4, 0.9, 5, 7))
    arrays = {name: getattr(s, name) for name in ("values", "jac", "jac2")}
    z = arrays[field].astype(complex)
    z.imag = -0.0
    z.flat[3] = complex(z.flat[3].real, 0.0)
    kept = ws.SurfaceGrid(s.grid, **{**arrays, field: z})
    assert getattr(kept, field).dtype == np.float64
    assert np.array_equal(getattr(kept, field), arrays[field])
    z.flat[3] = complex(z.flat[3].real, 5e-324)
    with pytest.raises(GridError, match="imaginary part"):
        ws.SurfaceGrid(s.grid, **{**arrays, field: z})


def test_with_values_drops_omitted_derivatives():
    s = ws.catenoid_closed(ws.default_annulus(0.4, 0.9, 8, 8))
    scaled = with_values(s, 2.0 * s.values)
    assert scaled.jac is None and scaled.jac2 is None  # not s's stale derivatives
    assert type(scaled) is type(s) and scaled.meta == s.meta
    kept = with_values(s, 2.0 * s.values, jac=2.0 * s.jac)
    assert np.array_equal(kept.jac, 2.0 * s.jac) and kept.jac2 is None


# --------------------------------------------------------- array_derivative

def test_derivative_of_constant_is_zero():
    s = surface_of(rect(9), lambda r: np.full(r.shape, 5.0))
    assert np.max(np.abs(ws.array_derivative(s.grid, s.x, "r1"))) == 0.0


def test_derivative_of_linear_is_exact():
    s = surface_of(rect(9), lambda r: r.real)
    d = ws.array_derivative(s.grid, s.x, "r1")
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_derivative_of_sine_at_h_1e2():
    g = ws.ParamGrid("rectangle", 101, 5, (-0.5, 0.5, 0, 1))
    s = surface_of(g, lambda r: np.sin(r.real))
    d = ws.array_derivative(s.grid, s.x, "r1")
    assert np.max(np.abs(d - np.cos(g.nodes().real))) < 1e-4


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("accuracy", [2, 4, 6])
def test_stencil_columns_independent_of_batch(order, accuracy):
    # edge rows must not depend on how many columns share the call (a BLAS
    # product picks its summation order from the operand shape)
    x = np.linspace(0.0, 1.0, 41)
    arr = np.sin(3 * x)[:, None] * np.exp(np.linspace(-1, 1, 9))[None, :] \
        + np.cos(7 * x)[:, None]
    whole = axis_derivative(arr, x[1] - x[0], 0, order, accuracy)
    cols = [axis_derivative(arr[:, j], x[1] - x[0], 0, order, accuracy)
            for j in range(arr.shape[1])]
    assert np.array_equal(whole, np.stack(cols, axis=1))


def test_grid_too_small_for_stencil():
    s = surface_of(rect(4), lambda r: r.real)
    with pytest.raises(GridError):
        ws.array_derivative(s.grid, s.x, "r1", order=2)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_central_diff_is_linear(alpha, beta):
    g = rect(9)
    r = g.nodes()
    f, h = np.sin(r.real) * r.imag, np.cos(r.imag) + r.real ** 2
    lhs = ws.array_derivative(g, alpha * f + beta * h, "r1")
    rhs = alpha * ws.array_derivative(g, f, "r1") + beta * ws.array_derivative(g, h, "r1")
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + abs(alpha) + abs(beta))


def test_annulus_chain_rule_first_derivatives():
    g = ws.ParamGrid("annulus", 41, 101, (0.5, 0.9, 0.2, 1.2))
    r = g.nodes()
    d1 = ws.array_derivative(g, r.real, "r1", accuracy=4)
    d2 = ws.array_derivative(g, r.real, "r2", accuracy=4)
    assert np.max(np.abs(d1 - 1.0)) < 1e-8
    assert np.max(np.abs(d2)) < 1e-8


# ---------------------------------------------------------------- laplacian

def test_laplacian_of_harmonic_polynomial():
    g = rect(21)
    s = surface_of(g, lambda r: r.real ** 2 - r.imag ** 2)
    assert np.max(np.abs(ws.laplacian(s, "x"))) < 1e-10


def test_laplacian_of_r1_squared():
    g = rect(21)
    s = surface_of(g, lambda r: r.real ** 2)
    assert np.max(np.abs(ws.laplacian(s, "x") - 2.0)) < 1e-8


def test_helicoid_harmonicity_on_sector():
    # both steps ~1e-2; centered-stencil nodes (one-sided closures carry
    # larger constants than the 1e-6 bound)
    g = ws.ParamGrid("annulus", 41, 128, (0.5, 0.9, 0.2, 1.47))
    s = ws.helicoid_closed(g)
    mask = interior_mask(g.shape, 6, 2)
    worst = max(float(np.max(np.abs(ws.laplacian(s, c, accuracy=6))[mask]))
                for c in ("x", "t", "phi"))
    assert worst < 1e-6


def test_laplacian_second_order_convergence():
    # Re/Im of a holomorphic sample: laplacian -> 0 at O(h^2)
    errs = []
    for n in (41, 81):
        g = ws.ParamGrid("rectangle", n, n, (0.3, 0.9, 0.2, 0.8))
        s = surface_of(g, lambda r: (np.exp(r) / r).real)
        errs.append(float(np.max(np.abs(ws.laplacian(s, "x")))))
    assert errs[0] / errs[1] > 3.0


def test_surface_jacobian_fd_matches_analytic():
    g = ws.verification_grid("catenoid")
    X = ws.generate(ws.we_data("catenoid"), g)
    fd = ws.surface_jacobian(X, source="fd", accuracy=6)
    exact = ws.surface_jacobian(X, source="analytic")
    mask = interior_mask(g.shape, 6)
    assert np.max(np.abs((fd - exact)[:, :, mask])) < 1e-7
