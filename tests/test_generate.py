import importlib
import math
import tracemalloc

import numpy as np
import pytest

import wesurf as ws
from wesurf import grids
from wesurf.generate import GenerateError, _node_derivatives

from oracles import (align_rigid, complex_laplacian, pair_members, pair_values, rotated_values,
                     with_values)

ALL_IDS = [i for i in ws.CATALOG_IDS if i != "custom"]
generate = importlib.import_module("wesurf.generate")  # ws.generate is the function


def test_base_at_singularity_rejected():
    with pytest.raises(GenerateError):
        ws.WEData(ws.catalog_function("catenoid"), base=0.0)


def test_offsets_must_be_finite_triple():
    with pytest.raises(GenerateError):
        ws.WEData(ws.catalog_function("enneper"), offsets=(0.0, np.inf, 0.0))


def test_enneper_matches_polynomial_antiderivatives():
    grid = ws.ParamGrid("rectangle", 21, 21, (-0.15, 0.15, -0.15, 0.15))
    X = ws.generate(ws.we_data("enneper", base=0.0), grid)
    z = grid.nodes()
    assert np.max(np.abs(X.x - (z - z ** 3 / 3.0).real)) < 1e-11
    assert np.max(np.abs(X.t - (1j * (z + z ** 3 / 3.0)).real)) < 1e-11
    assert np.max(np.abs(X.phi - (z ** 2).real)) < 1e-11


def test_zero_length_path_returns_offsets():
    grid = ws.ParamGrid("rectangle", 5, 5, (-0.2, 0.2, -0.2, 0.2))
    base = complex(grid.nodes()[2, 2])
    X = ws.generate(ws.we_data("enneper", base=base, offsets=(1.0, 2.0, 3.0)), grid)
    assert X.x[2, 2] == 1.0 and X.t[2, 2] == 2.0 and X.phi[2, 2] == 3.0


def test_catenoid_matches_closed_form_after_rigid_alignment(catenoid_pair, annulus_grid):
    X, _ = catenoid_pair
    oracle = ws.catenoid_closed(annulus_grid)
    al = align_rigid(X, oracle)
    assert al.max_deviation < 1e-9
    # kappa=+1 generates the point reflection of the closed form
    assert np.allclose(al.rotation, -np.eye(3), atol=1e-12)


def test_conjugate_member_matches_helicoid_closed_form(catenoid_pair, annulus_grid):
    _, Y = catenoid_pair
    al = align_rigid(Y, ws.helicoid_closed(annulus_grid))
    assert al.max_deviation < 1e-9


def test_generate_of_conjugate_data_equals_pair_member(annulus_grid):
    data = ws.we_data("catenoid", base=1.0)
    _, Y = ws.generate_conjugate_pair(data, annulus_grid)
    Y2 = rotated_values(data, annulus_grid, -1j)  # R -> -i R
    # same values up to reassociation round-off of the two evaluation orders
    assert np.max(np.abs(Y.values - Y2)) < 1e-13 * (1 + np.max(np.abs(Y.values)))


def test_double_conjugation_negates_surface(annulus_grid):
    data = ws.we_data("catenoid", base=1.0)
    X = ws.generate(data, annulus_grid)
    X2 = rotated_values(data, annulus_grid, -1j * -1j)  # R -> -i (-i R)
    assert np.max(np.abs(X2 + X.values)) < 1e-13


def test_henneberg_flip_t_negates_t_only():
    grid = ws.verification_grid("henneberg")
    flipped = ws.generate(ws.we_data("henneberg"), grid)          # default flip
    plain = ws.generate(ws.we_data("henneberg", flip_t=False), grid)
    assert np.array_equal(flipped.t, -plain.t)
    assert np.array_equal(flipped.x, plain.x)
    assert np.array_equal(flipped.jac[1], -plain.jac[1])


def test_enneper_pair_cauchy_riemann_by_finite_differences():
    grid = ws.verification_grid("enneper")
    X, Y = ws.generate_conjugate_pair(ws.we_data("enneper"), grid)
    # accuracy-4 stencils are exact on the cubic integrals of R = 1
    assert ws.conjugacy_violation(X, Y, source="fd", accuracy=4) < 1e-6


@pytest.mark.parametrize("sid", ALL_IDS)
def test_conjugate_pair_cauchy_riemann_all_entries(sid):
    grid = ws.verification_grid(sid)
    X, Y = ws.generate_conjugate_pair(ws.we_data(sid), grid)
    assert ws.conjugacy_violation(X, Y, source="analytic") < 1e-6
    assert ws.conjugacy_violation(X, Y, source="fd", accuracy=6,
                                  interior_only=True) < 1e-6


def _same_bits(a, b):
    """Equal as floats, signs of zero included."""
    fa, fb = a.view(np.float64), b.view(np.float64)
    return np.array_equal(fa, fb) and np.array_equal(np.signbit(fa), np.signbit(fb))


def _assert_same_surface(got, want, label):
    for name in ("values", "jac", "jac2"):
        assert _same_bits(getattr(got, name), getattr(want, name)), (label, name)


def _assert_same_s_theta(got, want, label):
    """Same member, and the same complex values by the Wick rule."""
    _assert_same_surface(got.member, want.member, label)
    assert _same_bits(got.values, want.values), (label, "complex values")


# the quarter angles snap cos or sin to 0: signed zeros in the member
PACKED_THETAS = (0.0, 0.3, 2.0, math.pi / 2, math.pi, 3 * math.pi / 2, -1.0, 4.5)


@pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (0.3, -1.2, 2.0)],
                         ids=["no_offsets", "offsets"])
@pytest.mark.parametrize("sid", ALL_IDS)
def test_packed_pair_equals_packed_members(sid, offsets):
    # the family written from (Phi, Phi', Phi'') gives the bits of packing
    # the assembled members, in S_theta and unpacked: the slots it stores are
    # copies, and the ones it builds by Cauchy-Riemann are swaps and signs
    data = ws.we_data(sid, offsets=offsets)
    grid = ws.verification_grid(sid)
    X, Y = pair_members(data, grid)
    fam = ws.generate_conjugate_pair(data, grid)
    ref = ws.SolitonFamily(X, Y, validate=False)
    for theta in PACKED_THETAS:
        _assert_same_s_theta(fam.at(theta), ref.at(theta), theta)
    for got, want in zip(fam, ref):
        _assert_same_surface(got, want, "unpacked")
    for k in (1.5, -0.5):  # --corrupt-y-scale: scale Y in the family, or Y then pack
        scaled = with_values(Y, Y.values * k, jac=Y.jac * k, jac2=Y.jac2 * k)
        fam_k = ws.generate_conjugate_pair(data, grid, y_scale=k)
        ref_k = ws.SolitonFamily(X, scaled, validate=False)
        for theta in (0.3, 2.0, math.pi / 2):
            _assert_same_s_theta(fam_k.at(theta), ref_k.at(theta), (k, theta))
        for got, want in zip(fam_k, ref_k):
            _assert_same_surface(got, want, (k, "unpacked"))


def test_generated_family_holds_only_its_values():
    # the packed values alone: 48 bytes per node.  Phi' and Phi'' are
    # evaluated from R when read, one slot each (storing them took 144 bytes
    # per node, and every slot 288)
    grid = ws.default_annulus(0.4, 0.9, 256, 256)
    tracemalloc.start()
    try:
        fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    per_node = sum(trace.size for trace in held.traces) / (grid.n1 * grid.n2)
    assert per_node < 49, f"{per_node:.1f} bytes per node"
    jac, jac2 = fam.derivatives(slice(5, 9))
    assert jac.shape == jac2.shape == (3, 1, 4, grid.n2)


def test_generated_derivatives_are_rows_of_the_whole_grids():
    # a span's Phi', Phi'' are those rows of the whole grid's, bit for bit
    # (the nodes are the whole grid's, not a band grid's linspace), t negated
    # under flip_t, and a band's `rows` reads R once for all its `at`s
    data = ws.we_data("henneberg")
    grid = ws.verification_grid("henneberg")
    fam = ws.generate_conjugate_pair(data, grid)
    whole = fam.derivatives(slice(None))
    for i, j in ((0, grid.n1), (3, 17), (grid.n1 - 4, grid.n1)):
        for got, want in zip(fam.derivatives(slice(i, j)), whole):
            assert got.tobytes() == want[..., i:j, :].tobytes(), (i, j)
    dphi, ddphi = (z[:, 0] for z in _node_derivatives(data.R, grid, False, slice(None)))
    assert np.array_equal(whole[0][1, 0], -dphi[1]) and np.array_equal(whole[1][1, 0], -ddphi[1])
    assert np.array_equal(whole[0][0, 0], dphi[0])


def test_sweep_evaluates_r_once_per_band_per_block(monkeypatch):
    # each band's `fam.rows` evaluates R and R' on the band's nodes once, for
    # every theta of the block; 14 thetas run in two blocks
    grid = ws.default_annulus(0.4, 0.9, 40, 64)
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
    monkeypatch.setattr(grids, "_BAND_NODES", 7 * grid.n2)
    bands = grids._row_bands(*grid.shape)
    assert len(bands) > 1
    calls = []

    def spy(name):
        real = getattr(generate, name)

        def counted(R, w):
            calls.append((name, w.shape))
            return real(R, w)
        return counted

    for name in ("eval_R", "eval_R_deriv"):
        monkeypatch.setattr(generate, name, spy(name))
    ws.theta_sweep_invariance(fam, np.linspace(0.0, 6.0, 14).tolist())
    per_pass = [(name, (j - i, grid.n2)) for i, j in bands
                for name in ("eval_R", "eval_R_deriv")]
    assert calls == 2 * per_pass


def test_packed_pair_unpacks_to_the_members():
    data = ws.we_data("henneberg", offsets=(0.3, -1.2, 2.0))
    grid = ws.verification_grid("henneberg")
    members = pair_members(data, grid)
    for got, want in zip(ws.generate_conjugate_pair(data, grid), members):
        assert got.meta == want.meta
        for name in ("values", "jac", "jac2"):  # equal up to signs of zero
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _node_text(grid, values, sep):
    """Per grid row, the lines of %.17g of every node's position and
    complex components, each part its own column."""
    nodes = np.stack([grid.nodes(), *values], axis=-1).view(np.float64)
    return [[sep.join("%.17g" % v for v in node) for node in row] for row in nodes]


def _assert_file_text(path, want):
    """The file holds `want`; a failure names the first line that differs
    (a diff of the whole files would take about a minute)."""
    got, want = path.read_text().split("\n"), want.split("\n")
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None and len(got) == len(want), (
        path.name, first, first is not None and (got[first], want[first]))


@pytest.mark.parametrize("sid", ["henneberg", "catenoid"])
def test_generated_members_equal_assembled_members(sid, tmp_path):
    # generate's X, and X and Y of the pair, are the assembled members bit
    # for bit, and the CSV and table writers print them as the members
    # assembled in complex arithmetic: a flipped t (henneberg) prints its
    # -0 imaginary parts
    data = ws.we_data(sid, offsets=(0.3, -1.2, 2.0))
    grid = ws.verification_grid(sid)
    X, Y = ws.generate_conjugate_pair(data, grid)
    members = pair_members(data, grid)
    _assert_same_surface(ws.generate(data, grid), members[0], "generate")
    complex_values = pair_values(data, grid)
    assert np.signbit(complex_values[0][1].imag).all() == data.flip_t
    columns = "r1 r2 x_re x_im t_re t_im phi_re phi_im"
    for got, want, z in zip((X, Y), members, complex_values):
        _assert_same_surface(got, want, "pair")
        csv = "".join(f"{i},{j},{line}\n" for i, row in enumerate(_node_text(grid, z, ","))
                      for j, line in enumerate(row))
        _assert_file_text(ws.write_surface_csv(got, tmp_path / "s.csv"),
                          f"# schema: wesurf/1\ni,j,{columns.replace(' ', ',')}\n{csv}")
        table = "".join("".join(f"{line}\n" for line in row) + "\n"
                        for row in _node_text(grid, z, " "))
        _assert_file_text(ws.write_surface_table(got, tmp_path / "s.dat"),
                          f"# schema: wesurf/1\n# columns: {columns}\n{table}")


def test_real_surfaces_are_float64(annulus_grid):
    fam = ws.generate_conjugate_pair(ws.we_data("henneberg"), annulus_grid)
    real = [ws.generate(ws.we_data("henneberg"), annulus_grid), *fam,
            ws.helicoid_closed(annulus_grid), ws.catenoid_closed(annulus_grid),
            fam.at(0.3).member]
    for s in real:
        assert isinstance(s, ws.SurfaceGrid), s.meta
        assert s.values.dtype == s.jac.dtype == s.jac2.dtype == np.float64, s.meta
    assert fam.at(0.3).values.dtype == complex


@pytest.mark.parametrize("sid", ALL_IDS)
def test_float_laplacian_equals_complex_route(sid):
    # multiplying by 1 / rho and 1 / rho**2, the float laplacian of a real
    # surface has the bits of the complex route's real part; a float
    # division by rho differs in the last bit at some nodes
    grid = ws.verification_grid(sid)
    X = ws.generate(ws.we_data(sid), grid)
    for accuracy in (2, 6):
        for comp in ("x", "t", "phi"):
            got = ws.laplacian(X, comp, accuracy)
            want = complex_laplacian(grid, X.component(comp), accuracy).real
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (accuracy, comp)


@pytest.mark.parametrize("sid", ALL_IDS)
def test_isothermality_with_conformal_factor_oracle(sid):
    # E = G = |R|^2 (1 + |w|^2)^2 and F = 0 in the W-E chart
    grid = ws.verification_grid(sid)
    X = ws.generate(ws.we_data(sid), grid)
    form = ws.fundamental_form(X, source="analytic")
    oracle = np.abs(ws.eval_R(ws.catalog_function(sid), grid.nodes())) ** 2 \
        * (1.0 + np.abs(grid.nodes()) ** 2) ** 2
    scale = np.max(oracle)
    assert np.max(np.abs(form.E - oracle)) < 1e-10 * scale
    assert form.isothermal_defect < 1e-10 * scale


def test_isothermality_via_finite_differences_tightens_at_h2(sector_grid):
    X = ws.generate(ws.we_data("catenoid"), sector_grid)
    defects = []
    for refine in (1, 2):
        g = ws.verification_grid("catenoid", refine=refine)
        Xr = ws.generate(ws.we_data("catenoid"), g)
        form = ws.fundamental_form(Xr, source="fd", accuracy=2)
        defects.append(form.isothermal_defect)
    assert defects[0] / defects[1] > 3.0
    _ = X


def test_harmonicity_converges_at_second_order():
    errs = []
    for refine in (1, 2):
        g = ws.verification_grid("scherk", refine=refine)
        X = ws.generate(ws.we_data("scherk"), g)
        errs.append(max(float(np.max(np.abs(ws.laplacian(X, c, accuracy=2))))
                        for c in ("x", "t", "phi")))
    assert errs[0] / errs[1] > 3.5


def test_alignment_requires_matching_grids(annulus_grid):
    X = ws.generate(ws.we_data("catenoid"), annulus_grid)
    other = ws.verification_grid("catenoid")
    Y = ws.generate(ws.we_data("catenoid"), other)
    with pytest.raises(GenerateError):
        align_rigid(X, Y)


def test_gamma_chart_sector_covers_expected_annulus():
    g = ws.gamma_chart_sector(0.4, 2.0, -0.8, -0.2, 21, 41)
    assert g.kind == "annulus"
    assert g.bounds[0] == pytest.approx(np.exp(-0.4))
    assert g.bounds[1] == pytest.approx(np.exp(-0.1))
    assert g.bounds[2] == pytest.approx(-1.0)
    assert g.bounds[3] == pytest.approx(-0.2)


def test_catalan_chart_surface_is_minimal():
    # general Enneper data with a=1, b=0 on an exponential-chart sector
    grid = ws.gamma_chart_sector(0.5, 2.2, -1.6, -0.6, 41, 61)
    data = ws.we_data("general_enneper", a=1.0, b=0.0,
                      base=complex(grid.nodes()[20, 30]))
    X = ws.generate(data, grid)
    patch = ws.chain_rule_partials(X, first_source="analytic",
                                   second_source="analytic")
    assert ws.minimal_surface_residual(patch).max_abs < 1e-8
