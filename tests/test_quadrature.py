import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf import quadrature
from wesurf.catalog import BranchRegionError, singularity_points
from wesurf.generate import _integrand
from wesurf.quadrature import RULES, PathNearSingularity, QuadratureError, _segment_integrals

finite_c = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                              allow_nan=False, allow_infinity=False)


def test_pathspec_validation():
    with pytest.raises(QuadratureError):
        ws.PathSpec((1.0,))
    with pytest.raises(QuadratureError):
        ws.PathSpec((1.0, 1.0))
    with pytest.raises(QuadratureError):
        ws.PathSpec((0.0, 1.0), panels=0)


def test_constant_integrand_gives_endpoint_difference():
    val = ws.integrate_path(lambda w: np.ones_like(w), ws.PathSpec((0.0, 1.0 + 1.0j)))
    assert val == 1.0 + 1.0j


def test_constant_integrand_exact_with_16_point_rule():
    val = ws.integrate_path(lambda w: np.ones_like(w), ws.PathSpec((0.0, 1.0 + 1.0j)),
                            rule="gauss_legendre_16")
    assert val == 1.0 + 1.0j


@pytest.mark.parametrize("rule", sorted(RULES))
def test_segment_integrals_independent_of_batch(rule):
    # one call over seven segments gives the same bits as seven calls
    order = RULES[rule]
    f = lambda w: np.exp(w) * np.cos(3 * w) + 1.0 / (w - 2.5j)
    cuts = np.linspace(-0.3 + 0.1j, 0.9 + 0.6j, 8)
    batch = _segment_integrals(f, cuts[:-1], cuts[1:], order)
    single = [_segment_integrals(f, cuts[k:k + 1], cuts[k + 1:k + 2], order)[0]
              for k in range(len(cuts) - 1)]
    assert np.array_equal(batch, single)


@pytest.mark.parametrize("order", sorted(set(quadrature._CHAIN_ORDERS) | set(RULES.values())))
def test_constant_integrand_exact_for_every_order(order):
    z0 = np.array([0.0, 0.3 + 0.1j, -1.0, 0.9 - 0.7j])
    z1 = np.array([1.0 + 1.0j, 0.55 - 0.2j, 2.5j, 0.9 - 0.6j])
    got = _segment_integrals(lambda w: np.ones_like(w), z0, z1, order)
    assert np.array_equal(got, z1 - z0)


# block sizes in nodes: 7 segments of the 32-point rule (28 of the 8-point
# rule), so blocks straddle chain rows; and one block for any grid
SMALL_BLOCK, WHOLE_GRID = 7 * 32, 1 << 40
CATALOG = [i for i in ws.CATALOG_IDS if i != "custom"]
FG_FAMILY = "helicoid+catenoid@0.7"
PHASED = "catenoid*exp(0.3i)"


def _grid_antiderivatives(sid, n_fg=128):
    if sid == FG_FAMILY:
        pair = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7)
        annulus = ws.default_annulus(0.4, 0.9, n_fg, n_fg)
        return list(ws.fg_integrals(pair, annulus, 0.65, singularities=[0.0]))
    if sid == PHASED:
        R = ws.catalog_function("catenoid", conjugation_phase=complex(np.exp(0.3j)))
        annulus = ws.default_annulus(0.4, 0.9, 128, 128)
        return [ws.antiderivative_on_grid(_integrand(R), 1.0, annulus, [0.0])]
    data = ws.we_data(sid)
    f, sing = _integrand(data.R), singularity_points(data.R)
    # inside every entry's region, schwarz_riemann's principal branch included
    annulus = ws.default_annulus(0.2, 0.35, 21, 48)
    return [ws.antiderivative_on_grid(f, data.base, ws.verification_grid(sid), sing),
            ws.antiderivative_on_grid(f, 0.3, annulus, sing)]


@pytest.mark.parametrize("block", [SMALL_BLOCK, WHOLE_GRID])
@pytest.mark.parametrize("sid", CATALOG + [FG_FAMILY, PHASED])
def test_grid_antiderivative_independent_of_block_size(monkeypatch, sid, block):
    default = _grid_antiderivatives(sid)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    for got, want in zip(_grid_antiderivatives(sid), default):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sid", CATALOG + [FG_FAMILY])
def test_chain_orders_match_32_point_oracle(monkeypatch, sid):
    shipped = _grid_antiderivatives(sid, n_fg=256)
    monkeypatch.setattr(quadrature, "_CHAIN_ORDERS", (32,))
    for got, want in zip(shipped, _grid_antiderivatives(sid, n_fg=256)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("sid", ["catenoid", "henneberg", "general_enneper"])
def test_chain_orders_match_32_point_oracle_near_the_pole(monkeypatch, sid):
    # coarse radial segments reach within a segment length of the pole at 0
    data = ws.we_data(sid)
    f, sing = _integrand(data.R), singularity_points(data.R)
    annulus = ws.default_annulus(0.05, 0.9, 8, 16)
    shipped = ws.antiderivative_on_grid(f, 0.5, annulus, sing)
    monkeypatch.setattr(quadrature, "_CHAIN_ORDERS", (32,))
    oracle = ws.antiderivative_on_grid(f, 0.5, annulus, sing)
    assert np.max(np.abs(shipped - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_chain_order_from_bernstein_bound():
    z = np.linspace(0.0, 1.0, 11)  # ten segments of length h = 0.1
    z0, z1 = z[:-1], z[1:]
    order = lambda sing, cap=32: quadrature._chain_order(z0, z1, sing, cap)
    assert order([0.55 + 0.05j]) == 32  # half a segment length off the chain
    assert order([0.55 + 0.3j]) == 16   # three segment lengths
    assert order([0.55 + 2.0j]) == 8
    assert order([0.55 + 0.05j], cap=16) == 16
    assert order([0.55 + 2.0j], cap=16) == 8
    for cap in RULES.values():  # no declared singularity: the rule's order
        assert order([], cap) == cap


@pytest.mark.filterwarnings("error")
def test_zero_length_segments_do_not_enter_the_order(monkeypatch):
    used = []
    segment_integrals = quadrature._segment_integrals

    def spy(f, z0, z1, order):
        used.append(order)
        return segment_integrals(f, z0, z1, order)

    monkeypatch.setattr(quadrature, "_segment_integrals", spy)
    radii = np.linspace(0.4, 0.9, 11)
    radii = np.concatenate([radii[:4], radii[3:]])  # one repeated row
    # a moving chain next to one that stays at 0.5 (all segments zero length)
    pts = np.stack([radii, np.full_like(radii, 0.5)], axis=1).astype(complex)
    cum = quadrature._cumulative_chain(lambda w: 1.0 / w, pts, 0, 32, [0.0], 1e-3)
    assert used == [8]
    assert np.max(np.abs(cum[:, 0] - np.log(radii / 0.4))) < 1e-14
    assert np.all(cum[:, 1] == 0)


@pytest.mark.parametrize("block", [1, WHOLE_GRID])
def test_path_integral_independent_of_block_size(monkeypatch, block):
    f = lambda w: np.stack([np.exp(w) / (w - 2.5j), w ** 2])
    path = ws.PathSpec((-0.3 + 0.1j, 0.9 + 0.6j, 0.2 - 0.4j), panels=9)
    default = ws.integrate_path(f, path)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    assert np.array_equal(ws.integrate_path(f, path), default)


def test_nonfinite_integrand_in_a_later_block_rejected(monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", SMALL_BLOCK)
    path = ws.PathSpec((0.0, 1.0), panels=40)
    with pytest.raises(QuadratureError, match="non-finite"):
        ws.integrate_path(lambda w: np.where(w.real > 0.9, np.nan, 1.0), path)


def test_branch_region_error_in_a_later_block(monkeypatch):
    R = ws.we_data("schwarz_riemann").R
    grid = ws.default_annulus(0.2, 0.6, 21, 48)  # crosses the principal-branch cut
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", SMALL_BLOCK)
    with pytest.raises(BranchRegionError, match="principal-branch region"):
        ws.antiderivative_on_grid(_integrand(R), 0.3, grid)


def test_pair_generation_memory_bounded_by_output():
    # the quadrature's scratch is a fixed number of nodes, so the peak is
    # the returned arrays plus O(grid) working arrays, not ~4 KB per node
    grid = ws.default_annulus(0.4, 0.9, 256, 256)
    data = ws.we_data("catenoid")
    tracemalloc.start()
    try:
        pair = ws.generate_conjugate_pair(data, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for s in pair for a in (s.values, s.jac, s.jac2))
    assert peak <= 2 * out, f"peak {peak / out:.2f}x the output"


def test_polynomial_exact():
    r = 0.3 + 0.7j
    val = ws.integrate_path(lambda w: 2.0 * w, ws.PathSpec((1.0, r)))
    assert abs(val - (r ** 2 - 1.0)) < 1e-12


def test_reciprocal_along_unit_arc_fixes_branch():
    # counterclockwise quarter turn: int dw/w = i pi/2 on the continued branch
    arc = ws.PathSpec(tuple(np.exp(1j * np.linspace(0.0, np.pi / 2, 12))))
    val = ws.integrate_path(lambda w: 1.0 / w, arc, singularities=[0.0])
    assert abs(val - 0.5j * np.pi) < 1e-10


def test_singularity_exclusion_raises():
    path = ws.PathSpec((-1.0, 1.0))
    with pytest.raises(PathNearSingularity):
        ws.integrate_path(lambda w: 1.0 / w, path, singularities=[0.0])


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        ws.integrate_path(lambda w: np.where(np.abs(w) < 2, np.inf, 1.0),
                          ws.PathSpec((0.0, 1.0)))


def test_panel_doubling_estimate_and_spectral_gain():
    f = lambda w: 1.0 / (w - (0.5 + 0.35j))
    path = ws.PathSpec((0.0, 1.0), panels=1)
    exact = np.log(1.0 - (0.5 + 0.35j)) - np.log(-(0.5 + 0.35j))
    val16, est = ws.integrate_path_with_error(f, path, rule="gauss_legendre_16")
    err1 = abs(ws.integrate_path(f, path, rule="gauss_legendre_16") - exact)
    err2 = abs(val16 - exact)
    assert err1 > 1e-12  # single panel measurably inexact for this pole
    assert err1 / max(err2, 1e-16) > 100.0
    assert est >= err2 * 0.1  # estimate tracks the true gap's order of magnitude


def test_additivity_of_consecutive_segments():
    f = lambda w: np.exp(w) * w
    a, b, c = 0.0, 0.4 + 0.2j, 1.0 - 0.5j
    whole = ws.integrate_path(f, ws.PathSpec((a, c)))
    parts = ws.integrate_path(f, ws.PathSpec((a, b))) + ws.integrate_path(f, ws.PathSpec((b, c)))
    direct = ws.integrate_path(f, ws.PathSpec((a, b, c)))
    assert abs(parts - direct) < 1e-14
    # path independence for entire f
    assert abs(whole - direct) < 1e-11


@settings(max_examples=25, deadline=None)
@given(finite_c)
def test_path_independence_for_entire_integrand(mid):
    a, c = -0.5 - 0.25j, 1.0 + 0.75j
    if mid in (a, c):
        mid = mid + 0.1
    f = lambda w: np.cos(w) + w ** 3
    direct = ws.integrate_path(f, ws.PathSpec((a, c)))
    detour = ws.integrate_path(f, ws.PathSpec((a, mid, c)))
    assert abs(direct - detour) < 1e-11


# ------------------------------------------------------- antiderivative grid

def test_antiderivative_of_zero():
    g = ws.ParamGrid("rectangle", 7, 9, (-0.5, 0.5, -0.5, 0.5))
    F = ws.antiderivative_on_grid(lambda w: np.zeros_like(w), 0.2, g)
    assert np.max(np.abs(F)) == 0.0


def test_antiderivative_of_one_is_displacement():
    g = ws.ParamGrid("rectangle", 11, 13, (-0.5, 0.5, -0.4, 0.6))
    F = ws.antiderivative_on_grid(lambda w: np.ones_like(w), 0.0, g)
    assert np.max(np.abs(F - g.nodes())) < 1e-13


def test_antiderivative_branch_tracked_log():
    g = ws.default_annulus(0.4, 0.9, 21, 64)
    F = ws.antiderivative_on_grid(lambda w: 1.0 / w, 1.0, g, singularities=[0.0])
    expected = np.log(g.axis1)[:, None] + 1j * g.axis2[None, :]
    assert np.max(np.abs(F - expected)) < 1e-10


def test_antiderivative_conjugate_plane():
    # int_{conj base}^{conj node} s^2 ds = (rbar^3 - conj(base)^3) / 3
    g = ws.default_annulus(0.5, 0.8, 11, 32)
    base = 0.7 + 0.1j
    F = ws.antiderivative_on_grid(lambda s: s ** 2, base, g, conjugate_plane=True)
    rb = np.conj(g.nodes())
    assert np.max(np.abs(F - (rb ** 3 - np.conj(base) ** 3) / 3.0)) < 1e-12


def test_antiderivative_base_on_grid_node_is_zero_there():
    g = ws.ParamGrid("rectangle", 5, 5, (-0.2, 0.2, -0.2, 0.2))
    base = complex(g.nodes()[2, 2])
    F = ws.antiderivative_on_grid(lambda w: np.exp(w), base, g)
    assert F[2, 2] == 0.0


# ------------------------------------------------------ BLAS kernel choice

def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25, or no BLAS entry
        return False
    return "openblas" in blas.get("name", "").lower() and \
        "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has(flag: str) -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and flag in line.split()
                       for line in fh)
    except OSError:
        return False


def _run_under_kernel(core: str, args: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)


@pytest.mark.skipif(not (_openblas_dynamic_arch() and _cpu_has("avx")),
                    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, "
                           "on an x86-64 CPU with AVX")
def test_cli_outputs_identical_across_openblas_kernels(tmp_path):
    commands = (["generate"], ["family-verify"], ["residuals", "--surface", "scherk"])
    outs = {}
    for core in ("Katmai", "Sandybridge"):
        for cmd in commands:
            out = tmp_path / core / cmd[0]
            proc = _run_under_kernel(core, ["-m", "wesurf.cli", *cmd, "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            outs[core, cmd[0]] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for cmd in commands:
        katmai, sandy = outs["Katmai", cmd[0]], outs["Sandybridge", cmd[0]]
        assert katmai and katmai.keys() == sandy.keys()
        differ = [name for name in katmai if katmai[name] != sandy[name]]
        assert not differ, f"{cmd[0]}: {differ} differ between BLAS kernels"


ALIGN_HASH = """
import hashlib
import wesurf as ws
grid = ws.default_annulus(0.4, 0.9, 51, 128)
X, _ = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
print(hashlib.sha256(ws.align_rigid(X, ws.catenoid_closed(grid)).aligned.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not (_openblas_dynamic_arch() and _cpu_has("avx2")),
                    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, "
                           "on an x86-64 CPU with AVX2")
def test_rigid_alignment_identical_across_openblas_kernels():
    digests = set()
    for core in ("Katmai", "Haswell"):
        proc = _run_under_kernel(core, ["-c", ALIGN_HASH])
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
