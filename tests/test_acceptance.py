"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them).

Desk scale: grids <= 128 nodes per axis, steps ~1e-2 on the per-entry
verification domains.  Where a check is finite-difference based, the stencil
accuracy used is the one that attains the stated tolerance (the default
second-order stencils have O(h^2) ~ 1e-4 truncation at h = 1e-2, far coarser
than several of the tolerances below); derivative-field checks additionally
run on the generators' exact derivatives.
"""

import math

import numpy as np
import pytest

import wesurf as ws

from oracles import align_rigid, graph_patch, theta_derivative, wick_catenoid_graph_fns

ALL_IDS = [i for i in ws.CATALOG_IDS if i != "custom"]
THETAS_25 = (0.0, 0.3, 0.7, 1.1, math.pi / 2)
THETAS_41 = (0.0, 0.4, 0.8, 1.2, math.pi / 2)


def record(name: str, value: float, bound: float, note: str = ""):
    ok = value < bound
    tag = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"[acceptance] {name}: {value:.3e} < {bound:.1e} {tag}{extra}")
    assert ok, f"{name}: {value:.3e} !< {bound:.1e}"


_pairs_cache: dict = {}


def pair_for(sid: str, refine: int = 1):
    key = (sid, refine)
    if key not in _pairs_cache:
        grid = ws.verification_grid(sid, refine=refine)
        _pairs_cache[key] = ws.generate_conjugate_pair(ws.we_data(sid), grid)
    return _pairs_cache[key]


# ---------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("sid", ALL_IDS)
def test_criterion_1_minimal_residual_with_refinement(sid):
    X, _ = pair_for(sid)
    patch = ws.chain_rule_partials(X, first_source="analytic", accuracy=6,
                                   second_source="fd")
    res = ws.minimal_surface_residual(patch)
    record(f"C1 {sid} residual", res.max_abs, 1e-4)

    X2, _ = pair_for(sid, refine=2)
    patch2 = ws.chain_rule_partials(X2, first_source="analytic", accuracy=6,
                                    second_source="fd")
    res2 = ws.minimal_surface_residual(patch2)
    floor = 1e-9  # below this the ratio only measures round-off
    if res.max_abs > floor:
        ratio = res.max_abs / max(res2.max_abs, 1e-300)
        print(f"[acceptance] C1 {sid} refinement ratio {ratio:.1f}")
        assert ratio > 3.5, f"{sid}: refinement ratio {ratio:.2f} < 3.5"
    else:
        print(f"[acceptance] C1 {sid} at round-off floor ({res.max_abs:.1e}), "
              "ratio check skipped")


# ---------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("sid", ALL_IDS)
def test_criterion_2_conjugate_pair_cauchy_riemann(sid):
    X, Y = pair_for(sid)
    exact = ws.conjugacy_violation(X, Y, source="analytic")
    record(f"C2 {sid} CR (exact derivatives)", exact, 1e-6)
    fd = ws.conjugacy_violation(X, Y, source="fd", accuracy=6, interior_only=True)
    record(f"C2 {sid} CR (finite differences)", fd, 1e-6)


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_quadrature_matches_closed_forms(annulus_grid):
    X, Y = ws.generate_conjugate_pair(ws.we_data("catenoid", base=1.0), annulus_grid)
    dev_cat = align_rigid(X, ws.catenoid_closed(annulus_grid)).max_deviation
    record("C3 catenoid vs closed form", dev_cat, 1e-9)
    dev_hel = align_rigid(Y, ws.helicoid_closed(annulus_grid)).max_deviation
    record("C3 helicoid (conjugate) vs closed form", dev_hel, 1e-9)
    H, _ = ws.generate_conjugate_pair(ws.we_data("right_helicoid", base=1.0),
                                      annulus_grid)
    dev_h2 = align_rigid(H, ws.helicoid_closed(annulus_grid)).max_deviation
    record("C3 right_helicoid vs closed form", dev_h2, 1e-9)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_family_fg_closed_form():
    rng = np.random.default_rng(2024)
    rho = rng.uniform(0.4, 0.9, 100)
    psi = rng.uniform(0.0, 2 * math.pi, 100)
    thetas = rng.uniform(-math.pi, math.pi, 100)
    worst = 0.0
    for r, th in zip(rho * np.exp(1j * psi), thetas):
        fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), th)
        worst = max(worst, abs(fg.F(r) - 0.5j * np.exp(-1j * th) / r),
                    abs(fg.G(np.conj(r)) + 0.5j * np.exp(1j * th) / np.conj(r)))
    record("C4 family F/G closed form (100 samples)", worst, 1e-12)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_soliton_relations_and_residuals(hc_family, enneper_family):
    families = [("helicoid/catenoid", hc_family,
                 (ws.helicoid_fg(), ws.catenoid_fg()), [0.0]),
                ("enneper", enneper_family,
                 (ws.enneper_fg(), ws.enneper_conjugate_fg()), [])]
    for name, fam, (fg1, fg2), sing in families:
        worst_rel, worst_res = 0.0, 0.0
        for th in THETAS_25:
            S = fam.at(th)
            rep = ws.verify_soliton_relations(S, ws.family_fg(fg1, fg2, th),
                                              singularities=sing)
            worst_rel = max(worst_rel, rep.max_mismatch)
            patch = ws.wick_substitute(ws.chain_rule_partials(
                S.member, first_source="analytic", second_source="analytic"))
            worst_res = max(worst_res, ws.born_infeld_residual(patch).max_abs)
        record(f"C5 {name} soliton relations", worst_rel, 1e-8)
        record(f"C5 {name} Born-Infeld residual", worst_res, 1e-4)


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_theta_derivatives_bit_for_bit(hc_family):
    theta = 0.3
    base = hc_family.at(theta)
    d4 = theta_derivative(hc_family, theta, 4)
    ok4 = np.array_equal(d4.values, base.values)
    print(f"[acceptance] C6 order-4 derivative equals S_theta bit-for-bit: "
          f"{'PASS' if ok4 else 'FAIL'}")
    assert ok4
    for order in (1, 2, 3):
        shifted = hc_family.at(theta + order * math.pi / 2)
        ok = np.array_equal(theta_derivative(hc_family, theta, order).values,
                            shifted.values)
        print(f"[acceptance] C6 order-{order} equals family at theta+{order}pi/2: "
              f"{'PASS' if ok else 'FAIL'}")
        assert ok


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_first_form_and_action_invariance(hc_family, annulus_grid):
    sweep = ws.theta_sweep_invariance(hc_family, THETAS_41)
    record("C7 E deviation over sweep", float(np.max(sweep.e_devs)), 1e-8)
    record("C7 G deviation over sweep", float(np.max(sweep.g_devs)), 1e-8)
    record("C7 max |F|", float(np.max(sweep.f_abs)), 1e-8)
    acts = [ws.action(ws.fundamental_form(hc_family.at(t).member,
                                          source="analytic").discriminant(), annulus_grid)
            for t in THETAS_41]
    spread = (max(acts) - min(acts)) / abs(np.median(acts))
    record("C7 action relative spread", spread, 1e-7)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_lorentz_symmetry():
    n = 51
    xs = np.linspace(2.0, 3.0, n)[:, None] + np.zeros((1, n))
    ts = np.zeros((n, 1)) + np.linspace(-0.45, 0.45, n)[None, :]
    patch = graph_patch(xs, ts, wick_catenoid_graph_fns())
    base = ws.born_infeld_residual(patch)
    worst_delta, worst_comp = 0.0, 0.0
    for rap in (0.2, 0.8, 1.5):
        after = ws.born_infeld_residual(ws.boost(patch, ws.LorentzBoost(rap)))
        worst_delta = max(worst_delta, abs(base.max_abs - after.max_abs),
                          abs(base.rms - after.rms))
        once = ws.boost(patch, ws.LorentzBoost(rap))
        twice = ws.boost(ws.boost(patch, ws.LorentzBoost(0.5 * rap)),
                         ws.LorentzBoost(0.5 * rap))
        worst_comp = max(worst_comp,
                         float(np.max(np.abs(once.x - twice.x))),
                         float(np.max(np.abs(once.t - twice.t))))
    record("C8 residual stats boost delta", worst_delta, 1e-4)
    record("C8 boost composition law", worst_comp, 1e-12)


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_wick_equivalence(annulus_grid):
    worst = 0.0
    for make in (ws.helicoid_closed, ws.catenoid_closed):
        p = ws.chain_rule_partials(make(annulus_grid), first_source="analytic",
                                   second_source="analytic")
        worst = max(worst, ws.born_infeld_residual(ws.wick_substitute(p)).max_abs)
    record("C9 wick equivalence (helicoid, catenoid)", worst, 1e-5)

    # on real data the substitution's Born-Infeld residual is the minimal
    # residual bit for bit: the identity that a separate gate could not move
    X = ws.generate(ws.we_data("catenoid"), ws.verification_grid("catenoid"))
    p = ws.chain_rule_partials(X, accuracy=6)
    same = repr(ws.born_infeld_residual(ws.wick_substitute(p))) == repr(
        ws.minimal_surface_residual(p))  # repr round-trips every float bit
    print(f"[acceptance] C9 Wick-substituted B-I residual is the minimal residual "
          f"bit for bit: {'PASS' if same else 'FAIL'}")
    assert same

    n = 21
    xs = np.linspace(2.0, 3.0, n)[:, None] + np.zeros((1, n))
    ts = np.zeros((n, 1)) + np.linspace(-0.5, 0.5, n)[None, :]
    fns = {"phi": lambda x, t: x ** 2 + t ** 2,
           "phi_x": lambda x, t: 2 * x, "phi_t": lambda x, t: 2 * t,
           "phi_xx": lambda x, t: 2.0 + 0 * x, "phi_xt": lambda x, t: 0.0 * x,
           "phi_tt": lambda x, t: 2.0 + 0 * x}
    control = graph_patch(xs, ts, fns)
    m = ws.minimal_surface_residual(control).max_abs
    b = ws.born_infeld_residual(control).max_abs
    ok = m > 1e-1 and b > 1e-1
    print(f"[acceptance] C9 negative control fails both residuals "
          f"(minimal {m:.2e}, B-I {b:.2e}): {'PASS' if ok else 'FAIL'}")
    assert ok


# --------------------------------------------------------------- criterion 10

def test_criterion_10_family_verify_determinism(tmp_path):
    from wesurf.cli import main
    outs = []
    for sub in ("one", "two"):
        outdir = tmp_path / sub
        rc = main(["family-verify", "--surface", "catenoid",
                   "--theta", "0", "0.3", "0.7", "1.1", str(math.pi / 2),
                   "--out", str(outdir)])
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    ok = outs[0].keys() == outs[1].keys() and all(
        outs[0][k] == outs[1][k] for k in outs[0])
    print(f"[acceptance] C10 repeated family-verify byte-identical "
          f"({len(outs[0])} files): {'PASS' if ok else 'FAIL'}")
    assert ok
    assert any(k.endswith(".obj") for k in outs[0])
    assert any(k.endswith(".csv") for k in outs[0])
