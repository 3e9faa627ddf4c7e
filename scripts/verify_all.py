#!/usr/bin/env python3
"""Full verification sweep over the surface catalog.

For every catalog entry: generate the conjugate pair on its verification
domain and report the minimal-surface residual, Cauchy-Riemann defect,
isothermality defect and harmonicity.  Then sweep the helicoid/catenoid and
Enneper soliton families over theta and report, at each theta, the
Born-Infeld residual, the first-form deviations and the action.

Usage:
    python scripts/verify_all.py [--out DIR]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

import wesurf as ws
from wesurf.io_export import write_report_csv
from wesurf.stencils import interior_mask

THETAS = (0.0, 0.3, 0.7, 1.1, math.pi / 2)


def catalog_rows():
    rows = []
    for sid in (i for i in ws.CATALOG_IDS if i != "custom"):
        grid = ws.verification_grid(sid)
        X, Y = ws.generate_conjugate_pair(ws.we_data(sid), grid)
        patch = ws.chain_rule_partials(X, first_source="analytic", accuracy=6)
        residual = ws.minimal_surface_residual(patch).max_abs
        cr = ws.conjugacy_violation(X, Y, source="fd", accuracy=6,
                                    interior_only=True)
        iso = ws.fundamental_form(X, source="analytic").isothermal_defect
        mask = interior_mask(grid.shape, 6, 2)
        harmonic = float(np.max([np.max(np.abs(ws.laplacian(X, c, accuracy=6))[mask])
                                 for c in ("x", "t", "phi")]))
        rows.append([sid, f"{grid.n1}x{grid.n2}", residual, cr, iso, harmonic])
        print(f"{sid:20s} residual {residual:9.2e}  CR {cr:9.2e}  "
              f"isothermal {iso:9.2e}  harmonic {harmonic:9.2e}")
    return rows


def family_rows():
    rows = []
    grid = ws.default_annulus()
    cases = [
        ("helicoid/catenoid",
         ws.SolitonFamily(ws.helicoid_closed(grid), ws.catenoid_closed(grid)),
         (ws.helicoid_fg(), ws.catenoid_fg()), [0.0]),
    ]
    egrid = ws.verification_grid("enneper")
    eX, eY = ws.generate_conjugate_pair(ws.we_data("enneper"), egrid)
    cases.append(("enneper", ws.SolitonFamily(eX, eY),
                  (ws.enneper_fg(), ws.enneper_conjugate_fg()), []))
    for name, fam, (fg1, fg2), sing in cases:
        sweep = ws.theta_sweep_invariance(fam, THETAS)
        for th, e_dev, f_abs, act in zip(THETAS, sweep.e_devs, sweep.f_abs, sweep.actions):
            S = fam.at(th)
            patch = ws.chain_rule_partials(S.member, first_source="analytic",
                                           second_source="analytic")
            bi = ws.born_infeld_residual(ws.wick_substitute(patch)).max_abs
            rel = ws.verify_soliton_relations(S, ws.family_fg(fg1, fg2, th),
                                              singularities=sing).max_mismatch
            rows.append([name, th, bi, rel, act, e_dev, f_abs])
            print(f"{name:20s} theta {th:5.2f}  B-I {bi:9.2e}  "
                  f"relations {rel:9.2e}  action {act:.8f}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="verify_out")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(out / "catalog_checks.csv",
                     ["surface", "grid", "minimal_residual", "cr_defect",
                      "isothermal_defect", "harmonicity"], catalog_rows())
    write_report_csv(out / "family_checks.csv",
                     ["family", "theta", "bi_residual", "relations_mismatch",
                      "action", "e_deviation", "f_max"], family_rows())
    print(f"reports written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
