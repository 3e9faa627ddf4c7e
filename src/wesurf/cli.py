"""Command-line driver.

Subcommands
-----------
generate       sample a surface and its harmonic conjugate, export mesh/CSV
               plus a harmonicity/conjugacy report
family-verify  sweep the soliton family over theta and check the invariants
               (Born-Infeld residual, E/F/G constancy, action, boost delta)
residuals      minimal-surface residual over finite-difference second partials
boost-check    Lorentz-boost invariance of the Born-Infeld residual of S_0 = X^s,
               built on family-verify's patch route, and the boost composition law
export         write one artifact (obj/csv/table) for a surface

Configuration is a flat INI file (sections [surface], [grid], [family],
[tolerances], [output]) mirrored by command-line flags; flags override the
file.  --formats and the [output] formats key serve generate (csv, obj,
table) and family-verify (csv, obj) only.  WESURF_OUT overrides the output
directory from either source.  Exit codes: 0 success, 1 tolerance
breach, 2 configuration/usage error, 3 internal error (an exception that is
not one of the library's input errors: one `internal error:` line, no
traceback).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import CATALOG_IDS, CatalogError, verification_grid
from .family import FamilyError, _cos_sin
from .generate import (GenerateError, WEData, gamma_chart_sector, generate,
                       generate_conjugate_pair, we_data)
from .geometry import GeometryError, fundamental_form, theta_sweep_invariance
from .grids import GridError, ParamGrid, SurfaceGrid, conjugacy_violation, laplacian
from .hodograph import HodographError
from .io_export import (export_mesh, write_report_csv, write_surface_csv,
                        write_surface_table)
from .pde import (LorentzBoost, PDEError, boost, born_infeld_residual,
                  chain_rule_partials, minimal_surface_residual, wick_substitute)
from .quadrature import QuadratureError
from .reports import residual_report
from .stencils import StencilError, interior_mask

DEFAULT_THETAS = (0.0, 0.3, 0.7, 1.1, math.pi / 2)
VALID_FORMATS = ("csv", "obj", "table")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    surface: str = "catenoid"
    params: dict = field(default_factory=dict)      # kappa/alpha/a/b overrides
    base: complex | None = None
    grid: ParamGrid | None = None                   # None -> entry default
    thetas: tuple[float, ...] = DEFAULT_THETAS
    rapidities: tuple[float, ...] = (0.8,)
    resid_tol: float = 1e-4
    cr_tol: float = 1e-6
    dev_tol: float = 1e-8
    f_tol: float = 1e-8
    action_rel_tol: float = 1e-7
    boost_tol: float = 1e-4
    comp_tol: float = 1e-12
    harmonic_tol: float = 1e-6
    out_dir: Path = Path(".")
    formats: tuple[str, ...] = ("csv", "obj")
    corrupt_y_scale: float = 1.0

    def validate(self, need_thetas: bool = False, formats: tuple[str, ...] = ()) -> None:
        """Check the config.  `formats` are the export formats the command
        takes; a command that takes none does not read the `formats`
        setting, so it does not check it."""
        _surface_id(self.surface)
        if need_thetas and len(self.thetas) == 0:
            raise ConfigError("theta list must not be empty for family commands")
        if not all(math.isfinite(th) for th in self.thetas):
            raise ConfigError(f"thetas must be finite, got {self.thetas}")
        for rap in self.rapidities:
            try:
                LorentzBoost(rap)
            except PDEError as exc:
                raise ConfigError(str(exc)) from None
        for name in TOLERANCES:
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive")
        if formats:
            if not self.formats:
                raise ConfigError(f"format list must not be empty; valid: {formats}")
            bad = [f for f in self.formats if f not in formats]
            if bad:
                raise ConfigError(f"unknown export formats {bad}; valid here: {formats}")


def _surface_id(surface: str) -> str:
    """`surface`, if the CLI serves it (custom: Python API only)."""
    if surface not in (ids := [i for i in CATALOG_IDS if i != "custom"]):
        raise ConfigError(f"unknown surface id {surface!r}; valid ids: " + ", ".join(ids))
    return surface


# every check tolerance: validated, read from [tolerances] and set by --<name>
TOLERANCES = tuple(f.name for f in fields(RunConfig) if f.name.endswith("_tol"))


def _read_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
        values = _config_values(cp)
    except (ValueError, configparser.Error) as exc:
        # a value that does not parse, or a file with no [section] header
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return values


def _config_values(cp: configparser.ConfigParser) -> dict:
    out: dict = {}
    sec = cp["surface"] if cp.has_section("surface") else {}
    if "id" in sec:
        out["surface"] = sec["id"]
    for key in ("kappa", "alpha", "a", "b"):
        if key in sec:
            out.setdefault("params", {})[key] = float(sec[key])
    if "base_re" in sec or "base_im" in sec:
        out["base"] = complex(float(sec.get("base_re", 0.0)),
                              float(sec.get("base_im", 0.0)))
    if cp.has_section("grid"):
        g = cp["grid"]
        kind = g.get("kind", "annulus")
        n1 = g.getint("n1", 64)
        n2 = g.getint("n2", n1)
        if kind == "annulus":
            bounds = (g.getfloat("rho_min", 0.4), g.getfloat("rho_max", 0.9),
                      g.getfloat("psi_min", 0.0), g.getfloat("psi_max", 2 * math.pi))
        else:
            bounds = (g.getfloat("r1_min", -0.5), g.getfloat("r1_max", 0.5),
                      g.getfloat("r2_min", -0.5), g.getfloat("r2_max", 0.5))
        out["grid"] = ParamGrid(kind, n1, n2, bounds)
    if cp.has_section("family"):
        fam = cp["family"]
        if "thetas" in fam:
            out["thetas"] = tuple(float(v) for v in fam["thetas"].split(",") if v.strip())
        if "rapidity" in fam:
            out["rapidities"] = tuple(float(v) for v in fam["rapidity"].split(",") if v.strip())
    if cp.has_section("tolerances"):
        for key, val in cp["tolerances"].items():
            if key not in TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}; valid: {TOLERANCES}")
            out[key] = float(val)
    if cp.has_section("output"):
        o = cp["output"]
        if "dir" in o:
            out["out_dir"] = _out_dir(o["dir"])
        if "formats" in o:
            out["formats"] = tuple(v.strip() for v in o["formats"].split(",") if v.strip())
    return out


def _out_dir(value: str) -> Path:
    if not value:  # Path("") is the working directory
        raise ConfigError("output directory must not be empty")
    return Path(value)


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None) is not None:
        for key, val in _read_config_file(args.config).items():
            setattr(cfg, key, val)
    if getattr(args, "surface", None) is not None:
        cfg.surface = args.surface
    for key in ("kappa", "alpha", "a", "b"):
        val = getattr(args, key, None)
        if val is not None:
            cfg.params[key] = val
    if getattr(args, "base", None) is not None:
        cfg.base = complex(args.base[0], args.base[1])
    annulus, counts = getattr(args, "annulus", None), getattr(args, "n", None)
    if annulus is not None and len(annulus) not in (2, 4):
        raise ConfigError(f"--annulus takes rho_min rho_max [psi_min psi_max], "
                          f"got {len(annulus)} values")
    if counts is not None and len(counts) > 2:
        raise ConfigError(f"--n takes n1 [n2], got {len(counts)} values")
    n = counts or [64]
    charts = [f"--{name.replace('_', '-')}" for name in ("gamma_chart", "annulus", "rect")
              if getattr(args, name, None) is not None]
    if len(charts) > 1:
        raise ConfigError(f"give at most one of --gamma-chart, --annulus and --rect, "
                          f"got {' and '.join(charts)}")
    if getattr(args, "gamma_chart", None) is not None:
        g = args.gamma_chart
        cfg.grid = gamma_chart_sector(g[0], g[1], g[2], g[3], n[0], n[-1])
    elif annulus is not None:
        bounds = (*annulus, 0.0, 2 * math.pi)[:4]
        cfg.grid = ParamGrid("annulus", n[0], n[-1], bounds)
    elif getattr(args, "rect", None) is not None:
        cfg.grid = ParamGrid("rectangle", n[0], n[-1], tuple(args.rect))
    elif counts:
        base_grid = cfg.grid or verification_grid(_surface_id(cfg.surface))
        cfg.grid = ParamGrid(base_grid.kind, n[0], n[-1], base_grid.bounds,
                             base_grid.allow_unit_circle)
    if getattr(args, "theta", None) is not None:
        cfg.thetas = tuple(args.theta)
    if getattr(args, "rapidity", None) is not None:
        cfg.rapidities = tuple(args.rapidity)
    for name in TOLERANCES:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = _out_dir(args.out)
    if os.environ.get("WESURF_OUT"):
        cfg.out_dir = Path(os.environ["WESURF_OUT"])
    if getattr(args, "formats", None) is not None:
        cfg.formats = tuple(v.strip() for v in args.formats.split(",") if v.strip())
    if getattr(args, "corrupt_y_scale", None) is not None:
        cfg.corrupt_y_scale = args.corrupt_y_scale
    return cfg


def _inputs(cfg: RunConfig) -> tuple[WEData, ParamGrid]:
    grid = cfg.grid or verification_grid(cfg.surface)
    return we_data(cfg.surface, base=cfg.base, **cfg.params), grid


def _export_surface(s: SurfaceGrid, stem: str, cfg: RunConfig) -> list[Path]:
    written = []
    if "obj" in cfg.formats:
        written.append(export_mesh(s, cfg.out_dir / f"{stem}.obj"))
    if "csv" in cfg.formats:
        written.append(write_surface_csv(s, cfg.out_dir / f"{stem}.csv"))
    if "table" in cfg.formats:
        written.append(write_surface_table(s, cfg.out_dir / f"{stem}.dat"))
    return written


def cmd_generate(cfg: RunConfig) -> int:
    cfg.validate(formats=VALID_FORMATS)
    data, grid = _inputs(cfg)
    X, Y = generate_conjugate_pair(data, grid)
    files = _export_surface(X, cfg.surface, cfg)
    files += _export_surface(Y, f"{cfg.surface}_conjugate", cfg)
    rows = []
    worst_h = 0.0
    # harmonicity over centered-stencil nodes; one-sided edge closures carry
    # larger truncation constants and would mask the surface property
    mask = interior_mask(grid.shape, 6, 2)
    for label, srf in (("surface", X), ("conjugate", Y)):
        for comp in ("x", "t", "phi"):
            h_max = float(np.max(np.abs(laplacian(srf, comp, accuracy=6))[mask]))
            worst_h = float(np.maximum(worst_h, h_max))
            rows.append([label, comp, h_max])
    form = fundamental_form(X, source="auto")
    rows.append(["surface", "isothermal_defect", form.isothermal_defect])
    cr = conjugacy_violation(X, Y, source="auto")
    rows.append(["pair", "cr_defect", cr])
    files.append(write_report_csv(cfg.out_dir / f"{cfg.surface}_report.csv",
                                  ["target", "quantity", "max_abs"], rows))
    for f in files:
        print(f)
    print(f"harmonicity max {worst_h:.3e}, isothermal defect "
          f"{form.isothermal_defect:.3e}, CR defect {cr:.3e}")
    # Harmonicity rows are reported, not gated: they measure the stencil's
    # truncation as much as the surface (6e-6 on a 24x24 full annulus).
    # Both gated rows come from the exact derivatives the surfaces carry.
    status = 0
    for quantity, value, tol in (("isothermal_defect", form.isothermal_defect, cfg.dev_tol),
                                 ("cr_defect", cr, cfg.cr_tol)):
        if not value <= tol:  # NaN fails
            print(f"tolerance breach: {quantity} {value:.3e} (tol {tol:.1e})",
                  file=sys.stderr)
            status = 1
    return status


def cmd_family_verify(cfg: RunConfig) -> int:
    cfg.validate(need_thetas=True, formats=("csv", "obj"))  # csv: the report alone
    if len(cfg.rapidities) != 1:  # the boost_delta column has one rapidity
        raise ConfigError(f"family-verify takes one rapidity, got {list(cfg.rapidities)}")
    lb = LorentzBoost(cfg.rapidities[0])
    fam = generate_conjugate_pair(*_inputs(cfg), y_scale=cfg.corrupt_y_scale)
    header = ["theta", "max_bi_residual", "e_deviation", "g_deviation",
              "max_f_abs", "action", "boost_delta"]
    # per theta index: (unboosted, boosted) max residual of each band
    band_maxima = [[] for _ in cfg.thetas]
    circle = []  # per band: max over the circle of theta of the unboosted residual

    def check_band(rows, band):
        # S_theta's real member X_theta = c X + s Y shares X's and Y's Gauss
        # map, and its Hessian is c H_X + s H_Y, so its residuals, linear in
        # the Hessian, are c r_X + s r_Y: one patch of X, then one of Y.  By
        # the Wick identity a member's minimal residual is S_theta's
        # Born-Infeld residual, bit for bit; the boosted data are complex
        residuals, keep = [], True
        for member in band:
            patch = chain_rule_partials(member, second_source="analytic")
            del member  # free its jac and jac2 before the boost
            residuals.append((minimal_surface_residual(patch).residual,
                              born_infeld_residual(boost(wick_substitute(patch), lb)).residual))
            keep = keep & patch.valid_mask
            del patch  # free X's patch before Y's is built
        (r_x, rb_x), (r_y, rb_y) = residuals
        on_circle = residual_report(np.hypot(r_x, r_y), keep)
        if on_circle.node_count:  # a band that keeps no node has no maximum
            circle.append(on_circle.max_abs)
            for k, theta in enumerate(cfg.thetas):
                c, s = _cos_sin(theta)
                band_maxima[k].append((residual_report(c * r_x + s * r_y, keep).max_abs,
                                       residual_report(c * rb_x + s * rb_y, keep).max_abs))

    sweep = theta_sweep_invariance(fam, cfg.thetas, per_band=check_band)
    rows = []
    for th, bands, *form_columns in zip(sweep.thetas, band_maxima, sweep.e_devs,
                                        sweep.g_devs, sweep.f_abs, sweep.actions):
        # np.max, not max(): a NaN in any band must fail the gate
        res, res_b = np.max(bands, axis=0) if bands else (math.nan, math.nan)
        rows.append([th, float(res), *form_columns, float(abs(res - res_b))])
    report = write_report_csv(cfg.out_dir / "family_verify.csv", header, rows)
    meshes = [export_mesh(fam.at(th), cfg.out_dir / f"s_theta_{th:.6g}.obj")
              for th in sweep.thetas if "obj" in cfg.formats]
    print(report, *meshes, sep="\n")
    # numpy reductions, not max(): a NaN at any theta must fail its gate
    column = {name: np.array([row[k] for row in rows])
              for k, name in enumerate(header)}
    actions = column["action"]
    spread = (np.max(actions) - np.min(actions)) / max(abs(np.median(actions)), 1e-300)
    checks = [
        ("max_bi_residual", np.max(column["max_bi_residual"]), cfg.resid_tol),
        ("max_bi_residual_circle", np.max(circle) if circle else math.nan, cfg.resid_tol),
        ("e_deviation", np.max(column["e_deviation"]), cfg.dev_tol),
        ("g_deviation", np.max(column["g_deviation"]), cfg.dev_tol),
        ("max_f_abs", np.max(column["max_f_abs"]), cfg.f_tol),
        ("action_rel_spread", spread, cfg.action_rel_tol),
        ("boost_delta", np.max(column["boost_delta"]), cfg.boost_tol),
    ]
    status = 0
    for name, value, tol in checks:
        ok = value <= tol
        print(f"{name}: {value:.3e} (tol {tol:.1e}) {'ok' if ok else 'FAIL'}")
        if not ok:
            if name in column:
                worst = int(np.argmax(column[name]))  # the first NaN, if any
                print(f"tolerance breach: {name} at theta="
                      f"{cfg.thetas[worst]:.6g}", file=sys.stderr)
            else:
                print(f"tolerance breach: {name}", file=sys.stderr)
            status = 1
    return status


def cmd_residuals(cfg: RunConfig) -> int:
    cfg.validate()
    X = generate(*_inputs(cfg))
    # accuracy 6: the default O(h^2) truncation sits right at the 1e-4
    # tolerance for the pole-adjacent entries
    patch = chain_rule_partials(X, first_source="auto", accuracy=6, second_source="fd")
    mres = minimal_surface_residual(patch)
    out = write_report_csv(cfg.out_dir / f"{cfg.surface}_residuals.csv",
                           ["kind", "max_abs", "mean_abs", "rms", "nodes", "dropped"],
                           [["minimal", mres.max_abs, mres.mean_abs, mres.rms,
                             mres.node_count, mres.dropped_count]])
    print(out)
    print(f"minimal residual max {mres.max_abs:.3e} (tol {cfg.resid_tol:.1e})")
    if not mres.max_abs <= cfg.resid_tol:  # NaN fails
        where = ""
        if mres.node_count:  # with no retained node, worst_node is (-1, -1)
            r = complex(X.grid.nodes()[mres.worst_node])
            where = f" at node {mres.worst_node}, r = {r:.6g}"
        print(f"tolerance breach: minimal {mres.max_abs:.3e} (tol {cfg.resid_tol:.1e}){where}",
              file=sys.stderr)
        return 1
    return 0


# the boosted fields that the two boost routes must agree on
_BOOSTED_FIELDS = ("x", "t", "phi_x", "phi_t", "phi_xx", "phi_xt", "phi_tt")


def _composition_error(once, twice, field: str, kept: np.ndarray) -> float:
    """max |once - twice| of a boosted field over the retained nodes; phi_t and
    the second partials, which grow with the rapidity like cosh and cosh^2,
    relative to max(1, max |field of once|)."""
    a = getattr(once, field)
    err = np.max(np.abs(a - getattr(twice, field)), where=kept, initial=0.0)
    if field in ("x", "t", "phi_x"):
        return err
    return err / np.maximum(1.0, np.max(np.abs(a), where=kept, initial=0.0))


def cmd_boost_check(cfg: RunConfig) -> int:
    cfg.validate()
    if not cfg.rapidities:  # no rapidity runs no check, which must not pass
        raise ConfigError("boost-check needs at least one rapidity")
    # S_0 = X^s, on the patch route of family-verify's check_band
    X = generate(*_inputs(cfg))
    patch = wick_substitute(chain_rule_partials(X, second_source="analytic"))
    kept = patch.valid_mask  # a dropped node's data mean nothing
    base = born_infeld_residual(patch)
    rows = []
    status = 0
    for rap in cfg.rapidities:
        lb = LorentzBoost(rap)
        once = boost(patch, lb)
        after = born_infeld_residual(once)
        half = LorentzBoost(0.5 * rap)
        twice = boost(boost(patch, half), half)
        comp = float(np.max([_composition_error(once, twice, f, kept)
                             for f in _BOOSTED_FIELDS]))
        delta = abs(base.max_abs - after.max_abs)
        rows.append([rap, base.max_abs, after.max_abs, delta, comp])
        breached = [name for name, value, tol in (("delta", delta, cfg.boost_tol),
                                                  ("composition_error", comp, cfg.comp_tol))
                    if not value <= tol]  # NaN fails
        if breached:
            print(f"tolerance breach at rapidity {rap}: {', '.join(breached)}",
                  file=sys.stderr)
            status = 1
    out = write_report_csv(cfg.out_dir / "boost_check.csv",
                           ["rapidity", "residual_before", "residual_after",
                            "delta", "composition_error"], rows)
    print(out)
    return status


def cmd_export(cfg: RunConfig, fmt: str) -> int:
    cfg.validate()
    if fmt not in VALID_FORMATS:
        raise ConfigError(f"unknown format {fmt!r}; valid: {VALID_FORMATS}")
    cfg.formats = (fmt,)
    X = generate(*_inputs(cfg))
    for f in _export_surface(X, cfg.surface, cfg):
        print(f)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file (flags override it)")
    p.add_argument("--surface", help="catalog surface id")
    p.add_argument("--kappa", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--base", type=float, nargs=2, metavar=("RE", "IM"),
                   help="integration base point")
    p.add_argument("--annulus", type=float, nargs="+",
                   metavar="B", help="rho_min rho_max [psi_min psi_max]")
    p.add_argument("--rect", type=float, nargs=4,
                   metavar=("R1MIN", "R1MAX", "R2MIN", "R2MAX"))
    p.add_argument("--gamma-chart", dest="gamma_chart", type=float, nargs=4,
                   metavar=("G1MIN", "G1MAX", "G2MIN", "G2MAX"),
                   help="exponential chart w = exp(-i gamma/2) over a gamma "
                        "rectangle (Catalan-type parametrizations)")
    p.add_argument("--n", type=int, nargs="+", help="grid counts n1 [n2]")
    p.add_argument("--out", help="output directory")
    for name in TOLERANCES:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wesurf",
                                 description="Weierstrass-Enneper surfaces and "
                                 "Born-Infeld soliton families")
    ap.add_argument("--version", action="version", version=f"wesurf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="surface + conjugate + report")
    _add_common(p)
    p.add_argument("--formats", help="comma list from csv,obj,table")

    p = sub.add_parser("family-verify", help="theta-family invariant sweep")
    _add_common(p)
    p.add_argument("--formats", help="comma list from csv,obj")
    p.add_argument("--theta", type=float, nargs="*",
                   help="family parameters to sweep")
    p.add_argument("--rapidity", type=float, nargs="+")
    p.add_argument("--corrupt-y-scale", dest="corrupt_y_scale", type=float,
                   help="test hook: scale the conjugate member")

    p = sub.add_parser("residuals", help="PDE residual reports")
    _add_common(p)

    p = sub.add_parser("boost-check", help="Lorentz invariance checks")
    _add_common(p)
    p.add_argument("--rapidity", type=float, nargs="+")

    p = sub.add_parser("export", help="write one artifact for a surface")
    _add_common(p)
    p.add_argument("--format", default="obj", help="obj, csv or table")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "family-verify":
            return cmd_family_verify(cfg)
        if args.command == "residuals":
            return cmd_residuals(cfg)
        if args.command == "boost-check":
            return cmd_boost_check(cfg)
        if args.command == "export":
            return cmd_export(cfg, args.format)
        raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover
    except (ConfigError, CatalogError, FamilyError, GenerateError, GeometryError,
            GridError, HodographError, PDEError, QuadratureError, StencilError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
