"""The benchmark's workloads: inputs from a seed, one timed call into
wesurf's public entry points, and fail-closed checks of what it produced.

The seed picks only free inputs (the non-zero thetas, the rapidity, kappa);
grid sizes and theta counts are fixed, so every seed does the same work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from pathlib import Path

import wesurf
from wesurf import cli

# the bound tests/test_family.py holds the F/G certificate to
CERTIFICATE_TOL = 1e-8
THETA_COUNT = 5


def _thetas(rng: random.Random, high: float) -> list[float]:
    return [0.0] + [rng.uniform(0.05, high) for _ in range(THETA_COUNT - 1)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_report(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a wesurf report CSV (schema comment lines skipped)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path.name}: empty report")
    return rows[0], rows[1:]


def bad_value(value: float, tol: float, strict: bool = False) -> bool:
    """True unless value is finite and within tol (NaN and inf fail)."""
    if not math.isfinite(value):
        return True
    return value >= tol if strict else value > tol


def scan_nonfinite(path: Path) -> bool:
    """True if a numeric field of an OBJ/CSV export spells nan or inf."""
    data = path.read_bytes().lower()
    return b"nan" in data or b"inf" in data


class CliWorkload:
    """One `wesurf.cli.main` call per iteration, into an empty directory."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.tol = cli.RunConfig()

    def run(self, out_dir: Path):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv + ["--out", str(out_dir)])
        return code, stderr.getvalue()

    def check(self, result, out_dir: Path) -> tuple[dict[str, str], list[str]]:
        """(sha256 by file name, errors) of one iteration's outputs."""
        code, stderr = result
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        digests = {p.name: sha256(p) for p in files}
        errors = [] if code == 0 else [f"exit code {code}: {stderr.strip()}"]
        missing = sorted(set(self.expected) - set(digests))
        if missing:
            errors.append(f"missing outputs {missing}")
        else:
            errors += self.check_files(out_dir)
        return digests, errors


class FamilyVerify(CliWorkload):
    """The paper's headline check at the 512x512 annulus, CSV report only."""

    expected = ("family_verify.csv",)

    def __init__(self, seed: int, n: int = 512, extra: tuple[str, ...] = ()):
        rng = random.Random(seed)
        self.thetas = _thetas(rng, 2 * math.pi)
        self.rapidity = rng.uniform(0.2, 1.5)
        super().__init__(
            ["family-verify", "--surface", "catenoid", "--annulus", "0.4", "0.9",
             "--n", str(n), "--formats", "csv",
             "--theta", *map(repr, self.thetas),
             "--rapidity", repr(self.rapidity), *extra])

    def check_files(self, out_dir: Path) -> list[str]:
        return check_family_report(out_dir / "family_verify.csv", self.thetas, self.tol)


def check_family_report(path: Path, thetas: list[float], tol) -> list[str]:
    """Every row of family_verify.csv against the tolerance the CLI applies.

    The CLI gates on Python max() over per-theta values, which passes a NaN
    after the first theta; here every cell is checked on its own.
    """
    header, rows = read_report(path)
    limits = {"max_bi_residual": tol.resid_tol, "e_deviation": tol.dev_tol,
              "g_deviation": tol.dev_tol, "max_f_abs": tol.f_tol,
              "boost_delta": tol.boost_tol}
    errors = []
    if len(rows) != len(thetas):
        return [f"{path.name}: {len(rows)} rows for {len(thetas)} thetas"]
    actions = []
    for th, row in zip(thetas, rows):
        vals = dict(zip(header, map(float, row)))
        if vals.get("theta") != th:
            errors.append(f"{path.name}: row theta {row[0]} != input {th!r}")
        for name, limit in limits.items():
            if bad_value(vals.get(name, math.nan), limit):
                errors.append(f"{path.name}: {name} = {vals.get(name)} at theta {th!r}")
        actions.append(vals.get("action", math.nan))
    mid = sorted(actions)[len(actions) // 2]
    spread = (max(actions) - min(actions)) / max(abs(mid), 1e-300)
    if bad_value(spread, tol.action_rel_tol):
        errors.append(f"{path.name}: action relative spread {spread}")
    return errors


class GenerateExport(CliWorkload):
    """Surface and conjugate at 256x256 with the default csv,obj exports."""

    expected = ("catenoid.csv", "catenoid.obj", "catenoid_conjugate.csv",
                "catenoid_conjugate.obj", "catenoid_report.csv")

    def __init__(self, seed: int, n: int = 256):
        self.kappa = random.Random(seed).uniform(0.5, 2.0)
        super().__init__(["generate", "--surface", "catenoid", "--kappa",
                          repr(self.kappa), "--annulus", "0.4", "0.9", "--n", str(n)])

    def check_files(self, out_dir: Path) -> list[str]:
        # `generate` exits 0 whatever its report says; hold each row to the
        # RunConfig tolerance of its quantity
        limits = {"x": self.tol.harmonic_tol, "t": self.tol.harmonic_tol,
                  "phi": self.tol.harmonic_tol, "cr_defect": self.tol.cr_tol,
                  "isothermal_defect": self.tol.dev_tol}
        report = out_dir / "catenoid_report.csv"
        _, rows = read_report(report)
        errors = [f"{report.name}: {target} {qty} = {val}"
                  for target, qty, val in rows
                  if bad_value(float(val), limits.get(qty, -math.inf))]
        if len(rows) != 8:
            errors.append(f"{report.name}: {len(rows)} rows, expected 8")
        errors += [f"{name}: non-finite value" for name in self.expected[:4]
                   if scan_nonfinite(out_dir / name)]
        return errors


class CertifyCatalog:
    """Library route of scripts/verify_all.py: fd minimal-surface residuals
    of all nine catalog entries, then the helicoid/catenoid F/G certificate."""

    def __init__(self, seed: int, refine: int = 2, n: int = 256):
        self.ids = [i for i in wesurf.CATALOG_IDS if i != "custom"]
        self.grids = {sid: wesurf.verification_grid(sid, refine=refine)
                      for sid in self.ids}
        self.annulus = wesurf.ParamGrid("annulus", n, n, (0.4, 0.9, 0.0, 2 * math.pi))
        self.thetas = _thetas(random.Random(seed), math.pi / 2)
        self.tol = cli.RunConfig()

    def run(self, out_dir: Path):
        residuals = {}
        for sid in self.ids:
            X, _ = wesurf.generate_conjugate_pair(wesurf.we_data(sid), self.grids[sid])
            patch = wesurf.chain_rule_partials(X, first_source="auto", accuracy=6,
                                               second_source="fd")
            residuals[sid] = wesurf.minimal_surface_residual(patch).max_abs
        fam = wesurf.SolitonFamily(wesurf.helicoid_closed(self.annulus),
                                   wesurf.catenoid_closed(self.annulus))
        mismatches = []
        for th in self.thetas:
            fg = wesurf.family_fg(wesurf.helicoid_fg(), wesurf.catenoid_fg(), th)
            rep = wesurf.verify_soliton_relations(fam.at(th), fg, singularities=[0.0])
            mismatches.append(rep.max_mismatch)
        return residuals, mismatches

    def check(self, result, out_dir: Path) -> tuple[dict[str, str], list[str]]:
        residuals, mismatches = result
        errors = [f"{sid}: minimal residual {v}" for sid, v in residuals.items()
                  if bad_value(v, self.tol.resid_tol)]
        errors += [f"F/G certificate at theta {th!r}: max mismatch {m}"
                   for th, m in zip(self.thetas, mismatches)
                   if bad_value(m, CERTIFICATE_TOL, strict=True)]
        # no files: digest the certified numbers, bit for bit
        text = repr(sorted(residuals.items())) + repr(mismatches)
        return {"certificate": hashlib.sha256(text.encode()).hexdigest()}, errors


WORKLOADS = {
    "family_verify_512": FamilyVerify,
    "generate_export_256": GenerateExport,
    "certify_catalog": CertifyCatalog,
}
