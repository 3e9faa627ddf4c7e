"""Minimal surfaces from Weierstrass-Enneper data, their harmonic conjugates,
and the one-parameter family of Born-Infeld solitons obtained by Wick
rotation, with numerical verification of the family's invariants."""

from .catalog import (BranchRegionError, CATALOG_IDS, CatalogError,
                      SingularEvaluation, WEFunction, catalog_function,
                      default_base, default_flip_t, eval_R, singularity_points,
                      verification_grid)
from .family import (FamilyError, SolitonFamily, SolitonRelationsReport,
                     family_fg, verify_soliton_relations)
from .generate import (GenerateError, WEData, gamma_chart_sector, generate,
                       generate_conjugate_pair, we_data)
from .geometry import (FundamentalForm, GeometryError, ThetaInvarianceReport,
                       action, fundamental_form, theta_sweep_invariance)
from .grids import (GridError, ParamGrid, SurfaceGrid, array_derivative,
                    conjugacy_violation, default_annulus, laplacian, surface_jacobian)
from .hodograph import (FGPair, HodographError, catenoid_closed, catenoid_fg,
                        enneper_conjugate_fg, enneper_fg, fg_integrals,
                        helicoid_closed, helicoid_fg)
from .io_export import (export_mesh, write_report_csv, write_surface_csv,
                        write_surface_table)
from .pde import (LorentzBoost, NonparametricPatch, PDEError, boost,
                  born_infeld_residual, chain_rule_partials,
                  minimal_surface_residual, wick_substitute)
from .quadrature import (PathNearSingularity, QuadratureError,
                         antiderivative_on_grid)
from .reports import ResidualReport, residual_report
from .stencils import StencilError

__version__ = "0.1.0"
