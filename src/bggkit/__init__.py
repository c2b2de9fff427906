"""bggkit: exact construction, verification and analysis of graded diagrams
of polynomial-coefficient differential forms, their twisted complexes and
the derived complexes on harmonic spaces.

Everything except the spectral experiment in :mod:`bggkit.korn` is exact
rational arithmetic.
"""

from .linalg import InnerProduct, LinAlgError, SparseMat, column_space, \
    nullspace, pinv_onto, project, rank
from .forms import FormBlock, LinMap, SumSpace, ValueSpace, exterior_derivative, \
    mult_coord, wedge_dx
from .diagram import BuiltDiagram, DiagramError, DiagramSpec, KappaSpec, \
    VerificationError, build, twisted_cohomology, verify_identities
from .bgg import bgg_cohomology, compute_D, compute_T, derive, hodge_split
from .energy import EnergyParams, cosserat_energy, generalized_cosserat_energy, \
    generalized_dilation_energy, generalized_plate_energy
from .korn import korn2d_experiment
from . import catalog, export

__version__ = "0.1.0"

__all__ = [
    "BuiltDiagram", "DiagramError", "DiagramSpec", "EnergyParams", "FormBlock",
    "InnerProduct", "KappaSpec", "LinAlgError", "LinMap", "SparseMat",
    "SumSpace", "ValueSpace", "VerificationError", "bgg_cohomology", "build",
    "catalog", "column_space", "compute_D", "compute_T",
    "cosserat_energy", "derive", "exterior_derivative", "export",
    "generalized_cosserat_energy", "generalized_dilation_energy",
    "generalized_plate_energy", "hodge_split", "korn2d_experiment",
    "mult_coord", "nullspace", "pinv_onto", "project", "rank",
    "twisted_cohomology", "verify_identities", "wedge_dx",
]
