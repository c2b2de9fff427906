"""bggkit: exact construction, verification and analysis of graded diagrams
of polynomial-coefficient differential forms, their twisted complexes and
the derived complexes on harmonic spaces.

Everything except the spectral experiment in :mod:`bggkit.korn` is exact
rational arithmetic.  The package re-exports only ``build``, ``catalog``,
``derive`` and ``verify_identities``; everything else is imported from its
submodule.
"""

from . import catalog
from .bgg import derive
from .diagram import build, verify_identities

__version__ = "0.1.0"

__all__ = ["build", "catalog", "derive", "verify_identities"]
