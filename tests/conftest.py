import sys
from pathlib import Path

import pytest

from bggkit import catalog
from bggkit.diagram import DiagramSpec, KappaSpec, build

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def broken_conf_deformation():
    """conf-deformation-3d with one row-2 kappa tensor scaled by 2, built
    without the constant-level commutation check."""
    spec = catalog.get("conf-deformation-3d").spec
    row1, row2 = spec.kappa.maps
    row2 = (row2[0].scale(2),) + row2[1:]
    bad = DiagramSpec(spec.name, spec.n, spec.rows, KappaSpec((row1, row2)))
    return build(bad, 4, validate=False)
