"""Numeric-symbolic verification of Schrödinger geometry.

Flat Bargmann structures, their symmetry algebra and group, the curved
one-parameter family of bulk metrics with Schrödinger boundary, and the
covariant form of the Schrödinger equation, all checked by exact
second-order jet arithmetic on seeded sample points.
"""

from .ambient import (
    AlgebraElement,
    GroupBlocks,
    GroupElement,
    SchBlocks,
    sch_dimension,
)
from .bargmann import (
    BargmannStructure,
    DensityFunction,
    SchrodingerParams,
    bargmann_axioms_check,
    flat_bargmann,
    plane_wave,
    schrodinger_residual,
)
from .homogeneous import (
    SchrodingerManifoldConfig,
    boundary_structure,
    bulk_metric,
    einstein_residual,
    isometry_check,
    isotropy_check,
    nullfluid_residual,
    schrodinger_axiom_audit,
)
from .numkernel import Jet2, SeededSampler
from .report import CheckResult

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BargmannStructure",
    "CheckResult",
    "DensityFunction",
    "GroupBlocks",
    "GroupElement",
    "Jet2",
    "SchBlocks",
    "SchrodingerManifoldConfig",
    "SchrodingerParams",
    "SeededSampler",
    "bargmann_axioms_check",
    "boundary_structure",
    "bulk_metric",
    "einstein_residual",
    "flat_bargmann",
    "isometry_check",
    "isotropy_check",
    "nullfluid_residual",
    "plane_wave",
    "sch_dimension",
    "schrodinger_axiom_audit",
    "schrodinger_residual",
    "__version__",
]
