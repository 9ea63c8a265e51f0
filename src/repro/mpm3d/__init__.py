"""3-D Material Point Method — the paper's §7 scaling direction realized.

The 3-D step is :mod:`repro.mpm`'s own: its ``Grid``, ``Particles``,
``BoxBoundary``, shape functions and ``MPMSolver`` take d = 3 from the
grid (27-node quadratic transfers, six-face frictional box). This
package adds what is per dimension: full 3×3 constitutive models and
the 3-D scenarios. The axisymmetric column collapse here is the
experiment the paper's 2-D setup approximates.
"""

from .materials3d import DruckerPrager3D, LinearElastic3D, Material3D
from .scenarios3d import column_collapse_3d, elastic_drop_3d, radial_runout

__all__ = [
    "DruckerPrager3D", "LinearElastic3D", "Material3D",
    "column_collapse_3d", "elastic_drop_3d", "radial_runout",
]
