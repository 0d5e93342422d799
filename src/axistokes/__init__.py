"""Fourier mode-by-mode finite element solver for axisymmetric Stokes flow.

The 3D stationary Stokes problem on a body of revolution splits into a
family of decoupled 2D problems on the meridian half-section, one per
angular wavenumber k.  This package assembles and solves those per-mode
problems with Taylor-Hood elements on triangles, measures fields in the
radially weighted norms the reduction is isometric for, and provides the
Fourier analysis utilities to move between 3D data and mode coefficients.

Each module's ``__all__`` is the one list of its public names, and the
package exports them all.  ``cli`` is not imported here, so that
``python -m axistokes.cli`` runs that module once.
"""

from . import expressions, fem, fields, fourier, meshing, norms
from . import quadrature, solver, verification, vtk_export
from .expressions import *
from .fem import *
from .fields import *
from .fourier import *
from .meshing import *
from .norms import *
from .quadrature import *
from .solver import *
from .verification import *
from .vtk_export import *

__version__ = "0.1.0"

_MODULES = (
    expressions, fem, fields, fourier, meshing, norms,
    quadrature, solver, verification, vtk_export,
)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
