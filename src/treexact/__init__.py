"""treexact: decide, build, and audit positive-weighted trees realizing a
dissimilarity matrix on exactly its n labeled points.

The public surface is the union of the six modules' `__all__` lists; each
public name is declared once, in its own module.
"""

from . import conditions, core, errors, numeric, oracle, reconstruct

# Read the modules' lists before the star imports: `from .reconstruct
# import *` rebinds `treexact.reconstruct` from the module to the function.
__all__ = (conditions.__all__ + core.__all__ + errors.__all__ + numeric.__all__
           + oracle.__all__ + reconstruct.__all__)

from .conditions import *
from .core import *
from .errors import *
from .numeric import *
from .oracle import *
from .reconstruct import *

__version__ = "0.1.0"
