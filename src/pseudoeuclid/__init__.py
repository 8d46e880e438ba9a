"""Split-complex number algebra and trigonometry of the pseudo-Euclidean plane."""
from .angle import *
from .errors import *
from .euclid import *
from .geometry import *
from .hyperbola import *
from .hypnum import *
from .selftest import *
from .tol import *
from .triangle import *

__version__ = "0.1.0"

__all__ = (angle.__all__ + errors.__all__ + euclid.__all__ + geometry.__all__ + hyperbola.__all__
           + hypnum.__all__ + selftest.__all__ + tol.__all__ + triangle.__all__ + ["__version__"])
