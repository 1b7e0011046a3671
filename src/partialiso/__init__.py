"""Twisted power partial isometries on finite-dimensional spaces.

Construction, verification and orthogonal decomposition of tuples of
power partial isometries satisfying twisted commutation relations, with
certified residuals throughout. See the README for the CLI. The public
names are those in the ``__all__`` of each module below.
"""

from .commutant import *  # noqa: F403
from .halmos_wallen import *  # noqa: F403
from .linalg import *  # noqa: F403
from .operators import *  # noqa: F403
from .twisted import *  # noqa: F403

__version__ = "0.1.0"
