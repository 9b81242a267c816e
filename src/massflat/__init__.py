"""Certified flat-distance and Gromov-Hausdorff bounds for rotationally
symmetric asymptotically flat manifolds built from Hawking-mass profiles.

The public names are those each module lists in its own ``__all__``."""

from . import (certificates, embedding, errors, geometry, ghdist, profiles,
               serialization, sweeps)
from .certificates import *  # noqa: F401,F403
from .embedding import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .ghdist import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .serialization import *  # noqa: F401,F403
from .sweeps import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (certificates, embedding, errors,
                                      geometry, ghdist, profiles,
                                      serialization, sweeps)
                  for name in module.__all__})
