"""Robust fitting of positive-support distributions by density power
divergence minimization, with CVM-based tuning of the robustness
parameter, sandwich asymptotics, RIC model selection, bootstrap
standard errors, and zero-inflation-aware reporting.

The package exports exactly the names each module lists in __all__.
"""

from . import asymptotics, dataio, errors, estimator, families, selection, tuning, uncertainty
from .asymptotics import *  # noqa: F403
from .dataio import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .families import *  # noqa: F403
from .selection import *  # noqa: F403
from .tuning import *  # noqa: F403
from .uncertainty import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (asymptotics, dataio, errors, estimator, families, selection, tuning, uncertainty)
__all__ = ["__version__", *sorted(name for m in _MODULES for name in m.__all__)]
