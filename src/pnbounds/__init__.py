"""Counterfactual attribution for ordinal outcomes.

Point identification and sharp bounds for the probability of necessity
(event probability among treated units with a given observed outcome) and
the probability of causation (its unconditional twin under randomization),
over a three-level assumption ladder, with LP and sampling self-checks.
"""

from . import bounds, core, identify, ingest, lp, oracle
from .bounds import *
from .core import *
from .identify import *
from .ingest import *
from .lp import *
from .oracle import *

__all__: list[str] = []
__all__ += bounds.__all__
__all__ += core.__all__
__all__ += identify.__all__
__all__ += ingest.__all__
__all__ += lp.__all__
__all__ += oracle.__all__

__version__ = "0.1.0"
