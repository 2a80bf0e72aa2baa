"""Secrecy-outage evaluation for active-RIS-assisted NOMA downlinks.

Two independent engines compute the same physical quantities: `analytic`
holds the closed forms (cascaded-channel statistics, outage theorems,
high-budget asymptotes, diversity slopes), `montecarlo` re-derives them
from first-principles channel draws.  `model` carries the shared system
description, exact SINRs and the estimate type, `budget` the equal-total-power
bookkeeping, `specfun` the Bessel/quadrature kernel, and `config`/`cli` the
sweep and validation harness.  The package root re-exports the `__all__` of
every module except `cli`.
"""

from . import analytic, budget, config, model, montecarlo, specfun
from .analytic import *  # noqa: F403
from .budget import *  # noqa: F403
from .config import *  # noqa: F403
from .model import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (analytic, budget, config, model, montecarlo, specfun)
           for name in module.__all__] + ["__version__"]
