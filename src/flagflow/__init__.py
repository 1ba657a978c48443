"""Qualitative dynamics of the Ricci flow on invariant metrics of SU(3)/T.

The invariant metrics form a three-parameter cone; on it the Ricci flow
is an autonomous ODE with an equivalent quadratic polynomial form.  This
package evaluates the model exactly, compactifies the quadratic field onto
the Poincare sphere, locates and classifies its equilibria at infinity,
estimates Lyapunov spectra along the four invariant rays, and runs the
basin-of-attraction experiments around them.
"""

from . import compactify, dynamics, experiments, model
from .model import *
from .compactify import *
from .dynamics import *
from .experiments import *

__version__ = "0.1.0"

__all__ = model.__all__ + compactify.__all__ + dynamics.__all__ + experiments.__all__
