"""Exact arithmetic for the series log(e^A e^B).

The package computes word coefficients of the series exactly, the smallest
common denominator of each homogeneous component, and the extreme words whose
coefficients actually need that denominator.  Everything is integer or
rational arithmetic; there is no floating point anywhere.

The verification suites and the command line are the submodules
``bchcoeff.verify`` and ``bchcoeff.cli``; importing the package loads neither.
"""

from . import analysis, denominators, exactmath, goldberg, special, witness
from .analysis import *
from .denominators import *
from .exactmath import *
from .goldberg import *
from .special import *
from .witness import *

__version__ = "0.1.0"

# each computing module lists its public names once, in its own __all__
__all__ = []
__all__ += analysis.__all__
__all__ += denominators.__all__
__all__ += exactmath.__all__
__all__ += goldberg.__all__
__all__ += special.__all__
__all__ += witness.__all__
