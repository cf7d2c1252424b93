"""chowchi: exact Euler characteristics of Chow varieties of projective space.

The count chi(C_{p,d}(P^n)) of effective p-cycles of degree d in P^n is
computed by three mutually verifying routes (Lawson-Yau closed form,
suspension recursion, generating-function arithmetic), together with the
counts for right quaternionic cycle spaces and for symmetric products.  The
closed form also counts the cycles fixed by a diagonalizable group action.
All arithmetic is exact integer arithmetic.

Quick use::

    >>> from chowchi import ChowParams, chow_euler_closed
    >>> chow_euler_closed(ChowParams(p=1, n=3, d=2)).chi
    21

The ``chowchi`` command line tool exposes the same computations plus the
cross-checking sweeps; see ``chowchi --help``.
"""

from .binomials import *
from .series import *
from .chow import *
from .invariants import *
from .verify import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's ``__all__``; importing a
# submodule also binds the module's own name here.
__all__ = [*binomials.__all__, *series.__all__, *chow.__all__,
           *invariants.__all__, *verify.__all__, "__version__"]
