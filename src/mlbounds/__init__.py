"""Upper bounds on the ML decoding error probability of binary linear block
codes over the BPSK-AWGN channel, plus a Monte Carlo validation harness.
"""

from .errors import *
from .numerics import *
from .spectrum import *
from .simulator import *
from .bounds import *

__version__ = "0.1.0"
