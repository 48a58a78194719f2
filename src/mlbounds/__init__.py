"""Upper bounds on the ML decoding error probability of binary linear block
codes over the BPSK-AWGN channel, plus a Monte Carlo validation harness.
"""

from .errors import *
from .numerics import *
from .spectrum import *
from .bounds import *

__version__ = "0.1.0"

# the simulator module and its public names; it loads on first use (PEP 562),
# so importing the package, and every bound or spectrum command, skips it
_SIMULATOR_NAMES = ("simulator", "BLOCK", "SimConfig", "SimReport", "wilson_interval", "simulate")


def __getattr__(name):
    if name not in _SIMULATOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not "from . import", which would look the name up here again

    simulator = importlib.import_module(".simulator", __name__)
    globals().update((public, getattr(simulator, public)) for public in simulator.__all__)
    return globals()[name]


def __dir__():
    # the names an eager import would give, without this loading machinery
    return sorted({*globals(), *_SIMULATOR_NAMES} - {"__getattr__", "__dir__", "_SIMULATOR_NAMES"})
