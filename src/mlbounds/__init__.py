"""Upper bounds on the ML decoding error probability of binary linear block
codes over the BPSK-AWGN channel, plus a Monte Carlo validation harness.
"""

from .errors import (
    FileFormatError,
    MlboundsError,
    ProviderLookupError,
    ResourceLimitError,
    ValidationError,
)
from .numerics import (
    ChannelPoint,
    SnrConvention,
    angle_upper_bound,
    log_factorials,
    noise_sigma,
    q_function,
    triplet_probability,
)
from .spectrum import (
    InputOutputSpectrum,
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    ensemble_average,
    enumerate_spectrum,
    format_spectrum,
    load_generator,
    load_spectrum,
    macwilliams_transform,
    store_generator,
    store_spectrum,
)
from .simulator import (
    BLOCK,
    SimConfig,
    SimReport,
    simulate,
    wilson_interval,
)
from .bounds import (
    BoundResult,
    BoundVariant,
    FileBoundProvider,
    ThetaPolicy,
    bit_error_bound,
    gfbt_combine,
    pairwise_error_bound,
    triplet_error_bound,
    truncated_union_bound,
    union_bound,
    word_error_bound,
)

__version__ = "0.1.0"
