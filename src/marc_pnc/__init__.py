"""Physical-layer network coding for the two-user multiple access relay
channel: transmission model, relay-error-aware destination decoding with an
O(M^2) fast path, a complex-field combining baseline, and a reproducible
Monte Carlo engine for symbol-error and diversity-order measurements.
"""

__version__ = "0.1.0"

from .cfnc import make_cfnc_config
from .channel import PROFILE_PRESETS, ChannelRealization, FadingProfile, sample_channel
from .destination import (
    HrOrthogonalityError,
    fast_decode,
    joint_min_distance,
    metric_m1,
    metric_m2,
    metric_m3,
    metric_m4,
    novel_decode_exhaustive,
    phi_metrics,
)
from .diversity import DiversityFit, InsufficientDataError, estimate_diversity
from .montecarlo import (
    EquivalenceReport,
    SepCurve,
    SepPoint,
    SweepSpec,
    equivalence_battery,
    run_sweep,
)
from .netmap import check_exclusive_law, modulo_latin, xor_latin
from .numerics import philox_stream, qr_2x3
from .relay import relay_ml_decode
from .scheme import (
    SchemeConstants,
    WeightMatrices,
    check_full_rank_condition,
    check_hr_orthogonal,
    codeword_matrix,
    example1_constants,
    restricted_diff_matrix,
    weight_matrices,
)
from .signalset import difference_set, make_psk
from .sweepio import emit_csv, emit_plot_script, parse_config, parse_csv, spec_from_config

__all__ = [name for name in dir() if not name.startswith("_")]
