"""Packet delay of a homogeneous broadcast channel.

The delay D(m, n) is the number of channel uses until each of n equally
likely users has received m packets (equivalently, the m-fold coverage
time of the coupon collector).  The package computes its exact moments by
quadrature, the constants and normalizations of its limit laws across the
fixed-m, critical, supercritical and fixed-n regimes, and validates them
by reproducible Monte Carlo.
"""

from .alpha import AlphaSolution, bridging_gap, solve_alpha
from .errors import NumericError
from .limit_laws import (
    Critical,
    FixedM,
    FixedN,
    MaxOfNormals,
    Normalization,
    Regime,
    StandardGumbel,
    Supercritical,
    Target,
    critical_constant,
    derive_b,
    normalization,
    target_cdf,
)
from .moments import (
    ExactDistribution,
    MomentResult,
    ProblemSize,
    QuadratureConfig,
    asymptotic_mean_fixed_m,
    asymptotic_moment,
    delta_power_moment,
    exact_dist_small,
    exact_mean_small,
    mean_delay,
    mgf_delta,
    rising_moment,
    rising_moments,
    variance_delay,
)
from .simulate import (
    KSReport,
    SampleBatch,
    SimConfig,
    empirical_moments,
    ks_distance,
    ks_statistic,
    sample_coupled,
    sample_discrete,
    sample_poissonized,
    write_samples_csv,
)
from .special import (
    erlang_log_sf,
    normal_cdf,
    tricomi_log_sf,
)

__version__ = "0.1.0"
