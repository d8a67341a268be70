"""High-dimensional location tests based on sample means, spatial signs
and spatial ranks, with asymptotic, randomization and simulation-oracle
inference, synthetic data models and a Monte Carlo power-study harness.
"""

__version__ = "0.1.0"

from .errors import (
    DataFileError,
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    HDTestError,
    InvalidInputError,
    InvalidSpecError,
    MismatchedAuxiliaryError,
    NonpositiveScaleError,
    SubsampleTooSmallError,
    TooFewObservationsError,
    ZeroVectorError,
)
from .statistics import (
    ONE_SAMPLE_STATS,
    TWO_SAMPLE_STATS,
    spatial_sign,
    t_cq1,
    t_cq2,
    t_s,
    t_sr,
    t_wmw,
)
from .nuisance import (
    VarianceSnapshot,
    gamma1_hat,
    gamma2_hat,
    sigma_sq_hat,
    tr_sigma_cross_hat,
    tr_sigma_sq_hat,
)
from .inference import (
    METHOD_ASYMPTOTIC,
    METHOD_PERMUTATION,
    METHOD_RSRM_ORACLE,
    METHOD_SIGNFLIP,
    OneSampleOracleTerms,
    TestReport,
    TwoSampleOracleTerms,
    asymptotic_one_sample,
    asymptotic_two_sample,
    one_sample_oracle_terms,
    one_sample_z,
    randomization_one_sample,
    randomization_two_sample,
    rsrm_oracle_one_sample,
    rsrm_oracle_two_sample,
    two_sample_oracle_terms,
    two_sample_z,
)
from .generators import (
    GeneratorSpec,
    MeanShift,
    RsrmAuxiliary,
    gen_ar1,
    gen_equicorr_gauss,
    gen_rsrm_custom,
    gen_spherical_t,
    generate,
)
from .montecarlo import (
    ExperimentPlan,
    PowerCurvePoint,
    SubsampleRow,
    parse_plot_data,
    run_power_study,
    run_subsample_protocol,
    subsample_table_csv,
    summarize_to_plot_data,
)
from .dataio import (
    matrix_to_csv,
    parse_matrix_csv,
    read_matrix_csv,
    write_matrix_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
