"""Stationary self-exciting traffic models, their Gaussian limits, and
infinite-server queues driven by them."""

__version__ = "0.22.0"

from .covariance import (CovarianceDensity, LaplacePipeline, VarianceFunction,
                         asymptotic_offset, asymptotic_slope, laplace_pipeline,
                         phi_exponential_closed_form, solve_multivariate_phi,
                         solve_phi_grid, variance_function)
from .errors import (ConfigurationError, HawkesqError, IntegrabilityError,
                     NumericalError, StabilityError, TruncationError)
from .kernels import (HawkesConfig, Kernel, KernelMatrix, PowerLawKernel,
                      SumOfExponentialsKernel, TabulatedKernel, ZERO_KERNEL,
                      fourier_transform, kernel_from_dict,
                      l1_norm, laplace_transform, spectral_radius)
from .limits import (GaussianQueueApprox, LimitModel, count_limit_model,
                     exp_queue_limit_model, gaussian_queue_approx, limit_covariance_G,
                     multi_ou_limit_model, queue_limit_model, sample_limit_path,
                     steady_state_cov_multi, var_X_infty, var_xe_infty,
                     var_xe_infty_exponential)
from .queueing import (ComparisonReport, QueueTrajectory, SteadyStateSample,
                       compare_distributions, simulate_queue,
                       steady_state_sample)
from .service import (DeterministicService, ExponentialService,
                      LogNormalService, ServiceModel,
                      TabulatedInverseCDFService, service_from_dict)
from .simulate import (MomentSummary, PointPath, SimConfig, default_burn_in,
                       empirical_moments, read_paths_csv, rep_stream,
                       simulate_cluster, simulate_paths, simulate_thinning,
                       write_paths_csv)
