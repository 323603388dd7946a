"""Loewner evolutions driven by Levy processes.

Subpackages by concern:

* :mod:`levyloewner.drivers` -- driving-process specs and samplers
* :mod:`levyloewner.stable_calculus` -- generator constants, gamma(alpha,p),
  harmonicity classification, phi and theta0
* :mod:`levyloewner.loewner` -- the chordal and index-beta flow along a
  sampled path (beta in :class:`EvolutionConfig`), hitting detection, slit
  maps, capacity, rasters
* :mod:`levyloewner.alpha_loewner` -- the index-beta null-driver closed form
  and driver-path rescaling
* :mod:`levyloewner.experiments` -- Monte Carlo phase estimators
* :mod:`levyloewner.cli` -- command-line front end and file outputs
"""

from .alpha_loewner import closed_form_null_driver, scaled_path
from .drivers import (
    Brownian,
    CompoundPoisson,
    DriverPath,
    DriverSpec,
    JumpLaw,
    Stable,
    TruncatedStable,
    compose_drivers,
    sample_brownian,
    sample_compound_poisson,
    sample_driver,
    sample_stable,
    sample_truncated_stable,
    uniform_grid,
)
from .errors import ConfigError, LevyLoewnerError, NumericalError, StatisticalError
from .loewner import (
    ClusterRaster,
    EvolutionConfig,
    HittingOutcome,
    compose_piecewise_constant,
    connected_components,
    estimate_hcap,
    evolve_point,
    raster_cluster,
    slit_map,
)
from .stable_calculus import (
    HarmonicClass,
    classify_power,
    frac_constant,
    frac_laplacian_power,
    gamma_coeff,
    gamma_coeff_alt,
    phi,
    theta0,
)

__version__ = "0.1.0"
