"""Free Levy process calculus: partitions, cumulants, noncommutative symmetric
polynomials, free-convolution analytics, generating-triple maps, and a
random-matrix verification harness."""

__version__ = "0.1.0"

from .partitions import (  # noqa: F401
    Composition,
    Partition,
    PartitionError,
    catalan,
    enumerate_int,
    enumerate_nc,
    interval_closure,
    kernel,
    kreweras,
    mobius_int,
    mobius_nc,
)
from .cumulants import (  # noqa: F401
    CumulantError,
    cumulants_to_moments,
    free_joint_functional,
    mixed_free_cumulant,
    moments_to_cumulants,
    power_sum_joint_cumulant,
)
from .measures import DensityGrid, GridMeasure, MeasureError  # noqa: F401
