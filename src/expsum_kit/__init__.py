"""expsum-kit: verification and computation toolkit for log-free
exponential-sum bounds over primes and the Mobius function."""

from .arith import ArithTables, build_tables, ramanujan_sum
from .bounds import (F_eta, G_eta, ParamChoice, choose_params, corollary_constants,
                     integral_sqrt_ratio, main_bound, verify_conditions)
from .diophantine import RationalApprox, alternate_approx, coordinates, dirichlet_approx
from .expsum import (DecompositionReport, ExpSumValue, direct_sum, l2_profiles,
                     recombine, type_I_1, type_I_2, type_II)
from .identity import decompose_mangoldt, decompose_mobius
from .partition import Partition, partition_integers, partition_primes
from .weights import (WeightConfig, WeightSystem, g_series, mobius_partial,
                      selberg_lambda, verify_lbcr, verify_lbsum_a)

__version__ = "0.1.0"
