"""Bootstrap percolation on G(n, p): exact final-size law, samplers, and
regime-aware tail-exponent predictions with Monte Carlo validation."""

from .core import (ActivationProb, CriticalQuantities, ModelParams, Regime,
                   SequenceSpec, activation_prob, check_hypotheses,
                   classify_regime, critical_quantities)
from .errors import (BootpercError, DegenerateLevels, EpsOutOfRange,
                     MemoryGuardError, ParameterError, RegimeMismatch,
                     UnsupportedCombination)
from .montecarlo import (ConvergenceRow, TailEstimate, estimate_tail,
                         estimate_tail_splitting, poisson_distance,
                         rate_convergence_study, wilson_interval)
from .oracle import (FinalSizePmf, LogProb, brute_force_pmf, exact_pmf,
                     exact_stop_cdf, exact_tail_query)
from .process import (RngSpec, final_sizes_activation, final_sizes_graph,
                      final_sizes_leap, final_sizes_markchain,
                      low_degree_counts)
from .ratefun import (ScalingFamily, TailExponent, entropy_H,
                      family_from_string, ldp_rate_value, minimize_rate,
                      rate_J, tail_exponent)

__version__ = "0.1.0"
