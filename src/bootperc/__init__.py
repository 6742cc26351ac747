"""Bootstrap percolation on G(n, p): exact final-size law, samplers, and
regime-aware tail-exponent predictions with Monte Carlo validation."""

from .core import (ActivationProb, AcNpDiverges, AcNpFinite, AcNpVanishes,
                   BcDiverges, BcFinite, BcVanishes, CriticalQuantities,
                   ModelParams, Regime, SequenceSpec, activation_prob,
                   check_hypotheses, classify_regime, critical_quantities,
                   mean_usable_curve, regime_label)
from .errors import (BootpercError, DegenerateLevels, EpsOutOfRange,
                     InconclusiveTrend, MemoryGuardError,
                     NumericalDegeneracyError, ParameterError, RegimeMismatch,
                     UnsupportedCombination)
from .montecarlo import (ConvergenceRow, TailEstimate, estimate_tail,
                         estimate_tail_splitting, poisson_distance,
                         rate_convergence_study, wilson_interval)
from .oracle import (FinalSizePmf, auxiliary_tail, brute_force_pmf, exact_pmf,
                     exact_stop_cdf, exact_tail_query)
from .process import (PercolationOutcome, RngSpec, count_low_degree,
                      final_sizes_activation, final_sizes_graph,
                      final_sizes_leap, final_sizes_markchain,
                      sample_activation_times,
                      sample_graph, sample_markchain)
from .ratefun import (AsymAcNp, AsymBc, BetweenAcNpAndN, BetweenBcAndAcNp,
                      Const, ScalingFamily, TailExponent, entropy_H,
                      family_from_string, ldp_rate_value, minimize_rate,
                      rate_J, tail_exponent)
from .scaled import ScaledFloat

__version__ = "0.1.0"
