"""Sample-based revenue maximization for simple auction classes.

The toolkit draws valuation samples, runs exact ERM over sample-valued
candidate sets for six single- and multi-item auction classes, enumerates
split-sample hypothesis spaces, and certifies the associated generalization
bounds by Monte Carlo simulation against analytic optima.
"""

from .bounds import (BoundReport, ChainReport, RademacherEstimate, TLevelTuning,
                     bound_formula, generalization_chain_check, high_prob_bound,
                     main_bound, massart_bound, rademacher_estimate, revenue_range,
                     sample_complexity_estimate, tlevel_epsilon)
from .erm import (DEFAULT_CANDIDATE_CEILING, ClassSpec, OptimumEstimate, candidate_count,
                  empirical_revenue, erm, in_class_optimum)
from .errors import (AnalyticUnsupported, AuctionLearnError, CeilingExceeded,
                     DimensionMismatch, InvalidDistribution, SampleFileError)
from .experiments import (CurveRow, ExperimentConfig, ExperimentRow, config_fingerprint,
                          generalization_experiment, sample_complexity_curve,
                          write_gap_svg, write_rows_csv, write_rows_jsonl)
from .mechanisms import (CLASS_TAGS, AnonymousSecondPriceReserve, BestOf,
                         BundlePrice, Hypothesis, ItemPrices, Outcome,
                         PlayerReserves, RevenueEstimate, SingleReserve, TLevel,
                         analytic_true_revenue, bidder_utility, expected_revenue,
                         hypothesis_from_record, hypothesis_to_record,
                         monte_carlo_true_revenue, profile_revenues, revenue,
                         revenue_matrix, run_mechanism, true_revenue)
from .model import (DEFAULT_RANGE, Discrete, DistributionSpec, Marginal,
                    SampleSet, Seed, TruncatedExponential, Uniform,
                    ValuationProfile, load_samples, sample_values, save_samples)
from .splitsample import (GrowthBound, GrowthEstimate, SplitSampleSpace,
                          growth_rate_estimate, split_sample_space,
                          theoretical_growth_bound)

__version__ = "0.1.0"
