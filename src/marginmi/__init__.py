"""Multiple imputation for nonignorable item nonresponse in stratified
surveys, with completed-data totals constrained by auxiliary population
margins."""

__version__ = "0.1.0"

from .errors import (CompletenessError, DesignError, MarginMIError,
                     ParameterError, SchemaError, SeparationError,
                     SingularDesignError)
from .estimators import (FitResult, MIEstimate, aggregate_runs, ht_with_se,
                         rubin_combine, unweighted_probit_fit,
                         weighted_probit_fit)
from .harness import (ScenarioConfig, ScenarioReport, builtin_scenarios,
                      emit_report, estimands_from_chain, read_report_table,
                      run_scenario)
from .mcmc import (AcceptanceTrace, ChainResult, ChainSettings, ChainState,
                   Method, constraint_acceptance_ratio, run_chain, update_theta,
                   write_chain_trace_csv)
from .models import norm_cdf
from .survey import (AuxiliaryMargin, SealedTruth, StratifiedPopulation,
                     SurveySample, draw_stratified_sample, generate_population,
                     ht_total, impose_missingness, margin_from_population,
                     population_total, read_population_csv, read_sample_csv,
                     theoretical_margin_variance, write_population_csv,
                     write_sample_csv)
