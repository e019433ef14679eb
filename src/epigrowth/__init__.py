"""Metro-level epidemic growth analysis.

Segments case curves into five log-linear periods, tunes per-period rates for
four SIR-style variants (original, delayed, reinfection, tourism), and runs
demographic and weather correlation studies on the fitted growth rates.
"""

from .correlate import (
    CorrelationReport,
    DemographicTable,
    GroupResult,
    ReportCell,
    WeatherTable,
    daily_log_growth,
    demographic_study,
    weather_studies,
    weather_study,
    weighted_avg_growth,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    ParseError,
    PipelineError,
    StateError,
    ValidationError,
)
from .fit import (
    DiscrepancyReport,
    GrowthRates,
    SearchConfig,
    TuneResult,
    data_growth_rates,
    default_init,
    discrepancy,
    sim_growth_rates,
    tune,
)
from .fixtures import FixtureBundle, make_bundle
from .regress import (
    MultiFit,
    SimpleFit,
    bucket_temperature,
    fit_multi,
    fit_simple,
    student_t_sf,
)
from .segment import (
    Period,
    PeriodSet,
    ProtocolCall,
    default_anchors,
    initial_periods,
    optimize_boundaries,
    protocol_followed_date,
)
from .sir import (
    InflowSeries,
    PiecewiseParams,
    SirState,
    Trajectory,
    simulate,
)
from .timeseries import (
    CaseSeries,
    DateInterval,
    MetroMap,
    aggregate_to_metros,
    load_cases,
    load_metro_map,
    to_log_series,
)

__version__ = "0.1.0"

__all__ = [
    "CaseSeries",
    "ConfigError",
    "ConvergenceError",
    "CorrelationReport",
    "DateInterval",
    "DemographicTable",
    "DiscrepancyReport",
    "FixtureBundle",
    "GroupResult",
    "GrowthRates",
    "InflowSeries",
    "InsufficientDataError",
    "MetroMap",
    "MultiFit",
    "ParseError",
    "Period",
    "PeriodSet",
    "PiecewiseParams",
    "PipelineError",
    "ProtocolCall",
    "ReportCell",
    "SearchConfig",
    "SimpleFit",
    "SirState",
    "StateError",
    "Trajectory",
    "TuneResult",
    "ValidationError",
    "WeatherTable",
    "aggregate_to_metros",
    "bucket_temperature",
    "daily_log_growth",
    "data_growth_rates",
    "default_anchors",
    "default_init",
    "demographic_study",
    "discrepancy",
    "fit_multi",
    "fit_simple",
    "initial_periods",
    "load_cases",
    "load_metro_map",
    "make_bundle",
    "optimize_boundaries",
    "protocol_followed_date",
    "sim_growth_rates",
    "simulate",
    "student_t_sf",
    "to_log_series",
    "tune",
    "weather_studies",
    "weather_study",
    "weighted_avg_growth",
]
