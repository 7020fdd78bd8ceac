"""Experiment harness: one module per table/figure of the paper's evaluation."""

from .common import BENCHMARKS, ExperimentScale, format_table
from .figure03 import Figure3Result, run_figure03
from .figure11 import Figure11Result, run_figure11
from .figure12 import Figure12Result, run_figure12
from .figure13 import Figure13Result, run_figure13
from .model_figures import ModelFigureResult, run_model_figures
from .overload_knee import OverloadKneeResult, run_overload_knee
from .summary import SummaryResult, run_summary
from .table03 import Table3Result, run_table03
from .table04 import Table4Result, run_table04

__all__ = [
    "ExperimentScale",
    "BENCHMARKS",
    "format_table",
    "run_figure03",
    "Figure3Result",
    "run_table03",
    "Table3Result",
    "run_figure11",
    "Figure11Result",
    "run_table04",
    "Table4Result",
    "run_figure12",
    "Figure12Result",
    "run_figure13",
    "Figure13Result",
    "run_model_figures",
    "ModelFigureResult",
    "run_overload_knee",
    "OverloadKneeResult",
    "run_summary",
    "SummaryResult",
]
