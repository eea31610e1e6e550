"""Reproduction harness: one module per table/figure of the evaluation."""

from repro.experiments import (
    fig06_network_size,
    fig07_selectivity,
    fig08_dimensions,
    fig09_load,
    fig10_neighbors,
    fig11_churn,
    fig12_massive_failure,
    fig13_planetlab,
    tables,
)
from repro.experiments.config import (
    PAPER_DAS,
    PAPER_PEERSIM,
    PAPER_PLANETLAB,
    SCALED_DAS,
    SCALED_PEERSIM,
    SCALED_PLANETLAB,
    ExperimentConfig,
)
from repro.experiments.harness import (
    QueryOutcome,
    build_deployment,
    mean_delivery,
    mean_overhead,
    measure_queries,
)
from repro.experiments.report import format_histogram, format_table
from repro.experiments.timeline import delivery_timeline, mean_delivery_after

__all__ = [
    "fig06_network_size",
    "fig07_selectivity",
    "fig08_dimensions",
    "fig09_load",
    "fig10_neighbors",
    "fig11_churn",
    "fig12_massive_failure",
    "fig13_planetlab",
    "tables",
    "PAPER_DAS",
    "PAPER_PEERSIM",
    "PAPER_PLANETLAB",
    "SCALED_DAS",
    "SCALED_PEERSIM",
    "SCALED_PLANETLAB",
    "ExperimentConfig",
    "QueryOutcome",
    "build_deployment",
    "mean_delivery",
    "mean_overhead",
    "measure_queries",
    "format_histogram",
    "format_table",
    "delivery_timeline",
    "mean_delivery_after",
]
