"""Analysis utilities: empirical CDFs and textual figure reports."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.ascii": ("ascii_bars", "ascii_cdf"),
        "repro.analysis.cdf": ("EmpiricalCdf",),
        "repro.analysis.report": (
            "comparison_table", "format_table", "improvement_percent",
        ),
        "repro.analysis.stats": (
            "bootstrap_ci", "jain_fairness", "mean_difference_significant",
        ),
    },
)

__all__ = [
    "EmpiricalCdf",
    "comparison_table",
    "format_table",
    "improvement_percent",
    "ascii_bars",
    "ascii_cdf",
    "bootstrap_ci",
    "jain_fairness",
    "mean_difference_significant",
]
