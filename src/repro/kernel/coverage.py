"""Former home of the batched FoV-coverage indicators.

:class:`~repro.prediction.fov.CoverageEvaluator` is the one coverage
path, and its ``indicators`` scores a whole slot or episode on
arrays.  The e2e benchmark's traced pass wraps
``BatchCoverage.indicators`` by name, so the old name stays an alias.
"""

from repro.prediction.fov import CoverageEvaluator as BatchCoverage

__all__ = ["BatchCoverage"]
