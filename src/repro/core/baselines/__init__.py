"""State-of-the-art baselines the paper compares against.

* :class:`~repro.core.baselines.firefly.FireflyAllocator` — the
  Adaptive Quality Control of Firefly (USENIX ATC '20), an LRU rate
  allocation (Section IV bullet 1).
* :class:`~repro.core.baselines.pavq.PavqAllocator` — the Practical
  Adaptive Variance-aware Quality allocation of Joseph & de Veciana
  (INFOCOM '12), modified per the paper to account for delay
  (Section IV bullet 2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.baselines.firefly": ("FireflyAllocator",),
        "repro.core.baselines.pavq": ("PavqAllocator",),
        "repro.core.baselines.simple": (
            "MaxMinFairAllocator", "UniformAllocator",
        ),
    },
)

__all__ = [
    "FireflyAllocator",
    "PavqAllocator",
    "UniformAllocator",
    "MaxMinFairAllocator",
]
