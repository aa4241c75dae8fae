"""Configuration for the ScalaPart pipeline.

One dataclass gathers every knob the paper mentions, with defaults
matching its choices: coarsest graphs of "hundreds or few thousands" of
vertices, 5 great-circle candidates (the G7-NL budget), blocks of 2–8
iterations acting on stale β data, strips holding a small multiple of
the separator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..embed.forces import DEFAULT_C
from ..errors import ConfigError

__all__ = ["ScalaPartConfig"]


@dataclass(frozen=True)
class ScalaPartConfig:
    """Tuning knobs of ScalaPart (paper §3 defaults)."""

    #: stop coarsening near this many vertices ("hundreds or few thousands")
    coarsest_size: int = 160
    #: sequential matching kernel for the coarsening hierarchy:
    #: ``"hem-vec"`` (round-based vectorised heavy-edge matching, the
    #: default — the same locally-dominant-edge algorithm the parallel
    #: drivers run distributed), ``"hem"`` (the literal ParMetis greedy
    #: rule) or ``"random"`` (ablation baseline)
    matching: str = "hem-vec"
    #: FDL iterations on the coarsest graph (random start needs many)
    coarsest_iters: int = 150
    #: smoothing iterations per refined level ("a few iterations")
    smooth_iters: int = 16
    #: iterations per communication block — β data and far-edge
    #: coordinates refresh only once per block ("2-8 iterations ...
    #: no observable change in the quality of the embeddings"); the
    #: top of the paper's range minimises global collectives
    block_size: int = 8
    #: repulsion strength C of the force model
    c: float = DEFAULT_C
    #: jitter of inherited child coordinates (× K) during projection
    jitter: float = 0.25
    #: great-circle candidates (5 = the G7-NL budget ScalaPart parallelises)
    ncircles: int = 5
    #: strip size as a multiple of separator vertices (Fig 2 shows ~5.6)
    strip_factor: float = 6.0
    #: FM passes on the strip
    strip_passes: int = 6
    #: allowed partition imbalance
    max_imbalance: float = 0.05
    #: sample size for the parallel centerpoint computation
    centerpoint_sample: int = 1000
    #: Lloyd iterations of the direct k-way geometric assignment
    kway_lloyd_iters: int = 4
    #: bias-balancing iterations of the direct k-way assignment
    kway_balance_iters: int = 48
    #: greedy boundary passes of the k-way refinement
    kway_refine_passes: int = 8
    #: pairwise-FM rounds of the k-way refinement (0 disables)
    kway_pairwise_rounds: int = 3

    def __post_init__(self) -> None:
        if self.coarsest_size < 1:
            raise ConfigError("coarsest_size must be >= 1")
        # resolve eagerly so a typo fails at config time, not mid-pipeline
        from ..coarsen.matching import get_matcher

        get_matcher(self.matching)
        if self.coarsest_iters < 0 or self.smooth_iters < 0:
            raise ConfigError("iteration counts must be nonnegative")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.ncircles < 1:
            raise ConfigError("need at least one great circle")
        if self.strip_factor <= 0:
            raise ConfigError("strip_factor must be positive")
        if not (0 <= self.max_imbalance < 1):
            raise ConfigError("max_imbalance must be in [0, 1)")
        if self.centerpoint_sample < 1:
            raise ConfigError("centerpoint_sample must be >= 1")
        if (self.kway_lloyd_iters < 0 or self.kway_refine_passes < 0
                or self.kway_pairwise_rounds < 0):
            raise ConfigError("k-way iteration counts must be nonnegative")
        if self.kway_balance_iters < 1:
            raise ConfigError("kway_balance_iters must be >= 1")

    def with_options(self, **kw) -> "ScalaPartConfig":
        """Copy with some fields replaced."""
        return replace(self, **kw)
