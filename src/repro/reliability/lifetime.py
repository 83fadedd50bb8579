"""Pluggable component-lifetime distributions.

The fixed-rate Poisson trace in :mod:`repro.cluster.failure` assumes a
constant hazard — fine for short chaos runs, wrong over the years-scale
horizons the durability campaign simulates.  Real disk populations show
*infant mortality* (high early hazard that decays) and *wear-out*
(hazard growing with age); the classic parameterization for both is the
Weibull distribution, whose shape parameter ``beta`` selects the regime:

* ``beta < 1`` — infant mortality (decreasing hazard),
* ``beta = 1`` — exponential / memoryless (constant hazard),
* ``beta > 1`` — wear-out (increasing hazard).

A :class:`LifetimeModel` samples one component lifetime in **hours**; the
reliability simulator resamples on every replacement, so a model's shape
is felt as a renewal process over the campaign horizon.  All sampling
goes through a caller-supplied :class:`random.Random` so campaigns stay
seeded and reproducible.
"""

from __future__ import annotations

import abc
import math
import random

__all__ = ["LifetimeModel", "ExponentialLifetime", "WeibullLifetime"]

#: Weibull shapes of the two named regimes.
INFANT_MORTALITY_SHAPE = 0.7
WEAR_OUT_SHAPE = 2.0


class LifetimeModel(abc.ABC):
    """Distribution of a component's time-to-failure, in hours."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one lifetime (hours since install) from the model."""


class ExponentialLifetime(LifetimeModel):
    """Memoryless lifetimes: constant hazard ``1 / mtbf``.

    This is the assumption under which the analytic Markov model in
    :mod:`repro.analysis.reliability` is exact, which makes it the
    cross-validation anchor for the simulator.
    """

    def __init__(self, mtbf_hours: float):
        if mtbf_hours <= 0:
            raise ValueError(f"mtbf_hours must be positive, got {mtbf_hours}")
        self.mtbf_hours = float(mtbf_hours)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mtbf_hours)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialLifetime(mtbf_hours={self.mtbf_hours:g})"


class WeibullLifetime(LifetimeModel):
    """Weibull lifetimes: ``scale * (-ln U)^(1/shape)``.

    Attributes:
        scale_hours: the characteristic life ``eta`` (63.2% of components
            have failed by this age).
        shape: the Weibull ``beta`` — < 1 infant mortality, > 1 wear-out.
    """

    def __init__(self, scale_hours: float, shape: float):
        if scale_hours <= 0:
            raise ValueError(f"scale_hours must be positive, got {scale_hours}")
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        self.scale_hours = float(scale_hours)
        self.shape = float(shape)

    @classmethod
    def from_mean(cls, mean_hours: float, shape: float) -> "WeibullLifetime":
        """Calibrate the scale so the *mean* lifetime equals ``mean_hours``.

        Mean of Weibull(eta, beta) is ``eta * Gamma(1 + 1/beta)``; solving
        for eta lets campaigns compare shapes at equal MTBF — the fair
        comparison, since operators buy disks by advertised MTBF.
        """
        return cls(mean_hours / math.gamma(1.0 + 1.0 / shape), shape)

    @classmethod
    def infant_mortality(cls, mean_hours: float) -> "WeibullLifetime":
        """Decreasing hazard (shape 0.7 < 1): early deaths dominate (burn-in regime)."""
        return cls.from_mean(mean_hours, INFANT_MORTALITY_SHAPE)

    @classmethod
    def wear_out(cls, mean_hours: float) -> "WeibullLifetime":
        """Increasing hazard (shape 2 > 1): old components die together (fleet aging)."""
        return cls.from_mean(mean_hours, WEAR_OUT_SHAPE)

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale_hours, self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeibullLifetime(scale_hours={self.scale_hours:g}, shape={self.shape:g})"
