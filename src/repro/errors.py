"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch a single base class. Sub-classes are grouped by
subsystem so callers can be selective without string-matching messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied."""


class UnitError(ConfigurationError):
    """A quantity was supplied in the wrong unit or with an invalid value."""


class GameError(ReproError):
    """A game-theoretic computation failed (no equilibrium, empty market...)."""


class InfeasibleMarketError(GameError):
    """No price in ``[C, p_max]`` induces positive demand from any follower."""


class NeuralNetworkError(ReproError):
    """An invalid operation on the actor-critic network or its optimiser
    (a bad hyper-parameter, or a state dict whose keys, shapes or values
    do not fit)."""


class GradientError(NeuralNetworkError):
    """A gradient that cannot be used: a PPO update whose gradient norm is
    not finite (the update is refused and the network left unchanged), or
    a backward pass on a graph that cannot provide one."""


class EnvironmentError_(ReproError):
    """The RL environment was driven through an invalid transition.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`EnvironmentError` alias of :class:`OSError`.
    """


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced invalid output."""
