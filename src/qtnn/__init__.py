"""Neural networks activated by quantum-tunnelling transmission.

The package provides the barrier-transmission activation family and its
classical baselines, four desk-scale architectures built on them
(feedforward, recurrent, Bayesian, echo-state), the datasets and generators
they train on, a 2-D Crank-Nicolson wavepacket solver for the underlying
physics, and a command-line benchmark harness.
"""

from .activation import (
    Activation,
    BarrierParams,
    activate,
    harmonic_spectrum,
    qt_transmission,
    qt_transmission_derivative,
    softmax,
    softmax_crossentropy,
)
from .numerics import Rng, dft_magnitude, solve_spd, spectral_radius

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "BarrierParams",
    "activate",
    "qt_transmission",
    "qt_transmission_derivative",
    "softmax",
    "softmax_crossentropy",
    "harmonic_spectrum",
    "Rng",
    "solve_spd",
    "spectral_radius",
    "dft_magnitude",
    "__version__",
]
