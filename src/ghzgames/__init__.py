"""Three-player direction games on a shared GHZ state."""

from .core import (
    Direction,
    DirectionProfile,
    GeneralGame,
    JointDistribution,
    MixedProfile,
    OutcomeTriple,
    PayoffTriple,
    SymmetricGame,
    random_direction,
)

__version__ = "0.1.0"

__all__ = [
    "Direction",
    "DirectionProfile",
    "GeneralGame",
    "JointDistribution",
    "MixedProfile",
    "OutcomeTriple",
    "PayoffTriple",
    "SymmetricGame",
    "__version__",
    "random_direction",
]
