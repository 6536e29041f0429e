"""pilotseq: periodic training-sequence design and link-level simulation
for FDD massive MIMO channel estimation under Kalman tracking."""

from .channel_model import (
    ArrayGeometry,
    ChannelStatistics,
    DftBasis,
    OneRingGeometry,
)
from .config import ExperimentConfig, preset
from .sequence_design import FrameParams, IntervalAssignment, SequenceMatrix
from .simulate import run_multiuser, run_schemes
from .steady_state import SteadyStateProfile

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ChannelStatistics",
    "DftBasis",
    "ExperimentConfig",
    "FrameParams",
    "IntervalAssignment",
    "OneRingGeometry",
    "SequenceMatrix",
    "SteadyStateProfile",
    "preset",
    "run_multiuser",
    "run_schemes",
]
