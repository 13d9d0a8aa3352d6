"""apdim: Monte-Carlo dimensioning of indoor AP density for CSMA/CA Wi-Fi,
frequency-planned pico-cellular, and multi-cell zero-forcing systems."""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    SYSTEMS,
    DimensioningResult,
    Estimate,
    dimension,
    throughput_to_demand,
)
from .geometry import Layout, ServiceArea, grid_ladder, place_aps  # noqa: F401
from .scenario import Scenario, load_scenario, preset  # noqa: F401
