"""Measurement instruments: the PlanetLab vantage fleet + controller,
and synthetic RouteViews/RIPE routers."""

from .routeviews import (
    RIPE_SPECS,
    ROUTEVIEWS_SPECS,
    RouterSpec,
    build_ripe_routers,
    build_routers,
    build_routeviews_routers,
    rib_rows,
)
from .vantage import (
    ContentMeasurement,
    MeasurementConfig,
    MeasurementController,
    VantageFleet,
    VantageNode,
)

__all__ = [
    "RouterSpec",
    "ROUTEVIEWS_SPECS",
    "RIPE_SPECS",
    "build_routers",
    "build_routeviews_routers",
    "build_ripe_routers",
    "rib_rows",
    "VantageNode",
    "VantageFleet",
    "MeasurementConfig",
    "MeasurementController",
    "ContentMeasurement",
]
