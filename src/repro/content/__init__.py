"""Content naming, hosting, and mobility: the domain universe, CDN and
origin hosting models, and per-name address timelines."""

from .domains import (
    ContentDomain,
    DomainUniverse,
    DomainUniverseConfig,
    generate_domain_universe,
)
from .hosting import (
    CDNHosting,
    CDNProvider,
    EdgeCluster,
    HostingConfig,
    HostingDirectory,
    OriginHosting,
    assign_hosting,
)
from .timeline import (
    AddressTimeline,
    build_cdn_timeline,
    build_origin_timeline,
    build_timeline,
)

__all__ = [
    "ContentDomain",
    "DomainUniverse",
    "DomainUniverseConfig",
    "generate_domain_universe",
    "EdgeCluster",
    "CDNProvider",
    "OriginHosting",
    "CDNHosting",
    "HostingDirectory",
    "HostingConfig",
    "assign_hosting",
    "AddressTimeline",
    "build_origin_timeline",
    "build_cdn_timeline",
    "build_timeline",
]
