"""Synthetic AS-level Internet topology.

The paper's interdomain methodology (§3.2, §6.2.1) consumes RIBs from
real RouteViews/RIPE routers. Those dumps are unavailable offline, so we
substitute a synthetic Internet: a tiered AS graph with explicit
customer/provider and peer relationships (the same structure Gao-style
inference recovers from real RIBs), per-AS geography for latency and
vantage placement, and per-AS address-space allocations so that every
IPv4 address used in the evaluation has a well-defined origin AS.

The generator produces three tiers:

* **Tier-1** transit backbones, fully peered with each other, spread
  over the major regions;
* **Tier-2** regional ISPs, customers of 1-3 tier-1s, peering within
  (and occasionally across) regions;
* **Stub** edge networks (enterprises, campuses, mobile carriers'
  regional arms), customers of 1-2 tier-2/tier-1 providers.

Geography is a set of named regions with planar coordinates; link
latency is distance-proportional, which is what the iPlane substitute
(:mod:`repro.latency.iplane`) integrates along AS paths.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..net import IPv4Address, IPv4Prefix
from ..stats import sequential_sum

__all__ = [
    "Tier",
    "Relationship",
    "ASNode",
    "ASTopology",
    "ASTopologyConfig",
    "generate_as_topology",
    "REGIONS",
]


class Tier(enum.Enum):
    """Position of an AS in the provider hierarchy."""

    T1 = "tier1"
    T2 = "tier2"
    STUB = "stub"


class Relationship(enum.Enum):
    """Business relationship of a neighbor, from this AS's perspective."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


#: Region name -> planar coordinates, in units of ~1 ms of one-way
#: propagation delay per unit distance. Layout loosely follows world
#: geography so that e.g. Oregon--London is much farther than
#: Oregon--California.
REGIONS: Dict[str, Tuple[float, float]] = {
    "us-west": (0.0, 45.0),
    "us-central": (25.0, 43.0),
    "us-east": (45.0, 42.0),
    "sa": (65.0, -20.0),
    "eu-west": (105.0, 52.0),
    "eu-east": (130.0, 50.0),
    "africa": (115.0, -5.0),
    "indian-ocean": (150.0, -20.0),
    "asia-south": (165.0, 20.0),
    "asia-east": (195.0, 36.0),
    "oceania": (200.0, -30.0),
}

#: Regions that host tier-1 backbones.
_T1_REGIONS: Sequence[str] = (
    "us-west",
    "us-east",
    "us-central",
    "eu-west",
    "eu-east",
    "asia-east",
)


@dataclass
class ASNode:
    """One autonomous system."""

    asn: int
    tier: Tier
    region: str
    providers: Set[int] = field(default_factory=set)
    customers: Set[int] = field(default_factory=set)
    peers: Set[int] = field(default_factory=set)
    prefixes: List[IPv4Prefix] = field(default_factory=list)

    def neighbors(self) -> Set[int]:
        """All neighboring ASNs regardless of relationship."""
        return self.providers | self.customers | self.peers

    def degree(self) -> int:
        """Total number of AS-level neighbors."""
        return len(self.providers) + len(self.customers) + len(self.peers)


@dataclass
class ASTopologyConfig:
    """Knobs for :func:`generate_as_topology`.

    Defaults produce ~420 ASes — large enough for realistic next-hop
    diversity at well-connected vantage points while keeping full route
    computation fast.
    """

    t2_per_region: int = 5
    stubs_per_region: int = 30
    #: Range of tier-1 providers per tier-2. Real large ISPs buy
    #: transit from (or peer with) most tier-1s, which is what makes
    #:  AS-path lengths to different edge networks uniform — and
    #: forwarding next hops at distant routers stable under mobility.
    t2_provider_range: Tuple[int, int] = (6, 12)
    stub_multihome_prob: float = 0.35
    t2_peering_degree: int = 3
    cross_region_peer_prob: float = 0.15
    prefixes_per_stub: Tuple[int, int] = (1, 4)
    prefixes_per_t2: Tuple[int, int] = (4, 10)
    prefixes_per_t1: Tuple[int, int] = (8, 16)
    seed: int = 2014


class ASTopology:
    """The AS graph plus address-space ownership and latency model.

    Address ownership is a hash index that :meth:`assign_prefix` keeps
    current: the exact ``{prefix: origin}`` allocations, and for each
    distinct prefix length a dict from the prefix's leading bits
    (``network >> (32 - length)``) to ``(prefix, origin)``, longest
    length first. A longest-prefix match is therefore one dict probe
    per distinct length (the generator hands out only /16s).
    """

    def __init__(self) -> None:
        self.ases: Dict[int, ASNode] = {}
        self._origins: Dict[IPv4Prefix, int] = {}
        #: ``32 - length`` -> {leading bits: (prefix, origin)}, ascending
        #: shift, so the longest allocated length is probed first.
        self._by_shift: Dict[int, Dict[int, Tuple[IPv4Prefix, int]]] = {}
        self._region_jitter: Dict[int, Tuple[float, float]] = {}

    # -- construction ---------------------------------------------------

    def add_as(self, node: ASNode, jitter: Tuple[float, float] = (0.0, 0.0)) -> None:
        """Register an AS; ``jitter`` offsets it from its region center."""
        if node.asn in self.ases:
            raise ValueError(f"duplicate ASN {node.asn}")
        if node.region not in REGIONS:
            raise ValueError(f"unknown region {node.region!r}")
        self.ases[node.asn] = node
        self._region_jitter[node.asn] = jitter

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        if customer == provider:
            raise ValueError("an AS cannot be its own provider")
        self.ases[customer].providers.add(provider)
        self.ases[provider].customers.add(customer)

    def add_peering(self, a: int, b: int) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        if a == b:
            raise ValueError("an AS cannot peer with itself")
        self.ases[a].peers.add(b)
        self.ases[b].peers.add(a)

    def assign_prefix(self, asn: int, prefix: IPv4Prefix) -> None:
        """Allocate ``prefix`` to ``asn`` as originated address space."""
        existing = self._origins.get(prefix)
        if existing is not None and existing != asn:
            raise ValueError(f"{prefix} already originated by AS{existing}")
        self.ases[asn].prefixes.append(prefix)
        self._origins[prefix] = asn
        shift = 32 - prefix.length
        table = self._by_shift.get(shift)
        if table is None:
            table = self._by_shift[shift] = {}
            self._by_shift = dict(sorted(self._by_shift.items()))
        table[prefix.network >> shift] = (prefix, asn)

    # -- relationship queries --------------------------------------------

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """What ``neighbor`` is to ``asn`` (customer, peer, or provider)."""
        node = self.ases[asn]
        if neighbor in node.customers:
            return Relationship.CUSTOMER
        if neighbor in node.peers:
            return Relationship.PEER
        if neighbor in node.providers:
            return Relationship.PROVIDER
        raise KeyError(f"AS{neighbor} is not adjacent to AS{asn}")

    def are_adjacent(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` share any business relationship."""
        return b in self.ases[a].neighbors()

    def ases_in_region(
        self, region: str, tier: Optional[Tier] = None
    ) -> List[int]:
        """ASNs homed in ``region``, optionally filtered by tier."""
        return sorted(
            asn
            for asn, node in self.ases.items()
            if node.region == region and (tier is None or node.tier == tier)
        )

    # -- address space ---------------------------------------------------

    def covering(self, value: int) -> Optional[Tuple[IPv4Prefix, int]]:
        """``(prefix, origin ASN)`` of the longest allocated prefix
        covering the 32-bit address ``value`` (None if none does).

        The value-level lookup batch callers use: no
        :class:`IPv4Address` is built.
        """
        for shift, table in self._by_shift.items():
            hit = table.get(value >> shift)
            if hit is not None:
                return hit
        return None

    def origin_of_address(self, address: IPv4Address) -> Optional[int]:
        """The AS originating the longest prefix covering ``address``."""
        hit = self.covering(address.value)
        return None if hit is None else hit[1]

    def origin_of_prefix(self, prefix: IPv4Prefix) -> Optional[int]:
        """The AS originating exactly ``prefix`` (None if unallocated)."""
        return self._origins.get(prefix)

    def covering_prefix(self, address: IPv4Address) -> Optional[IPv4Prefix]:
        """The longest allocated prefix covering ``address``."""
        hit = self.covering(address.value)
        return None if hit is None else hit[0]

    def all_prefixes(self) -> Iterator[Tuple[IPv4Prefix, int]]:
        """All allocated ``(prefix, origin ASN)`` pairs, by ascending
        (network, length): a covering prefix before the ones it covers."""
        return iter(sorted(
            self._origins.items(),
            key=lambda item: (item[0].network, item[0].length),
        ))

    # -- geography / latency ----------------------------------------------

    def position(self, asn: int) -> Tuple[float, float]:
        """Planar position of ``asn`` (region center plus jitter)."""
        node = self.ases[asn]
        cx, cy = REGIONS[node.region]
        jx, jy = self._region_jitter[asn]
        return (cx + jx, cy + jy)

    def link_latency_ms(self, a: int, b: int) -> float:
        """One-way latency of the AS link ``a -- b`` in milliseconds.

        Distance-proportional with a 2 ms per-link floor standing in
        for intra-PoP and router processing delay.
        """
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return 2.0 + math.hypot(ax - bx, ay - by) * 0.55

    def path_latency_ms(self, path: Sequence[int]) -> float:
        """One-way latency along an AS path (list of ASNs)."""
        return sequential_sum(
            self.link_latency_ms(u, v) for u, v in zip(path, path[1:])
        )

    # -- graph views ------------------------------------------------------

    def undirected_edges(self) -> Iterator[Tuple[int, int]]:
        """Each AS adjacency once, as an ``(a, b)`` pair with a < b."""
        for asn, node in self.ases.items():
            for nbr in node.neighbors():
                if asn < nbr:
                    yield asn, nbr

    def shortest_as_hops(self, source: int) -> Dict[int, int]:
        """Hop distances over the *physical* AS graph (policy-free).

        This is the §6.3.2 lower bound: the shortest AS path in the
        physical topology even if no policy-compliant route uses it.
        """
        from collections import deque

        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(self.ases[u].neighbors()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def __len__(self) -> int:
        return len(self.ases)


def _alloc_region_blocks() -> Dict[str, IPv4Prefix]:
    """Give each region a /8 so allocations never collide across regions."""
    blocks = {}
    for i, region in enumerate(sorted(REGIONS)):
        blocks[region] = IPv4Prefix((10 + i) << 24, 8)
    return blocks


def generate_as_topology(
    config: Optional[ASTopologyConfig] = None,
) -> ASTopology:
    """Build the synthetic Internet described in the module docstring,
    traced as span ``topology.generate``.

    Raises ``ValueError`` when a region's ASes need more /16s than the
    256 in its /8.
    """
    with obs.span("topology.generate"):
        return _generate(config or ASTopologyConfig())


def _generate(cfg: ASTopologyConfig) -> ASTopology:
    """The synthetic Internet of ``cfg``."""
    rng = random.Random(cfg.seed)
    topo = ASTopology()
    next_asn = 100

    # Tier-1 backbones: two per backbone region, full peer mesh.
    t1s: List[int] = []
    for region in _T1_REGIONS:
        for _ in range(2):
            node = ASNode(asn=next_asn, tier=Tier.T1, region=region)
            topo.add_as(
                node,
                jitter=(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
            t1s.append(next_asn)
            next_asn += 1
    for i, a in enumerate(t1s):
        for b in t1s[i + 1 :]:
            topo.add_peering(a, b)

    # Tier-2 regional ISPs.
    t2_by_region: Dict[str, List[int]] = {r: [] for r in REGIONS}
    for region in sorted(REGIONS):
        for _ in range(cfg.t2_per_region):
            node = ASNode(asn=next_asn, tier=Tier.T2, region=region)
            topo.add_as(
                node,
                jitter=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            t2_by_region[region].append(next_asn)
            # Providers: a nearby tier-1 plus broad transit from most
            # of the tier-1 mesh (see t2_provider_range).
            in_region_t1 = [a for a in t1s if topo.ases[a].region == region]
            providers = {rng.choice(in_region_t1 if in_region_t1 else t1s)}
            lo, hi = cfg.t2_provider_range
            want = min(rng.randint(lo, hi), len(t1s))
            while len(providers) < want:
                providers.add(rng.choice(t1s))
            for p in providers:
                topo.add_customer_provider(next_asn, p)
            next_asn += 1

    # Tier-2 peering: within region, plus occasional cross-region links.
    all_t2 = [a for lst in t2_by_region.values() for a in lst]
    for region, members in t2_by_region.items():
        for a in members:
            others = [b for b in members if b != a]
            rng.shuffle(others)
            for b in others[: cfg.t2_peering_degree]:
                if not topo.are_adjacent(a, b):
                    topo.add_peering(a, b)
            if rng.random() < cfg.cross_region_peer_prob:
                b = rng.choice(all_t2)
                if b != a and not topo.are_adjacent(a, b):
                    topo.add_peering(a, b)

    # Stubs.
    for region in sorted(REGIONS):
        regional_t2 = t2_by_region[region]
        for _ in range(cfg.stubs_per_region):
            node = ASNode(asn=next_asn, tier=Tier.STUB, region=region)
            topo.add_as(
                node,
                jitter=(rng.uniform(-8, 8), rng.uniform(-8, 8)),
            )
            providers = {rng.choice(regional_t2)}
            if rng.random() < cfg.stub_multihome_prob:
                # Second provider: usually another regional T2, sometimes
                # a tier-1 (direct transit contract).
                pool = regional_t2 if rng.random() < 0.8 else t1s
                candidate = rng.choice(pool)
                if candidate not in providers:
                    providers.add(candidate)
            for p in providers:
                topo.add_customer_provider(next_asn, p)
            next_asn += 1

    # Address space: carve per-region /8 blocks into /16s, hand each AS
    # a tier-dependent number of /16s.
    blocks = _alloc_region_blocks()
    cursor: Dict[str, int] = {r: 0 for r in REGIONS}
    per_tier = {
        Tier.T1: cfg.prefixes_per_t1,
        Tier.T2: cfg.prefixes_per_t2,
        Tier.STUB: cfg.prefixes_per_stub,
    }
    for asn in sorted(topo.ases):
        node = topo.ases[asn]
        lo, hi = per_tier[node.tier]
        count = rng.randint(lo, hi)
        block = blocks[node.region]
        for _ in range(count):
            index = cursor[node.region]
            if index >= 256:
                raise ValueError(
                    f"region {node.region!r} ran out of address space at "
                    f"AS{asn}: its /8 holds only 256 /16s"
                )
            cursor[node.region] = index + 1
            prefix = IPv4Prefix(block.network | (index << 16), 16)
            topo.assign_prefix(asn, prefix)

    return topo
