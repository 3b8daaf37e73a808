"""The content domain universe (§7.1).

The paper starts from two sets of content domain names:

* the **popular set** — the Alexa top-500 domains plus all their
  subdomains, 12,342 names in total (Alexa ranks websites, not
  subdomains, and it is precisely the bulky-content subdomains like
  ``graphics.nytimes.com`` that get CNAME-aliased to CDNs);
* the **unpopular set** — the least popular 500 domains (rank near one
  million) and their subdomains, which have "hardly any subdomains".

Alexa lists are not redistributable and the 2014 snapshot is gone, so
this module *generates* a structurally equivalent universe: 500 popular
domains with a heavy-tailed subdomain count calibrated to total
~12,342 names, 24.5% of popular (1.6% of unpopular) names delegated to
CDNs — the shares the paper measured — and 500 unpopular domains with
0-2 subdomains each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net import ContentName
from ..stats import sequential_sum

__all__ = [
    "ContentDomain",
    "DomainUniverse",
    "DomainUniverseConfig",
    "generate_domain_universe",
]

_TLDS = ("com", "com", "com", "net", "org", "io", "co")
_SYLLABLES = (
    "ba", "be", "bo", "ca", "ce", "co", "da", "de", "do", "fa", "fi",
    "ga", "go", "ha", "hi", "ka", "ke", "ko", "la", "le", "lo", "ma",
    "me", "mi", "mo", "na", "ne", "no", "pa", "pe", "po", "ra", "re",
    "ro", "sa", "se", "so", "ta", "te", "to", "va", "ve", "vo", "za",
)
_SUBDOMAIN_WORDS = (
    "www", "static", "img", "video", "cdn", "api", "news", "sports",
    "travel", "mail", "shop", "blog", "m", "media", "assets", "dl",
    "graphics", "live", "music", "play", "games", "docs", "help",
    "search", "maps", "beta", "dev", "edge", "origin", "data",
)


@dataclass(frozen=True)
class ContentDomain:
    """One enterprise domain with its subdomains.

    ``rank`` is the popularity rank (1 = most popular). ``names``
    includes the apex name itself plus every subdomain; per-name CDN
    delegation is recorded in ``cdn_delegated``.
    """

    apex: ContentName
    rank: int
    popular: bool
    subdomains: Tuple[ContentName, ...]
    cdn_delegated: Dict[ContentName, bool] = field(hash=False)

    def all_names(self) -> Tuple[ContentName, ...]:
        """Apex first, then all subdomains."""
        return (self.apex,) + self.subdomains

    def is_cdn(self, name: ContentName) -> bool:
        """True if ``name`` is CNAME-delegated to a CDN."""
        return self.cdn_delegated.get(name, False)

    def cdn_share(self) -> float:
        """Fraction of this domain's names delegated to CDNs."""
        names = self.all_names()
        return sum(1 for n in names if self.is_cdn(n)) / len(names)


@dataclass
class DomainUniverseConfig:
    """Knobs for :func:`generate_domain_universe`."""

    num_popular: int = 500
    num_unpopular: int = 500
    #: Target total names in the popular set (paper: 12,342).
    popular_total_names: int = 12342
    popular_cdn_share: float = 0.245
    unpopular_cdn_share: float = 0.016
    seed: int = 2014


class DomainUniverse:
    """The generated popular and unpopular domain sets."""

    def __init__(
        self, popular: List[ContentDomain], unpopular: List[ContentDomain]
    ):
        self.popular = popular
        self.unpopular = unpopular

    def popular_names(self) -> List[ContentName]:
        """All names (apexes and subdomains) in the popular set."""
        return [n for d in self.popular for n in d.all_names()]

    def unpopular_names(self) -> List[ContentName]:
        """All names in the unpopular set."""
        return [n for d in self.unpopular for n in d.all_names()]

    def domain_of(self, name: ContentName) -> Optional[ContentDomain]:
        """The enterprise domain a name belongs to (by apex ancestry)."""
        for group in (self.popular, self.unpopular):
            for domain in group:
                if name == domain.apex or name.is_strict_descendant_of(
                    domain.apex
                ):
                    return domain
        return None


def _make_apex(rng: random.Random, used: set) -> ContentName:
    while True:
        length = rng.randint(2, 4)
        label = "".join(rng.choice(_SYLLABLES) for _ in range(length))
        tld = rng.choice(_TLDS)
        name = ContentName.from_domain(f"{label}.{tld}")
        if name not in used:
            used.add(name)
            return name


def _subdomain_labels(rng: random.Random, count: int) -> List[str]:
    labels: List[str] = []
    pool = list(_SUBDOMAIN_WORDS)
    rng.shuffle(pool)
    labels.extend(pool[: min(count, len(pool))])
    i = 0
    while len(labels) < count:
        base = _SUBDOMAIN_WORDS[i % len(_SUBDOMAIN_WORDS)]
        labels.append(f"{base}{i // len(_SUBDOMAIN_WORDS) + 2}")
        i += 1
    return labels[:count]


def _heavy_tailed_counts(
    rng: random.Random, n: int, target_total: int
) -> List[int]:
    """Zipf-like subdomain counts for ``n`` domains summing ~target_total.

    Raw weights ``1/rank**0.85`` are scaled to the target; the heaviest
    domains get hundreds of subdomains (think yahoo.com), the tail gets
    a handful — matching how the paper's 500 Alexa domains expand to
    12,342 names.
    """
    weights = [1.0 / (rank ** 0.85) for rank in range(1, n + 1)]
    scale = target_total / sequential_sum(weights)
    counts = []
    for w in weights:
        base = w * scale
        jitter = rng.uniform(0.8, 1.2)
        counts.append(max(1, int(round(base * jitter))))
    return counts


def generate_domain_universe(
    config: Optional[DomainUniverseConfig] = None,
) -> DomainUniverse:
    """Generate the popular + unpopular domain universe."""
    cfg = config or DomainUniverseConfig()
    rng = random.Random(cfg.seed)
    used: set = set()

    popular: List[ContentDomain] = []
    sub_counts = _heavy_tailed_counts(
        rng, cfg.num_popular, max(cfg.popular_total_names - cfg.num_popular, 0)
    )
    for rank in range(1, cfg.num_popular + 1):
        apex = _make_apex(rng, used)
        count = sub_counts[rank - 1]
        subs = tuple(apex.child(lbl) for lbl in _subdomain_labels(rng, count))
        cdn_flags: Dict[ContentName, bool] = {apex: False}
        for sub in subs:
            cdn_flags[sub] = rng.random() < cfg.popular_cdn_share
        popular.append(
            ContentDomain(
                apex=apex,
                rank=rank,
                popular=True,
                subdomains=subs,
                cdn_delegated=cdn_flags,
            )
        )

    unpopular: List[ContentDomain] = []
    for i in range(cfg.num_unpopular):
        rank = 1_000_000 - cfg.num_unpopular + i + 1
        apex = _make_apex(rng, used)
        count = rng.choice((0, 0, 0, 1, 1, 2))
        subs = tuple(apex.child(lbl) for lbl in _subdomain_labels(rng, count))
        cdn_flags = {apex: rng.random() < cfg.unpopular_cdn_share}
        for sub in subs:
            cdn_flags[sub] = rng.random() < cfg.unpopular_cdn_share
        unpopular.append(
            ContentDomain(
                apex=apex,
                rank=rank,
                popular=False,
                subdomains=subs,
                cdn_delegated=cdn_flags,
            )
        )
    return DomainUniverse(popular, unpopular)
