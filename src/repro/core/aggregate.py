"""Forwarding-table aggregateability (§3.3.2, Fig. 12).

For a set of hierarchically organized names routed by some strategy,
the *complete* forwarding table has one entry per name; the *LPM*
table drops every entry subsumed by longest-prefix matching — an entry
``[d1, port]`` is subsumed when the longest remaining ancestor entry
already maps to the same port (Fig. 3: ``[travel.yahoo.com, 2]`` is
subsumed by ``[yahoo.com, 2]``, while ``[sports.yahoo.com, 5]`` must
stay).

Aggregateability = |complete| / |LPM|. Fig. 12 builds each router's
complete table from the content pass's hour-0 best ports
(:attr:`repro.core.ContentCosts.hour0_ports`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..net import ContentName, NameTrie

__all__ = [
    "lpm_forwarding_table",
    "aggregateability",
]


def lpm_forwarding_table(
    complete: Mapping[ContentName, int],
) -> Dict[ContentName, int]:
    """Drop subsumed entries (Fig. 3), keeping LPM semantics intact.

    Names are installed shallowest-first; an entry is subsumed exactly
    when the LPM lookup over the already-kept entries returns its own
    port, so lookups over the reduced table remain identical to the
    complete table for every name in it.
    """
    trie: NameTrie[int] = NameTrie()
    kept: Dict[ContentName, int] = {}
    for name in sorted(complete, key=len):
        port = complete[name]
        match = trie.longest_match(name)
        if match is not None and match[1] == port:
            continue  # subsumed by an ancestor with the same port
        trie.insert(name, port)
        kept[name] = port
    return kept


def aggregateability(
    complete: Mapping[ContentName, int],
    lpm: Optional[Mapping[ContentName, int]] = None,
) -> float:
    """|complete| / |LPM| (1.0 for an empty table)."""
    if lpm is None:
        lpm = lpm_forwarding_table(complete)
    if not complete:
        return 1.0
    if not lpm:
        raise ValueError("non-empty complete table reduced to empty LPM table")
    return len(complete) / len(lpm)

