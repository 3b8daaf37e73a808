"""Covering-prefix lookups by binary-trie walk: the address index's
reference.

:class:`~repro.topology.ASTopology` answers covering-prefix and origin
queries from per-length hash tables, and
:func:`repro.core.displacement.prefix_ids` resolves raw 32-bit values
through them. Here the same allocations go into a
:class:`~repro.net.PrefixTrie`, walked one bit at a time per address.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.net import IPv4Address, IPv4Prefix, PrefixTrie

__all__ = ["origin_trie", "prefix_ids"]


def origin_trie(topology) -> PrefixTrie:
    """Every allocated prefix of ``topology`` mapped to its origin AS."""
    trie: PrefixTrie = PrefixTrie()
    for asn, node in topology.ases.items():
        for prefix in node.prefixes:
            trie.insert(prefix, asn)
    return trie


def prefix_ids(topology, addresses):
    """``(prefixes, ids)`` as ``prefix_ids`` returns them: one trie
    walk per unique address, prefixes interned in order of their first
    covered address."""
    trie = origin_trie(topology)
    unique, inverse = np.unique(
        np.asarray(addresses, dtype=np.int64), return_inverse=True
    )
    index: Dict[IPv4Prefix, int] = {}
    ids = np.empty(len(unique), dtype=np.int64)
    for i, value in enumerate(unique.tolist()):
        match = trie.longest_match(IPv4Address(value))
        ids[i] = (
            -1 if match is None else index.setdefault(match[0], len(index))
        )
    return list(index), ids[inverse.reshape(-1)]
