"""Tests for §3.3.2 aggregateability."""

import pytest

from repro.core import aggregateability, lpm_forwarding_table
from repro.net import ContentName

from tests.reference.experiments import complete_forwarding_table


def dom(text):
    return ContentName.from_domain(text)


class TestLpmTable:
    def test_fig3_example(self):
        # Fig. 3: travel.yahoo.com is subsumed, sports.yahoo.com is not.
        complete = {
            dom("yahoo.com"): 2,
            dom("travel.yahoo.com"): 2,
            dom("sports.yahoo.com"): 5,
            dom("cnn.com"): 2,
            dom("mit.edu"): 4,
        }
        lpm = lpm_forwarding_table(complete)
        assert dom("travel.yahoo.com") not in lpm
        assert dom("sports.yahoo.com") in lpm
        assert dom("yahoo.com") in lpm
        assert len(lpm) == 4
        assert aggregateability(complete, lpm) == pytest.approx(5 / 4)

    def test_lpm_lookups_stay_correct(self):
        from repro.net import NameTrie

        complete = {
            dom("a.com"): 1,
            dom("x.a.com"): 1,
            dom("y.a.com"): 2,
            dom("z.y.a.com"): 2,
            dom("w.y.a.com"): 1,
        }
        lpm = lpm_forwarding_table(complete)
        trie = NameTrie()
        for name, port in lpm.items():
            trie.insert(name, port)
        for name, port in complete.items():
            match = trie.longest_match(name)
            assert match is not None and match[1] == port

    def test_chain_subsumption(self):
        # a ≺ b ≺ c with equal ports collapses to the apex only.
        complete = {dom("c.com"): 7, dom("b.c.com"): 7, dom("a.b.c.com"): 7}
        lpm = lpm_forwarding_table(complete)
        assert list(lpm) == [dom("c.com")]
        assert aggregateability(complete) == pytest.approx(3.0)

    def test_chain_with_differing_middle(self):
        # port(a)==port(c) != port(b): a must stay (its nearest kept
        # ancestor is b, which has a different port).
        complete = {dom("c.com"): 7, dom("b.c.com"): 9, dom("a.b.c.com"): 7}
        lpm = lpm_forwarding_table(complete)
        assert set(lpm) == {dom("c.com"), dom("b.c.com"), dom("a.b.c.com")}

    def test_no_hierarchy_no_aggregation(self):
        complete = {dom(f"site{i}.com"): i % 3 for i in range(9)}
        lpm = lpm_forwarding_table(complete)
        assert lpm == dict(complete)
        assert aggregateability(complete) == 1.0

    def test_empty_table(self):
        assert lpm_forwarding_table({}) == {}
        assert aggregateability({}) == 1.0

    def test_orphan_subdomain_kept(self):
        # Subdomain with no installed ancestor must be kept.
        complete = {dom("x.a.com"): 1}
        assert lpm_forwarding_table(complete) == complete


class TestCompleteTable:
    def test_complete_table_uses_best_port(self):
        class FakeMapper:
            def best_port(self, addrs):
                return max(addrs) if addrs else None

        table = complete_forwarding_table(
            FakeMapper(),
            {dom("a.com"): frozenset({1, 5}), dom("b.com"): frozenset()},
        )
        assert table == {dom("a.com"): 5}
