"""Compatibility oracles: can a group of transmissions share a time slot?

The paper deliberately refuses to model interference geometrically
(Sec. III-B): coverage areas "may very likely not be a disc", accumulated
interference breaks pairwise reasoning, and signal power at long range "can
be arbitrary".  The scheduler therefore talks to an abstract
:class:`CompatibilityOracle` that answers *group* queries of bounded size
*M* (the head only ever probes combinations of at most M transmissions,
Sec. III-B last paragraph).

A *link* is the pair ``(sender, receiver)`` of node ids
(:data:`repro.topology.HEAD` = -1 denotes the cluster head).

Structural constraints (half-duplex nodes, one transmission per node per
slot) are *not* the oracle's job — :mod:`repro.core.transmissions` enforces
those.  Oracles answer only the radio-interference question.  All oracles
here nevertheless reject groups that repeat a node, as real probing would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import Iterable, Sequence

__all__ = ["Link", "CompatibilityOracle", "PairwiseOracle", "group_nodes_distinct"]

Link = tuple[int, int]


def group_nodes_distinct(links: Sequence[Link]) -> bool:
    """True when no node appears twice across the group's senders/receivers."""
    seen: set[int] = set()
    for sender, receiver in links:
        if sender in seen or receiver in seen or sender == receiver:
            return False
        seen.add(sender)
        seen.add(receiver)
    return True


class CompatibilityOracle(ABC):
    """Answers whether a group of ≤ ``max_group_size`` links can co-occur.

    ``max_group_size`` is the paper's *M*: testing all groups of more than a
    small constant number of transmissions needs exponential time, so the
    head only knows compatibility up to M (typically 2 or 3).
    """

    def __init__(self, max_group_size: int = 2):
        if max_group_size < 1:
            raise ValueError(f"max group size must be >= 1, got {max_group_size}")
        self.max_group_size = max_group_size
        self.query_count = 0
        # Group outcomes are static (nodes don't move mid-run), so queries
        # are memoized — the scheduler asks about the same small link
        # universe millions of times across a sweep.
        self._memo: dict[frozenset[Link], bool] = {}
        # The online scheduler's fill verdicts, two-level: a slot's group as
        # an ordered links tuple -> {candidate link -> may it join}.  "May
        # join" folds in the group-size cap (a group of M admits nothing)
        # and node reuse (compatible() rejects it without a query), so a
        # verdict is a pure function of (group, link) and the scheduler
        # judges each hop with one dict get.  Misses go through
        # compatible(), so query_count semantics are unchanged.
        self._seq_memo: dict[tuple[Link, ...], dict[Link, bool]] = {}

    def compatible(self, links: Sequence[Link]) -> bool:
        """Can all *links* transmit in the same slot without any failing?"""
        links = [tuple(l) for l in links]
        if len(links) > self.max_group_size:
            raise ValueError(
                f"oracle only knows groups of <= {self.max_group_size} "
                f"transmissions, asked about {len(links)}"
            )
        if not links:
            return True
        key = frozenset(links)
        if len(key) < len(links):
            # A repeated link reuses its nodes.  Reject it here: the
            # frozenset key has collapsed onto a smaller group's verdict.
            return False
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if not group_nodes_distinct(links):
            result = False
        else:
            self.query_count += 1
            result = self._group_compatible(links)
        self._memo[key] = result
        return result

    @abstractmethod
    def _group_compatible(self, links: Sequence[Link]) -> bool:
        """Model-specific group test; nodes are guaranteed distinct."""

    def single_link_ok(self, link: Link) -> bool:
        """Is the link usable at all (decodes when transmitting alone)?"""
        return self.compatible([link])


class PairwiseOracle(CompatibilityOracle):
    """A group is compatible iff **all pairs** are compatible.

    This is exactly the (flawed, per Sec. III-B) pairwise assumption of the
    protocol model, but it is also what the NP-hardness gadgets specify, so
    it is the right semantics for tabulated gadget oracles.  Subclasses
    implement :meth:`_pair_compatible`.
    """

    def _group_compatible(self, links: Sequence[Link]) -> bool:
        if len(links) == 1:
            return self._single_ok(links[0])
        return all(self._single_ok(l) for l in links) and all(
            self._pair_compatible(a, b) for a, b in combinations(links, 2)
        )

    def _single_ok(self, link: Link) -> bool:
        """Whether the link decodes in isolation; default: yes."""
        return True

    @abstractmethod
    def _pair_compatible(self, a: Link, b: Link) -> bool:
        """Can links *a* and *b* (node-disjoint) share a slot?"""


class TabulatedOracle(PairwiseOracle):
    """Pairwise oracle backed by an explicit table of compatible link pairs.

    Used by the NP-hardness gadget constructions, where the interference
    pattern is dictated by an arbitrary graph.  Pairs are unordered; any
    pair absent from the table is incompatible.
    """

    def __init__(
        self,
        compatible_pairs: Iterable[frozenset[Link] | tuple[Link, Link]],
        valid_links: Iterable[Link] | None = None,
        max_group_size: int = 2,
    ):
        super().__init__(max_group_size=max_group_size)
        self._pairs: set[frozenset[Link]] = set()
        for pair in compatible_pairs:
            a, b = tuple(pair)
            self._pairs.add(frozenset((tuple(a), tuple(b))))
        self._valid: set[Link] | None = (
            None if valid_links is None else {tuple(l) for l in valid_links}
        )

    def _single_ok(self, link: Link) -> bool:
        return self._valid is None or tuple(link) in self._valid

    def _pair_compatible(self, a: Link, b: Link) -> bool:
        return frozenset((tuple(a), tuple(b))) in self._pairs


__all__.append("TabulatedOracle")
