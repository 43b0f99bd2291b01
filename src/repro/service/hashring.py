"""Consistent hash ring mapping cache fingerprints to shard servers.

The gateway's routing primitive: every
:meth:`~repro.sim.parallel.RunSpec.key` must land on the *same*
shard from any gateway, any process, any day — that is what turns each
shard's in-flight dedup into fleet-wide dedup.  A plain
``hash(key) % n`` would do that too, but re-shards almost every key
when a node joins or leaves; the classic virtual-node ring moves only
``~1/n`` of the keyspace instead.

Determinism notes: positions are SHA-256 of ``"{node}#{replica}"``, so
the ring layout is a pure function of the node list (order-insensitive
— nodes are sorted first) and never of process state, ``PYTHONHASHSEED``,
or insertion order.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterator, List, Sequence, Tuple

__all__ = ["HashRing"]


def _position(label: str) -> int:
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Virtual-node consistent hash ring over a fixed node list.

    Parameters
    ----------
    nodes:
        Node identities (shard base URLs); duplicates are rejected.
    replicas:
        Virtual nodes per physical node.  More replicas smooth the
        keyspace split at the cost of a larger (still tiny) ring.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = 64) -> None:
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate nodes: {sorted(nodes)}")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.nodes: Tuple[str, ...] = tuple(sorted(nodes))
        self.replicas = replicas
        ring: List[Tuple[int, str]] = []
        for node in self.nodes:
            for replica in range(replicas):
                ring.append((_position(f"{node}#{replica}"), node))
        ring.sort()
        self._ring = ring
        self._positions = [position for position, _node in ring]

    def __len__(self) -> int:
        return len(self.nodes)

    def node_for(self, key: str) -> str:
        """The primary owner of ``key``."""
        return next(self.preference(key))

    def preference(self, key: str) -> Iterator[str]:
        """Nodes in failover order for ``key``: the primary owner first,
        then each remaining node in ring-successor order.

        Walking this order on connection failure keeps routing
        deterministic even mid-outage — every gateway tries the same
        fallback shard for the same key.
        """
        start = bisect.bisect_right(self._positions, _position(key))
        seen = set()
        for offset in range(len(self._ring)):
            _position_, node = self._ring[(start + offset) % len(self._ring)]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self.nodes):
                    return

    def spread(self, keys: Sequence[str]) -> dict:
        """Key count per node (diagnostics: ``/metrics`` and tests)."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
