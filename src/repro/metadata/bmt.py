"""Bonsai Merkle Trees (paper Section II-A3, Figure 2).

Two views of the same structure:

* :class:`BonsaiMerkleTree` - the functional tree. Real SHA-256 hashing over
  leaf payloads (counter sectors), sparse node storage with per-level
  defaults so untouched memory verifies cheaply, and an on-chip root. Used
  by the functional security layer to actually detect replay.
* :class:`BMTGeometry` - the arithmetic-only view the timing simulator
  needs: depth, per-level node counts, and the leaf-to-root path of node
  coordinates, which the BMT cache is keyed on.

Both are arity-``k`` (default 8: a 64 B node holds eight 64-bit child MACs).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigError, FreshnessError


@dataclass(frozen=True)
class BMTGeometry:
    """Shape of a Bonsai Merkle tree over ``num_leaves`` counter units.

    Level 0 is the leaves' parents are at level 1, and so on up to
    ``depth``, where a single root node lives (kept on-chip, so it is never
    fetched from memory).
    """

    num_leaves: int
    arity: int = 8
    #: Number of levels above the leaves (root level index). Derived in
    #: ``__post_init__`` (excluded from eq/hash/repr), as are the per-level
    #: node counts and ordinal offsets - the verification walk consults all
    #: three for every fetched node, so they are computed once.
    depth: int = field(init=False, repr=False, compare=False, default=0)
    _nodes_at: Tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _ordinal_offsets: Tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _path_cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _step_cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.num_leaves <= 0:
            raise ConfigError("num_leaves must be positive")
        if self.arity < 2:
            raise ConfigError("arity must be at least 2")
        if self.num_leaves == 1:
            depth = 1
        else:
            depth = max(1, math.ceil(math.log(self.num_leaves, self.arity)))
        fill = object.__setattr__
        fill(self, "depth", depth)
        nodes_at = tuple(
            max(1, math.ceil(self.num_leaves / (self.arity ** lv)))
            for lv in range(depth + 1)
        )
        fill(self, "_nodes_at", nodes_at)
        offsets = [0, 0]  # levels 0 (leaves, unused) and 1 start at 0
        for lv in range(1, depth):
            offsets.append(offsets[-1] + nodes_at[lv])
        fill(self, "_ordinal_offsets", tuple(offsets))

    def nodes_at_level(self, level: int) -> int:
        """How many nodes exist at ``level`` (level 0 = leaves)."""
        if not 0 <= level <= self.depth:
            raise ConfigError(f"level {level} outside tree of depth {self.depth}")
        return self._nodes_at[level]

    def parent(self, level: int, index: int) -> Tuple[int, int]:
        """Coordinates of the parent of node (level, index)."""
        return level + 1, index // self.arity

    def path(self, leaf_index: int) -> List[Tuple[int, int]]:
        """Internal nodes from the leaf's parent up to (excl.) the root.

        These are the nodes a verification walk reads from memory; the walk
        stops early at the first node found in the BMT cache. The root is
        excluded - it lives in an on-chip register and never generates
        memory traffic. Paths are memoized per leaf (callers only iterate
        the result).
        """
        cached = self._path_cache.get(leaf_index)
        if cached is not None:
            return cached
        if not 0 <= leaf_index < self.num_leaves:
            raise ConfigError(
                f"leaf {leaf_index} outside tree of {self.num_leaves} leaves"
            )
        nodes: List[Tuple[int, int]] = []
        level, index = 0, leaf_index
        while level < self.depth - 1:
            level, index = self.parent(level, index)
            nodes.append((level, index))
        self._path_cache[leaf_index] = nodes
        return nodes

    @property
    def total_internal_nodes(self) -> int:
        return sum(self.nodes_at_level(lv) for lv in range(1, self.depth + 1))

    def node_ordinal(self, level: int, index: int) -> int:
        """Flatten (level, index) into a single node number.

        Internal nodes of all levels share one linear address space (level 1
        first), which is how the timing layer addresses Merkle nodes in the
        metadata region and keys the BMT cache.
        """
        if not 1 <= level <= self.depth:
            raise ConfigError(f"level {level} outside internal levels 1..{self.depth}")
        if not 0 <= index < self._nodes_at[level]:
            raise ConfigError(f"index {index} outside level {level}")
        return self._ordinal_offsets[level] + index

    def path_steps(self, leaf_index: int) -> Tuple[Tuple[int, int], ...]:
        """The walk of :meth:`path` as precomputed BMT-cache coordinates.

        Each step is ``(line, slot)`` for one internal node: a 64 B node
        occupies half a 128 B cache line, so node ``n`` lives in line
        ``n // 2`` at sector slot ``(n % 2) * 2``. Memoized per leaf - the
        verification walk does zero ordinal arithmetic on a warm path.
        """
        cached = self._step_cache.get(leaf_index)
        if cached is not None:
            return cached
        steps = tuple(
            (node // 2, (node % 2) * 2)
            for node in (
                self.node_ordinal(level, index)
                for level, index in self.path(leaf_index)
            )
        )
        self._step_cache[leaf_index] = steps
        return steps

class BonsaiMerkleTree:
    """Functional hash tree over counter-sector payloads.

    The tree is sparse: absent leaves take a default payload (all-zero
    counters) and absent internal nodes take per-level default hashes, so a
    terabyte-scale protected region costs memory only where it was touched.
    The root lives in this object - the model's trusted on-chip register.
    """

    HASH_BYTES = 16  # truncated SHA-256; 128-bit nodes as in BMT-style trees

    def __init__(
        self,
        geometry: BMTGeometry,
        default_leaf: bytes = b"\x00" * 32,
        tracer=None,
    ) -> None:
        from ..sim.trace import resolve_tracer

        self.geometry = geometry
        self.tracer = resolve_tracer(tracer)
        self.verifies = 0
        self.updates = 0
        self._default_leaf_hash = self._hash(default_leaf)
        self._levels: List[Dict[int, bytes]] = [
            {} for _ in range(geometry.depth + 1)
        ]
        self._level_defaults = self._compute_level_defaults()
        self._root = self._compute_node(self.geometry.depth, 0)

    # -- hashing ----------------------------------------------------------------
    @classmethod
    def _hash(cls, payload: bytes) -> bytes:
        return hashlib.sha256(payload).digest()[: cls.HASH_BYTES]

    def _compute_level_defaults(self) -> List[bytes]:
        """Default node hash for each level, assuming all-default children."""
        defaults = [self._default_leaf_hash]
        for _ in range(self.geometry.depth):
            children = defaults[-1] * self.geometry.arity
            defaults.append(self._hash(children))
        return defaults

    def _node_hash(self, level: int, index: int) -> bytes:
        stored = self._levels[level].get(index)
        if stored is not None:
            return stored
        return self._level_defaults[level]

    def _compute_node(self, level: int, index: int) -> bytes:
        children = b"".join(
            self._node_hash(level - 1, index * self.geometry.arity + c)
            for c in range(self.geometry.arity)
        )
        return self._hash(children)

    # -- public interface ---------------------------------------------------------
    @property
    def root(self) -> bytes:
        """The on-chip root hash."""
        return self._root

    def update(self, leaf_index: int, leaf_payload: bytes) -> None:
        """Install a new leaf payload and rehash its path to the root.

        The update is read-verify-modify-write, as in real BMT controllers:
        before any stored sibling is *used* to recompute an ancestor, the
        stored state along the updated path must still be internally
        consistent and anchored to the on-chip root. Without this, an
        attacker could plant a stale sibling and have a legitimate update
        launder it into the new root.
        """
        level, index = 0, leaf_index
        while level < self.geometry.depth:
            level, index = self.geometry.parent(level, index)
            if self._compute_node(level, index) != self._node_hash(level, index):
                raise FreshnessError(
                    f"stored Merkle node ({level}, {index}) inconsistent with "
                    "its children; refusing to fold tampered state into an "
                    "update"
                )
        if self._node_hash(self.geometry.depth, 0) != self._root:
            raise FreshnessError(
                "stored Merkle root no longer matches the on-chip root; "
                "refusing to fold tampered nodes into an update"
            )
        self._levels[0][leaf_index] = self._hash(leaf_payload)
        level, index = 0, leaf_index
        while level < self.geometry.depth:
            level, index = self.geometry.parent(level, index)
            self._levels[level][index] = self._compute_node(level, index)
        self._root = self._levels[self.geometry.depth][0]
        self.updates += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "bmt-functional", "update", self.updates, cat="functional",
                args={"leaf": leaf_index},
            )

    def verify(self, leaf_index: int, leaf_payload: bytes) -> bool:
        """Check a leaf against the on-chip root.

        Walks the stored tree (the attacker-writable memory image) and
        compares the recomputed root with the trusted register; any replayed
        leaf or interior node makes the comparison fail.
        """
        self.verifies += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "bmt-functional", "verify", self.verifies, cat="functional",
                args={"leaf": leaf_index},
            )
        if self._hash(leaf_payload) != self._node_hash(0, leaf_index):
            return False
        level, index = 0, leaf_index
        while level < self.geometry.depth:
            level, index = self.geometry.parent(level, index)
            if self._compute_node(level, index) != self._node_hash(level, index):
                return False
        return self._node_hash(self.geometry.depth, 0) == self._root

    def verify_or_raise(self, leaf_index: int, leaf_payload: bytes) -> None:
        if not self.verify(leaf_index, leaf_payload):
            raise FreshnessError(
                f"Merkle verification failed for leaf {leaf_index}: stale or "
                "tampered counters"
            )

    # -- attack surface for tests --------------------------------------------------
    def tamper_node(self, level: int, index: int, payload: bytes) -> None:
        """Overwrite a stored node as a physical attacker could (test hook)."""
        self._levels[level][index] = self._hash(payload)

    def raw_leaf_hash(self, leaf_index: int) -> bytes:
        return self._node_hash(0, leaf_index)

    def restore_leaf_hash(self, leaf_index: int, old_hash: bytes) -> None:
        """Replay an old leaf hash (test hook for replay attacks)."""
        self._levels[0][leaf_index] = old_hash
