"""Equivalence relations over state sets: closure, transport, congruences.

A partition stores one block id per state. Blocks are numbered by their
smallest member, ascending, which makes equality of partitions bit-exact.
The central operation is ``msr``: the coarsest refinement of a partition
that is stable under every action (a congruence). One engine, ``_refine``,
computes it by Hopcroft's "process the smaller half" splitting in
O(m·n·log n) for n states and m actions; bisimulation and symmetry
detection in ``coupling`` run on the same engine. ``msr_bruteforce`` is an
enumeration oracle for it on small state sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    InputError,
    PreconditionError,
    StateMap,
    TransitionSystem,
    _first_occurrence_count,
    _ids,
    _index,
    _relabeled_rows,
    intern_names,
    require,
)


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering ``0..n_states-1``, canonically numbered."""

    n_states: int
    n_blocks: int
    block_of: tuple[int, ...]

    def __post_init__(self):
        # the checked path, for partitions given from outside: the about 90,000
        # that one acceptance bench pass builds are canonical by construction
        # and take _trusted. Plain ints, which _index would return unchanged,
        # skip the call.
        n, k = self.n_states, self.n_blocks
        if type(n) is not int or type(k) is not int:
            n, k = _index(n, "n_states"), _index(k, "n_blocks")
            object.__setattr__(self, "n_states", n)
            object.__setattr__(self, "n_blocks", k)
        block_of = _ids(self.block_of, "block ids")
        object.__setattr__(self, "block_of", block_of)
        if n < 1 or len(block_of) != n:
            raise InputError("block_of must assign a block to every state")
        # canonical numbering: the k-th distinct id, scanning states upward, is k
        occurring = _first_occurrence_count(block_of)
        if occurring is None:
            raise InputError("blocks must be numbered by smallest member, ascending; "
                             "use Partition.from_block_of to canonicalize")
        if occurring != k:
            raise InputError(f"n_blocks={k} but {occurring} blocks occur")

    @classmethod
    def _trusted(cls, n_states: int, n_blocks: int, block_of: tuple[int, ...]) -> "Partition":
        """A partition from ints that are canonical by construction, unchecked but for emptiness.

        Only for ids made canonical just before, which ``__post_init__`` would rescan:
        ``intern_names`` output, first-occurrence ranks, the identity and the single block.
        """
        if n_states < 1:
            raise InputError("block_of must assign a block to every state")
        part = object.__new__(cls)
        object.__setattr__(part, "n_states", n_states)
        object.__setattr__(part, "n_blocks", n_blocks)
        object.__setattr__(part, "block_of", block_of)
        return part

    @classmethod
    def from_block_of(cls, raw) -> "Partition":
        block_of, keys = intern_names(raw)
        return cls._trusted(len(block_of), len(keys), block_of)

    @classmethod
    def from_blocks(cls, n_states: int, blocks) -> "Partition":
        n_states = _index(n_states, "n_states")
        assign: dict[int, int] = {}
        for i, block in enumerate(blocks):
            for s in block:
                s = _index(s, "state", n_states)
                if s in assign:
                    raise InputError(f"state {s} appears in two blocks")
                assign[s] = i
        if len(assign) != n_states:
            missing = next(s for s in range(n_states) if s not in assign)
            raise InputError(f"state {missing} is not covered by any block")
        return cls.from_block_of([assign[s] for s in range(n_states)])

    @classmethod
    def identity(cls, n: int) -> "Partition":
        n = _index(n, "n")
        return cls._trusted(n, n, tuple(range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        n = _index(n, "n")
        return cls._trusted(n, 1, (0,) * n)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for s, b in enumerate(self.block_of):
            out[b].append(s)
        return tuple(tuple(block) for block in out)

    def together(self, s: int, t: int) -> bool:
        return (self.block_of[_index(s, "state", self.n_states)]
                == self.block_of[_index(t, "state", self.n_states)])

    @property
    def is_identity(self) -> bool:
        return self.n_blocks == self.n_states

    @property
    def is_single_block(self) -> bool:
        return self.n_blocks == 1

    def pairs(self) -> frozenset[tuple[int, int]]:
        """The partition as an explicit relation, diagonal included."""
        return frozenset((s, t) for block in self.blocks() for s in block for t in block)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def pointed_classes(part: Partition) -> tuple[int, ...]:
    """Ids of all singleton blocks; the partition is pointed iff non-empty."""
    sizes = [0] * part.n_blocks
    for b in part.block_of:
        sizes[b] += 1
    return tuple(b for b, size in enumerate(sizes) if size == 1)


def partition_from_labels(sys: TransitionSystem) -> Partition:
    """Blocks are the sensor preimages: states equivalent iff equal labels."""
    if sys.labels is None:
        raise InputError("system is unlabeled")
    return Partition.from_block_of(sys.labels)


def fiber_partition(m: StateMap) -> Partition:
    """States equivalent iff they share an image under ``m``."""
    return Partition.from_block_of(m.map)


def generated_closure(n: int, pairs) -> Partition:
    """Finest equivalence relation on ``0..n-1`` containing all given pairs."""
    n = _index(n, "n")
    uf = _UnionFind(n)
    for s, t in pairs:
        uf.union(_index(s, "state", n), _index(t, "state", n))
    return Partition.from_block_of([uf.find(s) for s in range(n)])


def join_partitions(n: int, parts) -> Partition:
    """Smallest equivalence relation containing every given partition."""
    pairs = []
    for p in parts:
        if p.n_states != n:
            raise InputError("partitions are over different state sets")
        for block in p.blocks():
            pairs.extend(zip(block, block[1:]))
    return generated_closure(n, pairs)


def pullback(m: StateMap, e1: Partition) -> Partition:
    """Transport a partition backwards: sources equivalent iff images are."""
    if e1.n_states != m.target_size:
        raise InputError("partition is not over the map's target")
    return Partition.from_block_of([e1.block_of[t] for t in m.map])


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    if fine.n_states != coarse.n_states:
        raise InputError("partitions are over different state sets")
    image: dict[int, int] = {}
    for fb, cb in zip(fine.block_of, coarse.block_of):
        if image.setdefault(fb, cb) != cb:
            return False
    return True


def is_map_closed(e: Partition, m: StateMap) -> bool:
    """True iff equal images force equivalence (the fibers refine ``e``)."""
    return is_refinement(fiber_partition(m), e)


def pushforward(m: StateMap, e: Partition) -> Partition:
    """Transport a partition forwards along a surjection it is closed for."""
    if e.n_states != m.source_size:
        raise InputError("partition is not over the map's source")
    if not m.is_surjective():
        raise PreconditionError("pushforward requires a surjective map")
    if not is_map_closed(e, m):
        raise PreconditionError("partition is not closed for the map: "
                                "two states with equal image are inequivalent")
    rep: dict[int, int] = {}
    for s, t in enumerate(m.map):
        rep.setdefault(t, e.block_of[s])
    return Partition.from_block_of([rep[t] for t in range(m.target_size)])


def is_sufficient(
    sys: TransitionSystem, e: Partition
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check that equivalent states have equivalent successors.

    Returns ``(True, None)`` when every block maps, under every action, into
    a single block; otherwise ``(False, (s, s', a))`` with the smallest
    witness (``s < s'`` equivalent, successors split by action ``a``).
    """
    if e.n_states != sys.n_states:
        raise InputError("partition is not over the system's states")
    if e.is_identity:  # singleton blocks only: nothing to compare
        return (True, None)
    block_of = e.block_of
    lookup = block_of.__getitem__
    # Blocks are numbered by smallest member, so the smallest witness lies in
    # the lowest-numbered block that splits, at its first state that differs
    # from the block's first; states in that block or above are skipped.
    first: list = [None] * e.n_blocks  # per block: (first state, its successors' blocks)
    bad = e.n_blocks
    for s, (b, row) in enumerate(zip(block_of, sys.delta)):
        if b >= bad:
            continue
        sig = tuple(map(lookup, row))
        seen = first[b]
        if seen is None:
            first[b] = (s, sig)
        elif sig != seen[1]:
            bad, split = b, s
    if bad == e.n_blocks:
        return (True, None)
    s, sig = first[bad]
    succ = tuple(map(lookup, sys.delta[split]))
    a = next(i for i in range(sys.n_actions) if succ[i] != sig[i])
    return (False, (s, split, a))


def _refine(n: int, n_actions: int, delta, block_of) -> list[int]:
    """Coarsest refinement of ``block_of`` stable under every action.

    ``delta[s][a]`` is the successor of state ``s`` under action ``a``;
    ``block_of`` holds dense block ids ``0..k-1``. Returns one block id per
    state, not canonically numbered.

    Hopcroft's algorithm over Valmari and Lehtinen's refinable partition:
    ``elems`` lists the states block by block, ``loc`` is the inverse
    permutation, block ``b`` occupies ``elems[first[b]:end[b]]`` and the
    marked states of ``b`` are moved to ``elems[first[b]:mid[b]]``. Each
    splitter block marks its predecessors under one action at a time, read
    from a CSR inverse of ``delta``; every touched block then splits off
    the smaller of its marked and unmarked parts as a new block. The new
    block is always the one queued as a splitter: if the old block was
    still queued, both halves are; if not, the old block's stability is
    already implied and only the smaller half is needed. A state is queued
    again only in a block at most half as big as before, so it takes part
    in O(log n) splitters and the run is O(m·n·log n).
    """
    # CSR inverse: the predecessors of t under a are pred[off[a*n+t]:off[a*n+t+1]]
    off = [0] * (n_actions * n + 1)
    for row in delta:
        for a, t in enumerate(row):
            off[a * n + t + 1] += 1
    for k in range(n_actions * n):
        off[k + 1] += off[k]
    fill = off[:-1]
    pred = [0] * (n_actions * n)
    for s, row in enumerate(delta):
        for a, t in enumerate(row):
            k = a * n + t
            pred[fill[k]] = s
            fill[k] += 1
    del fill

    # the initial blocks, laid out by a counting sort on block_of
    n_blocks = max(block_of) + 1
    end = [0] * n_blocks
    for b in block_of:
        end[b] += 1
    first = [0] * n_blocks
    total = 0
    for b in range(n_blocks):
        first[b] = total
        total += end[b]
        end[b] = total
    mid = first[:]
    sidx = list(block_of)
    elems = [0] * n
    loc = [0] * n
    for s in range(n):
        k = mid[sidx[s]]
        elems[k] = s
        loc[s] = k
        mid[sidx[s]] = k + 1
    mid = first[:]

    # Every block but one largest is a splitter to start with: the preimage
    # of all states is all states, so the last block follows from the rest.
    largest = max(range(n_blocks), key=lambda b: end[b] - first[b])
    work = [b for b in range(n_blocks) if b != largest]
    touched: list[int] = []
    while work:
        splitter = work.pop()
        members = elems[first[splitter]:end[splitter]]
        for base in range(0, n_actions * n, n):
            for t in members:
                for k in range(off[base + t], off[base + t + 1]):
                    # delta is a function, so each state is marked at most
                    # once per action and needs no "already marked" test
                    s = pred[k]
                    b = sidx[s]
                    j = mid[b]
                    if j == first[b]:
                        touched.append(b)
                    i = loc[s]
                    u = elems[j]
                    elems[j] = s
                    loc[s] = j
                    elems[i] = u
                    loc[u] = i
                    mid[b] = j + 1
            for b in touched:
                lo, cut, hi = first[b], mid[b], end[b]
                if cut == hi:  # every member marked: nothing to split
                    mid[b] = lo
                    continue
                new = len(first)
                if cut - lo <= hi - cut:  # the marked part is the smaller
                    first.append(lo)
                    end.append(cut)
                    first[b] = cut
                    mid[b] = cut
                    new_lo, new_hi = lo, cut
                else:
                    first.append(cut)
                    end.append(hi)
                    end[b] = cut
                    mid[b] = lo
                    new_lo, new_hi = cut, hi
                mid.append(new_lo)
                for k in range(new_lo, new_hi):
                    sidx[elems[k]] = new
                work.append(new)
            touched.clear()
    return sidx


def msr(sys: TransitionSystem, e: Partition) -> Partition:
    """Coarsest refinement of ``e`` stable under every action.

    Hopcroft splitting on the smaller half (see ``_refine``), in
    O(m·n·log n) time and O(m·n) memory for n states and m actions. The
    result refines ``e``, is sufficient, and is refined by every sufficient
    refinement of ``e``; it is unique, so its canonical numbering makes it
    bit-identical to any other way of computing it.
    """
    if e.n_states != sys.n_states:
        raise InputError("partition is not over the system's states")
    return Partition.from_block_of(
        _refine(sys.n_states, sys.n_actions, sys.delta, e.block_of))


def _restricted_growth_strings(n: int):
    """All partitions of ``0..n-1`` as canonical block_of tuples."""
    assign = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(assign)
            return
        for b in range(top + 2):
            assign[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


def msr_bruteforce(sys: TransitionSystem, e: Partition) -> Partition:
    """Enumeration oracle for ``msr`` on small systems.

    Enumerates every refinement of ``e`` (one set partition of each block,
    in all combinations: the product of the blocks' Bell numbers, not the
    Bell number of the whole state set), keeps the sufficient ones, returns
    the one with fewest blocks and checks that every other kept partition
    refines it (uniqueness).
    """
    if sys.n_states > 8:
        raise InputError("brute-force enumeration is limited to 8 states")
    if e.n_states != sys.n_states:
        raise InputError("partition is not over the system's states")
    n = sys.n_states
    blocks = e.blocks()
    kept: list[Partition] = []
    for splits in product(*(_restricted_growth_strings(len(block)) for block in blocks)):
        # sub-block j of e's block b gets key b·n + j; from_block_of renumbers canonically
        raw = [0] * n
        for b, (block, split) in enumerate(zip(blocks, splits)):
            for s, j in zip(block, split):
                raw[s] = b * n + j
        cand = Partition.from_block_of(raw)
        if is_sufficient(sys, cand)[0]:
            kept.append(cand)
    best = min(kept, key=lambda p: p.n_blocks)
    for other in kept:
        require(is_refinement(other, best),
                "sufficient refinements have no single coarsest element")
    return best


def quotient(sys: TransitionSystem, e: Partition) -> tuple[TransitionSystem, StateMap]:
    """Collapse each block to a state; transitions through any member.

    Requires ``e`` sufficient, and label-uniform blocks when the system is
    labeled, so the quotient transition table and labels are well-defined.
    Returns the quotient system and the projection map.
    """
    ok, witness = is_sufficient(sys, e)
    if not ok:
        s, s2, a = witness
        raise PreconditionError(
            f"partition is not sufficient: states {s} and {s2} are equivalent but "
            f"their successors under action {sys.action_names[a]!r} are not")
    # blocks are numbered by smallest member: block b starts at the first b after block b-1's start
    block_of, labels = e.block_of, sys.labels
    reps, s = [], -1
    for b in range(e.n_blocks):
        s = block_of.index(b, s + 1)
        reps.append(s)
    if labels is not None:
        rep_labels = list(map(labels.__getitem__, reps))
        if tuple(map(rep_labels.__getitem__, block_of)) != labels:
            # the lowest-numbered block with a differing state, then its first one
            b, s = min((b, s) for s, b in enumerate(block_of) if rep_labels[b] != labels[s])
            raise PreconditionError(
                f"partition is not label-closed: states {reps[b]} and {s} are "
                "equivalent but carry different labels")
    delta = _relabeled_rows(sys.delta, reps, block_of)
    state_labels = None if labels is None else [sys.label_names[l] for l in rep_labels]
    initial = None if sys.initial is None else block_of[sys.initial]
    out = TransitionSystem._trusted(sys.action_names, delta, state_labels, initial)
    return out, StateMap(sys.n_states, e.n_blocks, e.block_of)
