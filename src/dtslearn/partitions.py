"""Equivalence relations over state sets: closure, transport, congruences.

A partition stores one block id per state. Blocks are numbered by their
smallest member, ascending, which makes equality of partitions bit-exact.
The central operation is ``msr``: the coarsest refinement of a partition
that is stable under every action (a congruence). One engine, ``_refine``,
computes it by Hopcroft splitting in O(m·n·log n) for n states and m
actions: each splitter is processed once over every action, and every
piece of a split block but the largest is queued. Bisimulation and
symmetry detection in ``coupling`` run on the same engine, and the learner's
characterizing sets W are read off its record of splits (``_separating_words``).
``msr_bruteforce`` is an enumeration oracle for it on small state sets.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, product
from operator import itemgetter

import numpy as np

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
        # the checked path, for partitions given from outside: the about 61,000
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
    n = _index(n, "n")
    uf = _UnionFind(n)
    for p in parts:
        if p.n_states != n:
            raise InputError("partitions are over different state sets")
        first: list[int] = []  # per block, its first state: blocks are numbered in that order
        for s, b in enumerate(p.block_of):
            if b < len(first):
                uf.union(first[b], s)
            else:
                first.append(s)
    return Partition.from_block_of([uf.find(s) for s in range(n)])


def pullback(m: StateMap, e1: Partition) -> Partition:
    """Transport a partition backwards: sources equivalent iff images are."""
    if e1.n_states != m.target_size:
        raise InputError("partition is not over the map's target")
    return Partition.from_block_of([e1.block_of[t] for t in m.map])


def _refines(fine, coarse) -> bool:
    """Whether equal ids in ``fine`` imply equal ids in ``coarse``, state by state."""
    image: dict[int, int] = {}
    for fb, cb in zip(fine, coarse):
        if image.setdefault(fb, cb) != cb:
            return False
    return True


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    if fine.n_states != coarse.n_states:
        raise InputError("partitions are over different state sets")
    return _refines(fine.block_of, coarse.block_of)


def is_map_closed(e: Partition, m: StateMap) -> bool:
    """True iff equal images force equivalence (the fibers refine ``e``)."""
    if m.source_size != e.n_states:
        raise InputError("partitions are over different state sets")
    return _refines(m.map, e.block_of)


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


_ARRAY_INDEX_CELLS = 1 << 10


def _refine(n: int, n_actions: int, delta, block_of) -> tuple[list[int], list[int]]:
    """Coarsest refinement of ``block_of`` stable under every action.

    ``delta`` yields each state's row of successors, states in order, and is
    read once, in the bucket sort. ``block_of`` holds dense block ids
    ``0..k-1``. Returns one block id per state, not canonically numbered, and
    the record of splits: the block each block split from, -1 for a starting one.

    Hopcroft's algorithm, one pass per splitter over every action. The
    cells ``s·m + a`` with ``delta[s][a] == t`` are ``pred[off[t]:off[t + 1]]``,
    from one bucket sort of the n·m cells by target, then by cell. Above
    ``_ARRAY_INDEX_CELLS`` it is numpy's stable argsort into int64 arrays, 8 bytes a
    cell, not about 36 as boxed ints in lists (7.0 against 12.2 MiB peak on the
    27,000-state arm; no ``cumsum``, whose first call maps 64 KiB of code); below,
    lists, as fast where numpy's per-call cost is not repaid. Same order, same split
    record. A popped splitter records, for each state with a successor in it, the
    mask of actions leading there; a state of a one-state block is skipped, since
    such a block never splits. Every touched block then splits by mask, its
    unmarked rest being one more piece. The largest piece keeps the block's
    id and every other piece is queued as a new block: if the old block was
    still queued it stays queued, so all pieces are; if not, its stability
    is already implied and stability under all pieces but one implies it
    under that one. A queued piece is at most half its old block, so a
    state takes part in O(log n) splitters and the run is O(m·n·log n).

    A block of two or more states is a set; a one-state block is a 1-tuple
    and its state is flagged in ``single``, which the marking skips.
    """
    m = n_actions
    if n * m > _ARRAY_INDEX_CELLS:
        targets = np.fromiter(chain.from_iterable(delta), np.int64, n * m)
        pred = array("q", np.argsort(targets, kind="stable").tobytes())
        off = array("q", accumulate(memoryview(np.bincount(targets, minlength=n)), initial=0))
        del targets
    else:
        buckets: list[list[int]] = [[] for _ in range(n)]
        for code, t in enumerate(chain.from_iterable(delta)):
            buckets[t].append(code)
        off = [0, *accumulate(map(len, buckets))]
        pred = list(chain.from_iterable(buckets))

    members: list = [[] for _ in range(max(block_of) + 1)]
    parent = [-1] * len(members)
    for s, b in enumerate(block_of):
        members[b].append(s)
    sidx = list(block_of)
    single = bytearray(n)
    for b, block in enumerate(members):
        if len(block) == 1:
            members[b] = (block[0],)
            single[block[0]] = 1
        else:
            members[b] = set(block)
    # Every block but one largest is a splitter to start with: the preimage
    # of all states is all states, so the last block follows from the rest.
    sizes = list(map(len, members))
    largest = sizes.index(max(sizes))
    work = [b for b in range(len(members)) if b != largest]
    touched: dict[int, dict[int, int]] = {}  # block -> {marked state: action mask}
    while work:
        for t in members[work.pop()]:
            for code in pred[off[t]:off[t + 1]]:
                s = code // m
                if not single[s]:
                    b = sidx[s]
                    bit = 1 << (code - s * m)
                    marks = touched.get(b)
                    if marks is None:
                        touched[b] = {s: bit}
                    else:
                        marks[s] = marks.get(s, 0) | bit
        for b, marks in touched.items():
            block = members[b]
            if len(set(marks.values())) == 1:
                if len(marks) == len(block):  # every member marked alike
                    continue
                pieces = [set(marks)]
            else:
                groups: dict[int, list[int]] = {}
                for s, mask in marks.items():
                    group = groups.get(mask)
                    if group is None:
                        groups[mask] = [s]
                    else:
                        group.append(s)
                pieces = list(map(set, groups.values()))
            if len(marks) < len(block):
                block.difference_update(marks)
                pieces.append(block)
            keep = max(pieces, key=len)
            for piece in pieces:
                new = b if piece is keep else len(members)
                if len(piece) == 1:
                    (s,) = piece
                    piece = (s,)
                    single[s] = 1
                if new == b:
                    members[b] = piece
                    continue
                for s in piece:
                    sidx[s] = new
                members.append(piece)
                parent.append(b)
                work.append(new)
        touched.clear()
    return sidx, parent


def msr(sys: TransitionSystem, e: Partition) -> Partition:
    """Coarsest refinement of ``e`` stable under every action.

    Hopcroft splitting (see ``_refine``): one pass per splitter over every
    action, every piece of a split block but the largest queued, in
    O(m·n·log n) time and O(m·n) memory for n states and m actions. The
    result refines ``e``, is sufficient, and is refined by every sufficient
    refinement of ``e``; it is unique, so its canonical numbering makes it
    bit-identical to any other way of computing it.
    """
    if e.n_states != sys.n_states:
        raise InputError("partition is not over the system's states")
    return Partition.from_block_of(
        _refine(sys.n_states, sys.n_actions, sys.delta, e.block_of)[0])


def _separating_words(sys: TransitionSystem, suffixes) -> list[tuple[int, ...]]:
    """``suffixes``, then separating words until every two states of a minimal ``sys`` differ.

    W is read off ``_refine``'s record from the labels, block ids dating splits: two
    states were put apart where their blocks' parent chains join, and an action then
    leads them to blocks apart earlier. The word is the action for the earliest such
    blocks, then the successors' word. Traces are whole label sequences; each new
    word is for the two states of a group whose blocks were made last.
    """
    n, delta, labels = sys.n_states, sys.delta, sys.labels
    block_of, parent = _refine(n, sys.n_actions, delta, labels)
    require(len(parent) == n, "the model to certify is not minimal")

    def split(x: int, y: int) -> int:  # the later block the split of x and y made; n if none
        k = n
        while x != y:  # climb the later block, up to -1 above the starting ones
            x, y, k = (parent[x], y, x) if x > y else (x, parent[y], y)
        return k

    words, groups, step = list(suffixes), [range(n)], lambda s, a: delta[s][a]
    for i, w in enumerate(words):
        parts: dict = {}
        for g, group in enumerate(groups):
            for s in group:
                trace = map(labels.__getitem__, accumulate(w, step, initial=s))
                parts.setdefault((g, *trace), []).append(s)
        groups = [group for group in parts.values() if len(group) > 1]
        if groups and i == len(words) - 1:
            require(len(words) < len(suffixes) + n - 1, "the split record does not separate states")
            s, t = sorted(groups[0], key=block_of.__getitem__)[-2:]
            word, k = [], split(block_of[s], block_of[t])
            while parent[k] >= 0:  # else k is a starting block: the labels differ
                k, a = min((split(block_of[u], block_of[v]), a)
                           for a, (u, v) in enumerate(zip(delta[s], delta[t])))
                word.append(a)
                s, t = delta[s][a], delta[t][a]
            words.append(tuple(word))
    return words


@cache  # n + start is at most 8: msr_bruteforce refuses larger systems
def _restricted_growth_strings(n: int, start: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n`` items as block id tuples, ids from ``start`` in first-occurrence order."""
    strings = [()]
    for _ in range(n):
        strings = [g + (b,) for g in strings for b in range(start, max(g, default=start - 1) + 2)]
    return tuple(strings)


def _sufficient_ids(delta, ids) -> bool:
    """Whether states with equal ``ids`` have equal successor ids under every action.

    ``delta`` is a system's table of successor rows; the ids need not be canonical.
    """
    first: dict = {}  # per id, the successor ids of its first state
    get = ids.__getitem__
    for i, row in zip(ids, delta):
        succ = tuple(map(get, row))
        if first.setdefault(i, succ) != succ:
            return False
    return True


def msr_bruteforce(sys: TransitionSystem, e: Partition) -> Partition:
    """Enumeration oracle for ``msr`` on small systems.

    Enumerates every refinement of ``e`` (one set partition of each block,
    in all combinations: the product of the blocks' Bell numbers, not the
    Bell number of the whole state set) as raw ids, and tests each for
    sufficiency on those ids (``_sufficient_ids``); only the sufficient ones
    become ``Partition`` objects. Returns the one with fewest blocks and
    checks that every other kept partition refines it (uniqueness).
    """
    n = sys.n_states
    if n > 8:
        raise InputError("brute-force enumeration is limited to 8 states")
    if e.n_states != n:
        raise InputError("partition is not over the system's states")
    # the blocks' growth strings laid end to end, each block's ids from its start
    # there, so no two blocks share an id; pos[s] is state s's place in that layout
    pos = [0] * n
    splits, start = [], 0
    for block in e.blocks():
        for i, s in enumerate(block, start):
            pos[s] = i
        splits.append(_restricted_growth_strings(len(block), start))
        start += len(block)
    scatter = itemgetter(*pos) if n > 1 else tuple  # itemgetter(0) would return the id, not a 1-tuple
    kept: list[Partition] = []
    for split in product(*splits):
        ids = scatter(sum(split, ()))
        if _sufficient_ids(sys.delta, ids):
            kept.append(Partition.from_block_of(ids))
    best = min(kept, key=lambda p: p.n_blocks)
    for other in kept:
        require(is_refinement(other, best),
                "sufficient refinements have no single coarsest element")
    return best


def quotient(sys: TransitionSystem, e: Partition) -> tuple[TransitionSystem, StateMap]:
    """Collapse each block to a state; transitions through any member.

    Requires ``e`` sufficient, and label-uniform blocks when the system is
    labeled, so the quotient transition table and labels are well-defined.
    Returns the quotient system and the projection map; by the identity partition
    (``msr``'s in the paper's pointed case), ``sys`` itself, as the general path builds it.
    """
    if e.is_identity and e.n_states == sys.n_states:
        return sys, StateMap(sys.n_states, sys.n_states, e.block_of)
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
