"""Finite deterministic transition systems and their structural predicates.

States, actions and sensor labels are dense integer indices; names live in
side tables. All types are immutable after construction and all operations
are pure functions, so values can be shared freely between threads.

An id or a count is anything ``operator.index`` accepts, numpy integers
included; anything else, and any id out of range, raises ``InputError``.
Every module checks its arguments through ``_index`` and ``_ids`` here.
Every cell of a table is checked, by whole-table builtin scans; only when a
scan fails does a per-cell loop run, to name the first offender.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from itertools import chain


class DtsError(Exception):
    """Base class for all library errors."""


class InputError(DtsError):
    """Malformed or mutually inconsistent arguments."""


class PreconditionError(DtsError):
    """An operation's stated precondition does not hold for the inputs."""


class NotConnectedError(DtsError):
    """A state required to be reachable is not."""


class CheckError(DtsError):
    """A self-check failed: two computations that must agree do not."""


def require(holds: bool, message: str):
    """Raise ``CheckError`` unless ``holds``; unlike ``assert``, never stripped by ``-O``."""
    if not holds:
        raise CheckError(message)


def _index(value, what: str, bound: int | None = None) -> int:
    """``value`` as an int, and in ``0..bound-1`` if ``bound`` is given; else ``InputError``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None
    if bound is not None and not 0 <= value < bound:
        raise InputError(f"{what} {value} is out of range")
    return value


def _ids(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, by ``operator.index`` (plain-int tuples as they are)."""
    if type(values) is tuple and {int}.issuperset(map(type, values)):
        return values
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{what} must be integers") from None


def _id_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as int tuples: ``_ids`` row by row unless every cell is a plain int."""
    rows = tuple(rows)
    try:
        rows = tuple(map(tuple, rows))
        if {int}.issuperset(map(type, chain.from_iterable(rows))):
            return rows
    except TypeError:  # a row that is not iterable: _ids names it
        pass
    return tuple(_ids(row, what) for row in rows)


def _relabeled_rows(delta, states, new_id) -> tuple[tuple[int, ...], ...]:
    """The rows of ``states``, in that order, with each entry ``t`` read as ``new_id[t]``."""
    cells = map(new_id.__getitem__, chain.from_iterable(map(delta.__getitem__, states)))
    return tuple(zip(*[cells] * len(delta[0])))  # the cells, one row's worth at a time


def intern_names(keys) -> tuple[tuple[int, ...], tuple]:
    """Map a per-state key sequence to dense ids in first-occurrence order.

    Returns the ids and the distinct keys in the order they first occur.
    """
    ids: dict = {}
    out = []
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
        out.append(ids[key])
    return tuple(out), tuple(ids)


def _first_occurrence_count(ids) -> int | None:
    """The number of distinct ids if they run 0, 1, ... in first-occurrence order, else None."""
    count = 0
    for i in ids:
        if i == count:
            count += 1
        elif not 0 <= i < count:
            return None
    return count


@dataclass(frozen=True)
class TransitionSystem:
    """A finite deterministic (semi)automaton, optionally labeled and rooted.

    ``delta[s][a]`` is the successor of state ``s`` under action ``a`` and is
    total. When ``labels`` is present, ``labels[s]`` is the sensor value of
    state ``s`` as an index into ``label_names``; label ids are kept dense
    and in first-occurrence order so that equal systems compare bit-exactly.
    """

    n_states: int
    n_actions: int
    action_names: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...] | None = None
    label_names: tuple[str, ...] | None = None
    initial: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_states", _index(self.n_states, "n_states"))
        object.__setattr__(self, "n_actions", _index(self.n_actions, "n_actions"))
        object.__setattr__(self, "action_names", tuple(self.action_names))
        object.__setattr__(self, "delta", delta := _id_rows(self.delta, "delta entries"))
        if self.labels is not None:
            object.__setattr__(self, "labels", _ids(self.labels, "labels"))
        if self.label_names is not None:
            object.__setattr__(self, "label_names", tuple(self.label_names))
        if self.initial is not None:
            object.__setattr__(self, "initial", _index(self.initial, "initial state", self.n_states))
        if self.n_states < 1:
            raise InputError("a transition system needs at least one state")
        if self.n_actions < 1:
            raise InputError("a transition system needs at least one action")
        if len(self.action_names) != self.n_actions:
            raise InputError("action_names must list one name per action")
        if len(set(self.action_names)) != self.n_actions:
            raise InputError("action names must be pairwise distinct")
        if any(not name for name in self.action_names):
            raise InputError("action names must be non-empty")
        if len(delta) != self.n_states:
            raise InputError("delta must have one row per state")
        # cells are scanned through chain: a flat copy of them raised acceptance peak RSS 0.4 MiB
        if not ({self.n_actions}.issuperset(map(len, delta))
                and 0 <= min(chain.from_iterable(delta))
                and max(chain.from_iterable(delta)) < self.n_states):
            for s, row in enumerate(delta):  # a scan failed: name the first offender
                if len(row) != self.n_actions:
                    raise InputError(
                        f"delta row for state {s} must have one entry per action")
                for a, t in enumerate(row):
                    if not 0 <= t < self.n_states:
                        raise InputError(f"delta({s},{a})={t} is out of range")
        if (self.labels is None) != (self.label_names is None):
            raise InputError("labels and label_names must be given together")
        if self.labels is not None:
            if len(self.labels) != self.n_states:
                raise InputError("labels must assign a value to every state")
            names = self.label_names
            if len(set(names)) != len(names):
                raise InputError("label names must be pairwise distinct")
            if any(not name for name in names):
                raise InputError("label names must be non-empty")
            if _first_occurrence_count(self.labels) != len(names):
                raise InputError(
                    "label ids must run over all label names in first-occurrence order; "
                    "use TransitionSystem.from_tables with per-state names"
                )

    @classmethod
    def from_tables(
        cls,
        action_names: list[str] | tuple[str, ...],
        delta: list[list[int]] | tuple[tuple[int, ...], ...],
        state_labels: list[str] | None = None,
        initial: int | None = None,
    ) -> "TransitionSystem":
        """Build a system from a delta table and per-state label names."""
        labels = label_names = None
        if state_labels is not None:
            if len(state_labels) != len(delta):
                raise InputError("state_labels must name one label per state")
            labels, label_names = intern_names(state_labels)
        return cls(len(delta), len(action_names), action_names, delta, labels, label_names, initial)

    @classmethod
    def _trusted(cls, action_names, delta, state_labels, initial) -> "TransitionSystem":
        """``from_tables``, unchecked: for distinct names and tuple rows of plain ints in range.

        Only for ``make_random``'s draws, what ``canonical_form`` and ``quotient`` build,
        and what ``parse_dts`` has checked.
        """
        out = object.__new__(cls)
        labels, names = (None, None) if state_labels is None else intern_names(state_labels)
        out.__dict__.update(n_states=len(delta), n_actions=len(action_names), delta=delta,
                            action_names=action_names, labels=labels, label_names=names,
                            initial=initial)
        return out

    @property
    def n_labels(self) -> int:
        return 0 if self.label_names is None else len(self.label_names)

    def label_name_of(self, s: int) -> str:
        if self.labels is None:
            raise InputError("system is unlabeled")
        return self.label_names[self.labels[_index(s, "state", self.n_states)]]

    def unlabeled(self) -> "TransitionSystem":
        """A copy with the sensor map removed."""
        return replace(self, labels=None, label_names=None)


@dataclass(frozen=True)
class StateMap:
    """A total function between two state sets."""

    source_size: int
    target_size: int
    map: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "source_size", _index(self.source_size, "source_size"))
        object.__setattr__(self, "target_size", _index(self.target_size, "target_size"))
        object.__setattr__(self, "map", entries := _ids(self.map, "map entries"))
        if len(entries) != self.source_size:
            raise InputError("map must assign a target to every source state")
        if entries and not (0 <= min(entries) and max(entries) < self.target_size):
            for s, t in enumerate(entries):  # a scan failed: name the first offender
                if not 0 <= t < self.target_size:
                    raise InputError(f"map({s})={t} is out of range")

    def __call__(self, s: int) -> int:
        return self.map[_index(s, "state", self.source_size)]

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target_size

    def compose(self, other: "StateMap") -> "StateMap":
        """self after other: source of ``other``, target of ``self``."""
        if other.target_size != self.source_size:
            raise InputError("sizes do not compose")
        return StateMap(other.source_size, self.target_size,
                        tuple(map(self.map.__getitem__, other.map)))

    def inverse(self) -> "StateMap":
        if self.source_size != self.target_size or not self.is_surjective():
            raise InputError("only bijections can be inverted")
        inv = [0] * self.target_size
        for s, t in enumerate(self.map):
            inv[t] = s
        return StateMap(self.target_size, self.source_size, tuple(inv))


def star(sys: TransitionSystem, s: int, seq) -> int:
    """Run an action sequence from a state and return the state reached."""
    cur = _index(s, "state", sys.n_states)
    for a in seq:
        cur = sys.delta[cur][_index(a, "action", sys.n_actions)]
    return cur


def _bfs_order(succ, start: int) -> list[int]:
    """The states reachable from ``start`` over the rows of ``succ``, in discovery order."""
    seen = [False] * len(succ)
    seen[start] = True
    order = [start]
    for s in order:
        for t in succ[s]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def _strongly_connected(delta) -> bool:
    """True iff state 0 reaches every state over the rows of ``delta``, then over their reverse."""
    n = len(delta)
    if len(_bfs_order(delta, 0)) != n:
        return False
    rev: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(delta):
        for t in row:
            rev[t].append(s)
    return len(_bfs_order(rev, 0)) == n


def is_strongly_connected(sys: TransitionSystem) -> bool:
    """True iff every ordered state pair is joined by some action sequence."""
    return _strongly_connected(sys.delta)


def is_minimally_distinguishing(
    sys: TransitionSystem,
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Check that no action merges two states into a third, unrelated one.

    Returns ``(True, None)`` when for every action ``a`` and states with
    ``delta(s1,a) == delta(s2,a) == s0`` one of ``s0 == s1``, ``s1 == s2``,
    ``s0 == s2`` holds; otherwise ``(False, (s0, s1, s2, a))`` with the
    smallest violating tuple.
    """
    best: tuple[int, int, int, int] | None = None
    for a in range(sys.n_actions):
        pre: dict[int, list[int]] = {}
        for s in range(sys.n_states):
            pre.setdefault(sys.delta[s][a], []).append(s)
        for s0, sources in pre.items():
            others = [s for s in sources if s != s0]
            if len(others) >= 2:
                cand = (s0, others[0], others[1], a)
                if best is None or cand < best:
                    best = cand
    return (best is None, best)


def canonical_form(sys: TransitionSystem, anchor: int) -> tuple[TransitionSystem, StateMap]:
    """Relabel states in BFS order from ``anchor``, actions in index order.

    The output is bit-identical for isomorphic anchored systems: states are
    renumbered by discovery order and label ids are re-interned in the new
    state order. Raises NotConnectedError if some state is unreachable.
    Returns the relabeled system and the old-to-new state map.
    """
    anchor = _index(anchor, "anchor", sys.n_states)
    bfs = _bfs_order(sys.delta, anchor)
    order = [-1] * sys.n_states
    for new, s in enumerate(bfs):
        order[s] = new
    if len(bfs) != sys.n_states:
        missing = order.index(-1)
        raise NotConnectedError(f"state {missing} is unreachable from anchor {anchor}")
    new_delta = _relabeled_rows(sys.delta, bfs, order)
    names = None if sys.labels is None else [sys.label_names[sys.labels[s]] for s in bfs]
    initial = None if sys.initial is None else order[sys.initial]
    out = TransitionSystem._trusted(sys.action_names, new_delta, names, initial)
    return out, StateMap(sys.n_states, sys.n_states, tuple(order))


def _structure_key(sys: TransitionSystem) -> tuple:
    """Everything an isomorphism must preserve, with labels compared by name."""
    names = None if sys.labels is None else tuple(map(sys.label_names.__getitem__, sys.labels))
    return (sys.delta, names)


def are_isomorphic(
    a: TransitionSystem,
    b: TransitionSystem,
    anchored: bool = True,
    anchor_a: int | None = None,
    anchor_b: int | None = None,
) -> tuple[bool, StateMap | None]:
    """Decide isomorphism, returning a witness state map on success.

    Anchored: compare canonical forms grown from the two anchors (the
    initial states unless overridden). Unanchored: both systems must be
    strongly connected; every state of ``b`` is tried as an anchor. Labels
    are compared by name and only when both systems are labeled.
    """
    if a.action_names != b.action_names:
        raise InputError("action alphabets differ")
    if anchored:
        sa = a.initial if anchor_a is None else _index(anchor_a, "anchor", a.n_states)
        sb = b.initial if anchor_b is None else _index(anchor_b, "anchor", b.n_states)
        if sa is None or sb is None:
            raise InputError("anchored comparison needs initial states or explicit anchors")
    if a.n_states != b.n_states:
        return False, None
    if anchored:
        ca, ma = canonical_form(a, sa)
        cb, mb = canonical_form(b, sb)
        if _structure_key(ca) != _structure_key(cb):
            return False, None
        return True, mb.inverse().compose(ma)
    if not (is_strongly_connected(a) and is_strongly_connected(b)):
        raise InputError("unanchored comparison requires strongly connected systems")
    ca, ma = canonical_form(a, 0)
    key_a = _structure_key(ca)
    for sb in range(b.n_states):
        cb, mb = canonical_form(b, sb)
        if _structure_key(cb) == key_a:
            return True, mb.inverse().compose(ma)
    return False, None


def is_homomorphism(m: StateMap, src: TransitionSystem, dst: TransitionSystem) -> bool:
    """True iff ``m`` commutes with the transition functions everywhere."""
    if m.source_size != src.n_states or m.target_size != dst.n_states:
        raise InputError("map sizes do not match the systems")
    if src.action_names != dst.action_names:
        raise InputError("action alphabets differ")
    return _relabeled_rows(src.delta, range(src.n_states), m.map) == tuple(
        map(dst.delta.__getitem__, m.map))
