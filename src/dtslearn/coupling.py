"""Couple an internal system to an environment and decide surprise.

The coupled system runs both machines on the same action stream. An
internal state is "surprised" when two action histories lead to it while
the environment shows different sensor values; a coupling with no such
state admits a well-defined induced sensor map on internal states and is
bisimulation equivalent to the environment. Internal systems here are
exploratory: their transitions read the action, never the sensor value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import indexOf

from .core import (
    InputError,
    PreconditionError,
    StateMap,
    TransitionSystem,
    _index,
    intern_names,
)
from .partitions import _refine, msr, partition_from_labels


@dataclass(frozen=True, eq=False)
class ProductSystem:
    """Reachable part of an environment coupled to an internal system.

    ``pairs`` lists the reachable (environment state, internal state) pairs
    in BFS order from ``pairs[0]``, the pair of initial states; ``pair_delta``
    is the product transition table over pair indices. So the table is its own
    BFS tree: pair ``p > 0`` is first entered through the first cell naming it.
    """

    env: TransitionSystem
    internal: TransitionSystem
    pairs: tuple[tuple[int, int], ...]
    pair_delta: tuple[tuple[int, ...], ...]

    def access_word(self, pair_index: int) -> tuple[int, ...]:
        """Shortest, lexicographically first action word reaching the pair.

        The first cell ``p·m + a`` naming a pair gives its BFS parent ``p`` and action ``a``.
        """
        word = []
        p = _index(pair_index, "pair", len(self.pairs))
        while p:
            p, a = divmod(indexOf(chain.from_iterable(self.pair_delta), p), self.env.n_actions)
            word.append(a)
        return tuple(reversed(word))


def couple(env: TransitionSystem, internal: TransitionSystem,
           x0: int, i0: int) -> ProductSystem:
    """BFS the reachable product, pairs numbered as first met: ``access_word`` needs no more."""
    if env.labels is None:
        raise InputError("the environment must be labeled")
    if env.action_names != internal.action_names:
        raise InputError("action alphabets differ")
    x0 = _index(x0, "environment state", env.n_states)
    i0 = _index(i0, "internal state", internal.n_states)
    index = {(x0, i0): 0}
    pairs = [(x0, i0)]
    rows: list[tuple[int, ...]] = []
    for x, i in pairs:  # pairs grows as the BFS discovers them
        row = []
        for a in range(env.n_actions):
            nxt = (env.delta[x][a], internal.delta[i][a])
            q = index.get(nxt)
            if q is None:
                q = index[nxt] = len(pairs)
                pairs.append(nxt)
            row.append(q)
        rows.append(tuple(row))
    return ProductSystem(env, internal, tuple(pairs), tuple(rows))


def diamond(prod: ProductSystem, seq) -> tuple[int, int]:
    """Run an action sequence through the coupling from the initial pair."""
    p = 0
    for a in seq:
        p = prod.pair_delta[p][_index(a, "action", prod.env.n_actions)]
    return prod.pairs[p]


def is_surpriseless(
    prod: ProductSystem,
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Check that no internal state coexists with two different sensor values.

    On failure returns two access words, shortest first, that reach the same
    internal state while the environment shows different labels.
    """
    env = prod.env
    first_seen: dict[int, int] = {}
    for p, (x, i) in enumerate(prod.pairs):
        q = first_seen.setdefault(i, p)
        if env.labels[prod.pairs[q][0]] != env.labels[x]:
            return False, (prod.access_word(q), prod.access_word(p))
    return True, None


def induced_label(prod: ProductSystem) -> tuple[StateMap, tuple[int, ...]]:
    """Sensor map on internal states defined by any coupled partner.

    Requires a surpriseless coupling. Returns the map (into the
    environment's label ids) plus the internal states never reached by the
    coupling, whose entries default to 0 and carry no information.
    """
    ok, witness = is_surpriseless(prod)
    if not ok:
        u, u2 = witness
        raise PreconditionError(
            f"coupling is surprised: words {list(u)} and {list(u2)} reach the same "
            "internal state with different sensor values")
    env, internal = prod.env, prod.internal
    values: dict[int, int] = {}
    for x, i in prod.pairs:
        values.setdefault(i, env.labels[x])
    unreachable = tuple(i for i in range(internal.n_states) if i not in values)
    table = tuple(values.get(i, 0) for i in range(internal.n_states))
    return StateMap(internal.n_states, env.n_labels, table), unreachable


def with_induced_labels(prod: ProductSystem) -> TransitionSystem:
    """The internal system relabeled by the induced sensor map."""
    mapping, unreachable = induced_label(prod)
    if unreachable:
        raise PreconditionError(
            f"internal states {list(unreachable)} are unreachable in the coupling "
            "and cannot be labeled")
    names = [prod.env.label_names[mapping.map[i]] for i in range(prod.internal.n_states)]
    return TransitionSystem.from_tables(
        prod.internal.action_names, prod.internal.delta, names, prod.internal.initial)


def _check_bisimulation_inputs(env: TransitionSystem, internal: TransitionSystem):
    if env.labels is None or internal.labels is None:
        raise InputError("both systems must be labeled")
    if env.action_names != internal.action_names:
        raise InputError("action alphabets differ")


def _union_blocks(env: TransitionSystem, internal: TransitionSystem) -> list[int]:
    """Bisimulation classes of the disjoint union of the two systems.

    Environment states keep their indices; internal state ``i`` becomes
    ``env.n_states + i``. The union's rows are never stored: ``_refine``
    reads them once, so ``env.delta`` and then the shifted internal rows are
    streamed into it. Refinement starts from one block per label name, so
    labels are compared by name.
    """
    shift = env.n_states
    rows = chain(env.delta, (map(shift.__add__, row) for row in internal.delta))
    names = [env.label_names[l] for l in env.labels]
    names += [internal.label_names[l] for l in internal.labels]
    return _refine(shift + internal.n_states, env.n_actions, rows, intern_names(names)[0])[0]


def greatest_bisimulation(
    env: TransitionSystem, internal: TransitionSystem
) -> frozenset[tuple[int, int]]:
    """Largest relation matching labels and closed under every action.

    The coarsest stable refinement of the label-by-name partition on the
    disjoint union of the two systems, computed by the O(m·n·log n)
    engine behind ``msr``; ``(x, i)`` is in the relation iff ``x`` and
    ``i`` share a block. ``greatest_bisimulation_pairwise`` is the
    independent reference the tests compare against.
    """
    _check_bisimulation_inputs(env, internal)
    block = _union_blocks(env, internal)
    members: dict[int, list[int]] = {}
    for i in range(internal.n_states):
        members.setdefault(block[env.n_states + i], []).append(i)
    return frozenset((x, i) for x in range(env.n_states)
                     for i in members.get(block[x], ()))


def greatest_bisimulation_pairwise(
    env: TransitionSystem, internal: TransitionSystem
) -> frozenset[tuple[int, int]]:
    """Reference oracle for ``greatest_bisimulation``; O(n²) memory, so limited to 2^16 pairs.

    Starts from all label-agreeing pairs (labels compared by name) and
    repeatedly deletes pairs with some action leading outside the relation,
    until stable. Slow but obviously right: kept for tests and the
    acceptance suite, on no library path.
    """
    _check_bisimulation_inputs(env, internal)
    if env.n_states * internal.n_states > 1 << 16:
        raise InputError("the pairwise fixpoint is limited to 2^16 state pairs")
    alive = [
        [env.label_names[env.labels[x]] == internal.label_names[internal.labels[i]]
         for i in range(internal.n_states)]
        for x in range(env.n_states)
    ]
    changed = True
    while changed:
        changed = False
        for x in range(env.n_states):
            for i in range(internal.n_states):
                if not alive[x][i]:
                    continue
                for a in range(env.n_actions):
                    if not alive[env.delta[x][a]][internal.delta[i][a]]:
                        alive[x][i] = False
                        changed = True
                        break
    return frozenset((x, i)
                     for x in range(env.n_states)
                     for i in range(internal.n_states) if alive[x][i])


def are_bisimilar(env: TransitionSystem, internal: TransitionSystem,
                  x0: int, i0: int) -> bool:
    """True iff the two initial states lie in some bisimulation.

    Compares the two states' classes in the disjoint union directly,
    without building the relation.
    """
    _check_bisimulation_inputs(env, internal)
    x0 = _index(x0, "environment state", env.n_states)
    i0 = _index(i0, "internal state", internal.n_states)
    block = _union_blocks(env, internal)
    return block[x0] == block[env.n_states + i0]


def has_nontrivial_autobisimulation(env: TransitionSystem) -> bool:
    """Detect a symmetry of the environment: a bisimulation beyond the diagonal.

    The greatest autobisimulation of a deterministic system is the coarsest
    congruence refining its sensor partition, so this is one ``msr`` call,
    O(m·n·log n), one pass per splitter over every action: a symmetry
    exists iff that congruence is not the identity. The acceptance suite
    cross-checks it against ``greatest_bisimulation_pairwise``.
    """
    return not msr(env, partition_from_labels(env)).is_identity
