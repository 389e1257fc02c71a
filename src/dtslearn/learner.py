"""Reconstruct an environment from action-observation histories alone.

The learner drives an environment through a stepping oracle (start a
session at the hidden initial state, apply actions, read sensor values);
it never sees states or the transition table. Words that no continuation
tells apart are merged, and the merged classes form a candidate model of
the environment. Deepening until two successive candidates agree yields,
for well-behaved environments, a model isomorphic to the environment. Given
a bound on the environment's states, a W-method test suite instead proves a
candidate exact, and learning stops at the first depth it does.

Each depth's candidate comes from the observation table over the run's one
observation tree (see ``observations``, which also holds the oracle and the
trie). Where the complete trie of all words up to the depth has at most
TRIE_NODES nodes, the tree is filled to the depth instead, and the trie read
off it is split over a horizon: exact, and cheaper.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import InputError, TransitionSystem, _index, are_isomorphic, require
from .coupling import couple, is_surpriseless, are_bisimilar
from .observations import (
    SUITE_WORDS,
    BuildReport,
    EnvOracle,
    HistoryTrie,
    _ObservationTable,
    count_nodes,
)
from .partitions import Partition

EXPLORE_NODE_BUDGET = 1 << 25
EXPLORE_LEVEL_BUDGET = 1 << 15  # a level costs a step call and an array; words fit int16
TRIE_NODES = 1 << 14  # a complete trie this small is cheaper to explore than a table build


def _as_oracle(env, x0: int | None) -> EnvOracle:
    if isinstance(env, EnvOracle):
        if x0 is not None:
            raise InputError("an oracle starts at its own state; pass x0=None")
        return env
    return EnvOracle(env, env.initial if x0 is None else x0)


def explore(env, x0: int | None, depth: int) -> HistoryTrie:
    """Record the observation at every action word of length up to ``depth``.

    A fill of a fresh observation tree (``_ObservationTable.fill``): the
    environment is touched only through the stepping oracle, one session per
    deepest word, and observations of shorter words are read off along the
    way. ``learn`` passes its run's table instead, and the fill asks only for
    the words that table's tree lacks. A trie over the node or the level
    budget (a depth of ``EXPLORE_LEVEL_BUDGET`` or more) is an ``InputError``.
    """
    table = env if isinstance(env, _ObservationTable) else _ObservationTable(_as_oracle(env, x0))
    depth = _index(depth, "depth", EXPLORE_LEVEL_BUDGET)
    if count_nodes(table.m, depth) > EXPLORE_NODE_BUDGET:
        raise InputError(f"a depth-{depth} trie over {table.m} actions exceeds the node budget")
    return table.fill(depth)


def bounded_indistinguishability(trie: HistoryTrie, horizon: int) -> Partition:
    """Merge nodes whose observations agree on every continuation up to ``horizon``.

    Node ``v`` continued by the word with node id ``u`` ends at node
    ``v·m^|u| + u``, so the length-``k`` continuations of nodes ``0 .. n-1``
    are the consecutive nodes from ``offsets[k]`` on, ``m^k`` per node. Each
    node of depth at most ``depth - horizon`` gets its continuation row, its
    observations after every word up to the horizon, as one slice per length;
    nodes with equal rows share a class, numbered by first occurrence.
    """
    horizon = _index(horizon, "horizon", trie.depth + 1)
    m, offs = trie.n_actions, trie.offsets
    # observations lie in 0 .. len(label_names) - 1, so the narrowest unsigned type holds them
    obs = np.concatenate(trie.levels, dtype=np.min_scalar_type(len(trie.label_names) - 1),
                         casting="unsafe")
    n = offs[trie.depth - horizon + 1]
    rows = np.concatenate([obs[offs[k]:offs[k] + m ** k * n].reshape(n, m ** k)
                           for k in range(horizon + 1)], axis=1)
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))),
                                  return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # each class's number by its first node
    return Partition._trusted(n, len(first), tuple(rank[inverse.ravel()].tolist()))


def build_model(trie: HistoryTrie, horizon: int) -> tuple[TransitionSystem | None, BuildReport]:
    """Quotient the trie by bounded indistinguishability into a candidate model.

    States are the classes holding a node shallow enough for all its
    children to be classified; transitions follow any member's child, and
    the report says whether the member choice ever mattered (consistency)
    and whether every reachable class is a state (closedness).
    """
    horizon = _index(horizon, "horizon")
    if horizon < 1:
        raise InputError("model building needs a horizon of at least 1")
    part = bounded_indistinguishability(trie, horizon)
    m, top = trie.n_actions, trie.depth - horizon  # top: the deepest classified level
    if top < 1:
        return None, BuildReport(False, True, False, part.n_blocks, 0,
                                 "trie too shallow: no node has classified children")
    block_of = np.asarray(part.block_of, dtype=np.int64)
    cut = trie.offsets[top]  # nodes with all children classified
    child_classes = block_of[1:1 + m * cut].reshape(cut, m)
    first_member = np.unique(block_of, return_index=True)[1]  # ascending by class
    n_eligible = int(np.searchsorted(first_member, cut))

    bad = np.argwhere(child_classes != child_classes[first_member[block_of[:cut]]])
    if len(bad):
        node, a = (int(v) for v in bad[0])
        rep = int(first_member[block_of[node]])
        return None, BuildReport(
            False, False, True, part.n_blocks, n_eligible,
            f"class of node {rep} is inconsistent: nodes {rep} and {node} disagree "
            f"under action {trie.action_names[a]!r}")

    delta = child_classes[first_member[:n_eligible]]
    overflow = np.argwhere(delta >= n_eligible)
    if len(overflow):
        c, a = (int(v) for v in overflow[0])
        return None, BuildReport(
            False, True, False, part.n_blocks, n_eligible,
            f"not closed: class {c} leads under action {trie.action_names[a]!r} "
            "to a class with no shallow member")

    labels = np.concatenate(trie.levels[:top])[first_member[:n_eligible]].tolist()
    model = TransitionSystem.from_tables(trie.action_names, delta.tolist(),
                                         [trie.label_names[o] for o in labels], initial=0)
    return model, BuildReport(True, True, True, part.n_blocks, n_eligible)


@dataclass(frozen=True)
class DepthAttempt:
    """One depth of a learning run: its candidate, or why there is none, and what it cost."""

    depth: int
    horizon: int
    method: str
    ok: bool
    n_states: int
    detail: str
    resets: int
    steps: int
    seconds: float


class _Attempts(Sequence):
    """A run's depth attempts as one array of numbers; each is made a ``DepthAttempt`` when read.

    Callers keep reports by the thousand (a benchmark keeps every run's), and
    the array holds an attempt in 64 bytes where its objects take about 170.
    Details, which repeat from run to run, are interned.
    """

    __slots__ = ("_numbers", "_details")
    _METHODS = ("trie", "table")

    def __init__(self, attempts):
        self._numbers = array("d", [x for att in attempts for x in (
            att.depth, att.horizon, self._METHODS.index(att.method), att.ok, att.n_states,
            att.resets, att.steps, att.seconds)])
        self._details = tuple(sys.intern(att.detail) for att in attempts)

    def __len__(self) -> int:
        return len(self._details)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        depth, horizon, method, ok, n_states, resets, steps, seconds = self._numbers[8 * i:8 * i + 8]
        return DepthAttempt(int(depth), int(horizon), self._METHODS[int(method)], bool(ok),
                            int(n_states), self._details[i], int(resets), int(steps), seconds)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)
class LearnReport:
    """How a learning run went: schedule, convergence, and oracle budget.

    With a ``bound`` on the environment's states, converged means certified.
    """

    converged: bool
    depth_converged: int | None
    depth_stopped: int
    oracle_resets: int
    oracle_steps: int
    attempts: Sequence[DepthAttempt]
    bound: int | None = None

    def summary(self) -> str:
        lines = []
        for att in self.attempts:
            outcome = att.detail
            if att.ok:
                outcome = f"{att.n_states}-state model" + (f", {att.detail}" if att.detail else "")
            lines.append(f"depth {att.depth} (horizon {att.horizon}, {att.method}): {outcome} "
                         f"[{att.resets} resets, {att.steps} steps, {att.seconds:.3f} s]")
        if self.bound is not None:
            states = f"for every environment of at most {self.bound} states"
            lines.append(f"certified at depth {self.depth_converged} {states}" if self.converged
                         else f"no certificate by depth {self.depth_stopped} {states}")
        elif self.converged:
            lines.append(f"converged at depth {self.depth_converged} "
                         f"(confirmed at depth {self.depth_stopped})")
        else:
            lines.append(f"no convergence by depth {self.depth_stopped}")
        lines.append(f"oracle calls: {self.oracle_resets} resets, {self.oracle_steps} steps")
        return "\n".join(lines)


def learn(env, x0: int | None, max_depth: int, min_depth: int = 2,
          ) -> tuple[TransitionSystem | None, LearnReport]:
    """Deepen exploration until a candidate is certified, or two successive candidates agree.

    Runs depths 2, 4, ... up to ``max_depth`` with the horizon at half the
    depth. A depth's candidate comes from the complete trie where it has at
    most ``TRIE_NODES`` nodes, else from the observation table, which refines
    itself until its hypothesis passes its tests; ``_ObservationTable.check``
    then makes it canonical, or certifies it.

    With ``min_depth`` below 4 no bound is stated and ``min_depth`` does
    nothing: the run stops once two successive depths' candidates have
    identical canonical forms anchored at the root class. That agreement is
    a heuristic.

    With ``min_depth`` 4 or more, ``N = min_depth // 2`` is the caller's bound
    on the environment's states. Each candidate is minimized and checked by a
    W-method suite through the oracle (see ``_ObservationTable.certify``),
    and the run stops at the first depth whose suite passes: the model is
    then exact for every environment of at most N states. Depths end at
    ``2N + 2``, where the table can hold every state of such an environment,
    or at a table depth of at least ``2n + 2`` for its ``n`` representatives
    whose suite neither passes nor fails (it outgrows ``SUITE_WORDS``, or
    ``n`` exceeds N): every deeper depth would rebuild the same table and
    suite. A bound whose smallest suite, the model's cover at N states,
    would exceed ``SUITE_WORDS`` is an ``InputError``.

    Returns the certified or stabilized model in canonical form, or the last
    candidate (possibly None), with each depth's oracle calls and time. The
    oracle's last batch is ended (a start of no sessions) before the return.
    """
    max_depth = _index(max_depth, "max_depth")
    min_depth = _index(min_depth, "min_depth")
    if max_depth < 2:
        raise InputError("max_depth must be at least 2")
    oracle = _as_oracle(env, x0)
    bound = min_depth // 2 if min_depth >= 4 else None
    if bound is not None and bound * oracle.n_actions >= SUITE_WORDS:
        raise InputError(f"a bound of {bound} states over {oracle.n_actions} actions needs "
                         f"suites of more than {SUITE_WORDS} words")
    resets0, steps0 = oracle.resets, oracle.steps
    table = _ObservationTable(oracle)  # the run's one observation tree, filled by every depth
    attempts: list[DepthAttempt] = []
    prev_model, prev_depth, converged = None, None, False
    for depth in range(2, (max_depth if bound is None else min(max_depth, 2 * bound + 2)) + 1, 2):
        horizon = depth // 2
        method = "trie" if count_nodes(oracle.n_actions, depth) <= TRIE_NODES else "table"
        resets, steps, t0 = oracle.resets, oracle.steps, perf_counter()
        if method == "table":
            model, report, certified = table.build(depth, horizon, bound)
        else:  # a word the trie's candidate fails is not the table's to refine
            model, report, certified, _ = table.check(
                *build_model(explore(table, None, depth), horizon), bound)
        attempts.append(DepthAttempt(depth, horizon, method, report.ok, report.n_model_states,
                                     report.detail, oracle.resets - resets,
                                     oracle.steps - steps, perf_counter() - t0))
        converged = certified or (bound is None and model is not None and model == prev_model)
        if certified or not converged:
            prev_model, prev_depth = model, depth
        # a bounded table whose every representative is checked: deeper depths rebuild it
        if converged or (bound is not None and method == "table" and model is not None
                         and depth >= 2 * report.n_model_states + 2):
            break
    oracle.start(0)  # end the last batch: a kept oracle holds no sessions
    return prev_model, LearnReport(converged, prev_depth if converged else None, depth,
                                   oracle.resets - resets0, oracle.steps - steps0,
                                   _Attempts(attempts), bound)


@dataclass(frozen=True)
class VerifyReport:
    isomorphic: bool
    bisimilar: bool
    surpriseless: bool


def verify_learned(env: TransitionSystem, x0: int, model: TransitionSystem) -> VerifyReport:
    """Compare a learned model against its environment three ways.

    Checks anchored isomorphism, bisimilarity of the initial states, and
    surpriselessness of the coupling. The latter two must agree for models
    whose labels reflect what was actually observed (as learned models do);
    a mismatch raises ``CheckError``.
    """
    if model.labels is None or model.initial is None:
        raise InputError("the model must be labeled and carry an initial state")
    iso, _ = are_isomorphic(env, model, anchored=True, anchor_a=x0)
    bis = are_bisimilar(env, model, x0, model.initial)
    sur = is_surpriseless(couple(env, model, x0, model.initial))[0]
    require(bis == sur, "bisimilarity and surpriselessness disagree on a learned model")
    return VerifyReport(iso, bis, sur)
