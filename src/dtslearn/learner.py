"""Reconstruct an environment from action-observation histories alone.

The learner drives an environment through a stepping oracle (start a
session at the hidden initial state, apply actions, read sensor values);
it never sees states or the transition table. Words that no continuation
tells apart are merged, and the merged classes form a candidate model of
the environment. Deepening until two successive candidates agree yields,
for well-behaved environments, a model isomorphic to the environment. Given
a bound on the environment's states, a W-method test suite instead proves a
candidate exact, and learning stops at the first depth it does.

Each depth's candidate comes from an L*/L#-style observation table over one
observation tree shared by all depths. One loop adds a suffix where two words
of a row disagree or the hypothesis fails a test: sampled words, or under a
bound the certificate suite (counterexamples reduced as in Rivest & Schapire).
Where the complete trie of all words up to the depth has at most TRIE_NODES
nodes, it is explored instead and split over a horizon: exact, and cheaper.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, product
from time import perf_counter

import numpy as np

from .core import (
    InputError,
    TransitionSystem,
    _index,
    canonical_form,
    are_isomorphic,
    intern_names,
    require,
)
from .coupling import couple, is_surpriseless, are_bisimilar
from .envs import SplitMix64
from .partitions import Partition, msr, partition_from_labels, quotient

EXPLORE_NODE_BUDGET = 1 << 25
TABLE_SUITE_SIZE = 32  # test suffixes per depth once there are more words of horizon length
SUITE_WORDS = 1 << 16  # most words one certificate suite may ask for
TRIE_NODES = 1 << 14  # a complete trie this small is cheaper to explore than a table build


def count_nodes(n_actions: int, depth: int) -> int:
    """Number of action words of length at most ``depth``."""
    if n_actions == 1:
        return depth + 1
    return (n_actions ** (depth + 1) - 1) // (n_actions - 1)


class EnvOracle:
    """Black-box stepping interface to a labeled environment.

    Sessions start at the fixed hidden initial state; stepping applies one
    action per session and returns the sensor value at the state reached.
    Many sessions run in parallel as an array. The transition table itself
    is never exposed, and every reset and step is counted.
    """

    def __init__(self, env: TransitionSystem, x0: int):
        if env.labels is None:
            raise InputError("the environment must be labeled")
        self._x0 = _index(x0, "the initial state", env.n_states)
        self._delta = np.asarray(env.delta, dtype=np.int64).reshape(-1)  # row-major: cur*m + a
        self._labels = np.asarray(env.labels, dtype=np.int32)
        self._cur = None  # no sessions until start
        self.n_actions = env.n_actions
        self.action_names = env.action_names
        self.label_names = env.label_names
        self.resets = 0
        self.steps = 0

    def _check_actions(self, actions) -> np.ndarray:
        """The action ids as an array; ``InputError`` unless all are integers in ``0..m-1``."""
        acts = np.asarray(actions)
        if not acts.size:  # [] and () read as floats; no action is a valid id
            return acts.astype(np.int64)
        if acts.dtype.kind not in "iu" or acts.min() < 0 or acts.max() >= self.n_actions:
            raise InputError(f"action ids must be integers from 0 to {self.n_actions - 1}")
        return acts

    def start(self, sessions: int) -> np.ndarray:
        """Begin ``sessions`` parallel runs; returns the initial sensor values."""
        sessions = _index(sessions, "the session count")
        if sessions < 0:
            raise InputError("start() needs a non-negative session count")
        self._cur = np.full(sessions, self._x0, dtype=np.int64)
        self.resets += sessions
        return self._labels[self._cur]

    def step(self, actions) -> np.ndarray:
        """Apply one action per session (scalar broadcasts); returns sensor values."""
        if self._cur is None:
            raise InputError("step() before any start()")
        acts = self._check_actions(actions)
        if acts.shape not in ((), self._cur.shape):
            raise InputError(f"{acts.size} actions given for {self._cur.size} sessions")
        self._cur = self._delta[self._cur * self.n_actions + acts]
        self.steps += len(self._cur)
        return self._labels[self._cur]

    def walk(self, word) -> list[int]:
        """One session through ``word``; sensor values at every step, start included."""
        word = self._check_actions(word)  # before starting, so a bad word costs nothing
        out = [int(self.start(1)[0])]
        for a in word:
            out.append(int(self.step(a)[0]))
        return out


def _as_oracle(env, x0: int | None) -> EnvOracle:
    if isinstance(env, EnvOracle):
        if x0 is not None:
            raise InputError("an oracle starts at its own state; pass x0=None")
        return env
    return EnvOracle(env, env.initial if x0 is None else x0)


@dataclass(frozen=True, eq=False)
class HistoryTrie:
    """All action words up to a depth, with the observed sensor value at each.

    Nodes are numbered in BFS order: root 0, then the words of length 1 in
    action order, and so on; ``levels[d]`` holds the observations of the
    length-``d`` words in lexicographic order. The trie is complete, so node
    ``v`` is followed under action ``a`` by node ``m·v + 1 + a``, its parent
    is ``(v - 1) // m`` (reached by action ``(v - 1) % m``), and level ``d``
    spans nodes ``offsets[d]`` to ``offsets[d + 1] - 1``.
    """

    n_actions: int
    depth: int
    action_names: tuple[str, ...]
    label_names: tuple[str, ...]
    levels: tuple[np.ndarray, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        offs = [0]
        for lvl in self.levels:
            lvl.setflags(write=False)
            offs.append(offs[-1] + len(lvl))
        object.__setattr__(self, "offsets", tuple(offs))

    @property
    def node_count(self) -> int:
        return self.offsets[-1]

    def level_of(self, node: int) -> int:
        return bisect_right(self.offsets, _index(node, "node", self.node_count)) - 1

    def observation(self, node: int) -> int:
        d = self.level_of(node)
        return int(self.levels[d][node - self.offsets[d]])

    def child(self, node: int, action: int) -> int:
        node = _index(node, "node", self.node_count)
        if self.level_of(node) == self.depth:
            raise InputError(f"node {node} is a leaf")
        return self.n_actions * node + 1 + _index(action, "action", self.n_actions)

    def parent(self, node: int) -> tuple[int, int] | None:
        """The parent node and the action leading here; None at the root."""
        node = _index(node, "node", self.node_count)
        return None if node == 0 else divmod(node - 1, self.n_actions)

    def node_at(self, word) -> int:
        node = 0
        for a in word:
            node = self.child(node, a)
        return node

    def word_of(self, node: int) -> tuple[int, ...]:
        node = _index(node, "node", self.node_count)
        out = []
        while node:
            node, a = divmod(node - 1, self.n_actions)
            out.append(a)
        return tuple(reversed(out))


def explore(env, x0: int | None, depth: int) -> HistoryTrie:
    """Record the observation at every action word of length up to ``depth``.

    The environment is touched only through the stepping oracle, one
    session per deepest word; observations of shorter words are read off
    along the way.
    """
    oracle = _as_oracle(env, x0)
    depth = _index(depth, "depth")
    if depth < 0:
        raise InputError("depth must be non-negative")
    m = oracle.n_actions
    if count_nodes(m, depth) > EXPLORE_NODE_BUDGET:
        raise InputError(
            f"a depth-{depth} trie over {m} actions exceeds the node budget")
    sessions = m ** depth
    obs = oracle.start(sessions)
    levels = [obs[::sessions].copy()]
    for t in range(depth):
        stride = m ** (depth - 1 - t)
        # session i takes action (i // stride) % m: runs of stride, m^t times over
        actions = np.tile(np.arange(m).repeat(stride), m ** t)
        obs = oracle.step(actions)
        levels.append(obs[::stride].copy())
    return HistoryTrie(m, depth, oracle.action_names, oracle.label_names, tuple(levels))


def bounded_indistinguishability(trie: HistoryTrie, horizon: int) -> Partition:
    """Merge nodes whose observations agree on every continuation up to ``horizon``.

    Moore's k-step equivalence over one flat class array of the nodes in BFS
    order, starting from the observations. Round ``j`` re-ranks each node of
    depth at most ``depth - j`` by its class and its children's classes,
    folded in one action at a time as 1-D integer keys; the children of the
    first ``live`` nodes are the slice ``1 .. m·live``, so the array shrinks
    to those nodes. After the last round two nodes of depth at most
    ``depth - horizon`` share a class iff no continuation word of length up
    to the horizon separates them. Classes are numbered by first occurrence.
    """
    horizon = _index(horizon, "horizon", trie.depth + 1)
    m = trie.n_actions
    cls = np.concatenate(trie.levels).astype(np.int64)
    # Ids are ranks below the node count (at most EXPLORE_NODE_BUDGET = 2^25)
    # or int32 observations, so keys stay below bound^2 < 2^62 (2^50 in practice).
    bound = max(trie.node_count, int(cls.max()) + 1)
    for j in range(1, horizon + 1):
        live = trie.offsets[trie.depth - j + 1]
        kids = cls[1:1 + m * live].reshape(live, m)
        key = cls[:live]
        for a in range(m):
            key = np.unique(key * bound + kids[:, a], return_inverse=True)[1]
        cls = key
    return Partition.from_block_of(cls[:trie.offsets[trie.depth - horizon + 1]].tolist())


@dataclass(frozen=True)
class BuildReport:
    """Outcome of one model-building attempt at a fixed depth and horizon."""

    ok: bool
    consistent: bool
    closed: bool
    n_classes: int
    n_model_states: int
    detail: str = ""


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
    m = trie.n_actions
    top = trie.depth - horizon  # deepest classified level
    if top < 1:
        report = BuildReport(False, True, False, part.n_blocks, 0,
                             "trie too shallow: no node has classified children")
        return None, report
    block_of = np.asarray(part.block_of, dtype=np.int64)
    cut = trie.offsets[top]  # nodes with all children classified
    child_classes = block_of[1:1 + m * cut].reshape(cut, m)
    first_member = np.unique(block_of, return_index=True)[1]  # ascending by class
    n_eligible = int(np.searchsorted(first_member, cut))

    expected = child_classes[first_member[block_of[:cut]]]
    bad = np.argwhere(child_classes != expected)
    if len(bad):
        node, a = (int(v) for v in bad[0])
        rep = int(first_member[block_of[node]])
        report = BuildReport(
            False, False, True, part.n_blocks, n_eligible,
            f"class of node {rep} is inconsistent: nodes {rep} and {node} disagree "
            f"under action {trie.action_names[a]!r}")
        return None, report

    delta = child_classes[first_member[:n_eligible]]
    overflow = np.argwhere(delta >= n_eligible)
    if len(overflow):
        c, a = (int(v) for v in overflow[0])
        report = BuildReport(
            False, True, False, part.n_blocks, n_eligible,
            f"not closed: class {c} leads under action {trie.action_names[a]!r} "
            "to a class with no shallow member")
        return None, report

    state_labels = [trie.label_names[trie.observation(int(first_member[c]))]
                    for c in range(n_eligible)]
    model = TransitionSystem.from_tables(
        trie.action_names, delta.tolist(), state_labels, initial=0)
    return model, BuildReport(True, True, True, part.n_blocks, n_eligible)


def _padded(words) -> tuple[np.ndarray, np.ndarray]:
    """The words as rows of an action matrix, padded with action 0, and their lengths."""
    width = max(map(len, words))
    rows = np.array([w + (0,) * (width - len(w)) for w in words], dtype=np.int64)
    return rows, np.array([len(w) for w in words])


class _ObservationTable:
    """Representatives and a growing suffix set over one observation tree, kept for a whole run.

    A word is a node id. ``tree[v]`` holds the child of node ``v`` under each
    action (0 if none), the sensor value seen at ``v`` (-1 until replayed) and
    ``parent·m + action``, so a word is spelled out only for the oracle. Node
    1 is the empty word, node 0 a blank whose children are itself. Nodes from
    ``asked`` on wait for a replay. The representatives (the first word of each
    row, breadth-first) and their successors' rows hold until a suffix is added.
    """

    def __init__(self, oracle: EnvOracle):
        self.oracle, self.m = oracle, oracle.n_actions
        # node ids and parent codes stay below 2^31 until the tree outgrows 8 GiB
        self.tree = np.zeros((1024, self.m + 2), dtype=np.int32)
        self.tree[:, self.m] = -1
        self.size, self.asked = 2, 1
        self.suffixes = [()]  # suffixes only grow
        self._reset()

    def _reset(self):
        # the rows of a node's successors, read from the node: each action, then each suffix
        self.succ_acts, self.succ_lens = _padded([(a,) + e for a in range(self.m)
                                                  for e in self.suffixes])
        self.known, self.reps, self.rep_len, self.expanded = {}, [1], [0], 0
        self.kids, self.targets, self.succ_rows = [], [], []

    def _child(self, cur, act, live=True) -> np.ndarray:
        """The child of each node under its action, added as a placeholder where missing and live."""
        kid = self.tree[cur, act]
        new = live & (kid == 0)
        if new.any():
            # sorted and deduplicated by hand: np.unique is several times slower
            # on these arrays and loads numpy.ma, 2 MiB, on its first call
            keys = np.sort(cur[new] * self.m + act[new])
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            ids = np.arange(self.size, self.size + len(keys))
            self.size += len(keys)
            if self.size > len(self.tree):  # grow by copies of the blank node 0
                blank = np.broadcast_to(self.tree[0], (self.size, self.m + 2))
                self.tree = np.concatenate([self.tree, blank])
            self.tree[keys // self.m, keys % self.m] = ids
            self.tree[ids, self.m + 1] = keys
            kid = self.tree[cur, act]
        return kid

    def _observe(self, starts, acts, lens) -> np.ndarray:
        """The sensor value after each start then its padded row of ``acts``, asking for new words.

        ``starts`` holds one node per row, or a column of nodes that each take every row.
        """
        shape = np.broadcast_shapes(starts.shape, lens.shape)
        cur = np.broadcast_to(starts, shape)
        for t in range(acts.shape[1]):
            live = lens > t
            cur = np.where(live, self._child(cur, np.broadcast_to(acts[:, t], shape), live), cur)
        if self.asked < self.size:
            self._ask()
        return self.tree[cur, self.m]

    def _ask(self):
        """Replay the new leaves (asked words no other extends), one batch per length."""
        m, tree = self.m, self.tree
        new = np.arange(self.asked, self.size, dtype=np.int32)
        v = new[(tree[new, :m] == 0).all(1)]
        path = []  # the nodes j steps above each leaf
        while v.any():  # the root's parent code leads to the blank node 0
            path.append(v)
            v = tree[v, m + 1] // m
        path = np.array(path)
        back, length = tree[path, m + 1] % m, (path > 1).sum(0)  # actions into them; lengths
        for n in sorted(set(length.tolist())):
            group = length == n
            tree[1, m] = self.oracle.start(int(group.sum()))[0]
            for a, v in zip(back[:n][::-1, group], path[:n][::-1, group]):
                tree[v, m] = self.oracle.step(a)
        self.asked = self.size

    def _expand(self, max_len: int):
        """Carry the representatives on through words of length ``max_len``."""
        if not self.known:  # the empty word's row comes first
            root = self._observe(np.ones((1, 1), dtype=np.int64), *_padded(self.suffixes))
            self.known[root[0].tobytes()] = 0
        while self.expanded < len(self.reps) and self.rep_len[self.expanded] <= max_len:
            level, length = np.array(self.reps[self.expanded:]), self.rep_len[-1] + 1
            self.expanded = len(self.reps)
            rows = self._observe(level[:, None], self.succ_acts, self.succ_lens)
            kids = self.tree[level, :self.m].ravel().tolist()
            for w, row in zip(kids, rows.reshape(len(kids), -1)):
                self.targets.append(self.known.setdefault(row.tobytes(), len(self.reps)))
                if self.targets[-1] == len(self.reps):  # a new row
                    self.reps.append(w)
                    self.rep_len.append(length)
            self.kids += kids
            self.succ_rows.append(rows)

    def build(self, depth: int, horizon: int, bound: int | None,
              ) -> tuple[TransitionSystem | None, BuildReport, bool]:
        """Close, make consistent and test the table; its hypothesis on the shallow words, checked.

        With no ``bound`` the tests are every word of the horizon's length if
        there are at most ``TABLE_SUITE_SIZE``, else that many drawn from a
        stream seeded with the depth, so passing them proves nothing. Under a
        bound the test is the certificate suite of ``check``. A word failing
        either gives a Rivest–Schapire suffix, and the table builds again.
        Returns the candidate, report and certificate flag that ``check`` gives.
        """
        max_len = depth - horizon - 1  # same shallowness rule as the trie build
        m, actions = self.m, self.oracle.action_names
        count = TABLE_SUITE_SIZE if bound is None else 0
        if m ** horizon <= count:
            tests = np.array(list(product(range(m), repeat=horizon)), dtype=np.int64)
        else:
            draws = SplitMix64(depth).next_u64s(count * horizon) % np.uint64(m)
            tests = draws.astype(np.int64).reshape(count, horizon)
        lens = np.full(len(tests), horizon)
        while True:
            self._expand(max_len)
            n = self.expanded
            delta = np.array(self.targets).reshape(n, m)
            if (delta >= n).any():
                r, a = np.argwhere(delta >= n)[0]
                return None, BuildReport(
                    False, True, False, len(self.reps), n,
                    f"not closed: class {r} leads under action {actions[a]!r} "
                    "to a class with no shallow member"), False
            # consistent: a word's successors share its representative's rows
            reps, kids, targets = np.array(self.reps[:n]), np.array(self.kids), delta.reshape(-1)
            split = np.flatnonzero(np.repeat(np.array(self.rep_len[:n]) < max_len, m)
                                   & (kids != reps[targets]))
            rows = self._observe(kids[split][:, None], self.succ_acts, self.succ_lens)
            bad = np.argwhere(rows != np.concatenate(self.succ_rows)[targets[split]])
            if len(bad):
                b, k = divmod(int(bad[0][1]), len(self.suffixes))
                self.suffixes.append((b,) + self.suffixes[k])
                self._reset()
                continue
            cover = np.concatenate([reps, kids, self.tree[kids[split], :m].ravel()])
            states = np.concatenate([np.arange(n), targets, delta[targets[split]].ravel()])
            word = self._mismatch(cover, states, tests, lens, delta, self.tree[reps, m])
            if word is None:
                names = [self.oracle.label_names[label] for label in self.tree[reps, m]]
                model = TransitionSystem.from_tables(actions, delta.tolist(), names, initial=0)
                model, report, certified, word = self.check(
                    model, BuildReport(True, True, True, len(self.reps), n), bound, self.suffixes)
                if word is None:
                    return model, report, certified
            self.suffixes.append(self._counterexample(word, reps, delta))
            self._reset()

    def check(self, model: TransitionSystem | None, report: BuildReport, bound: int | None,
              suffixes=((),)) -> tuple[TransitionSystem | None, BuildReport, bool, tuple | None]:
        """The gate of every candidate: its canonical form, or under a bound its certificate.

        Under a bound the candidate is minimized and replayed through ``certify``
        with ``suffixes`` first in W; the report takes the suite's detail. Returns
        the checked candidate, the report, whether it is certified and a word it
        labels wrong, if the suite found one.
        """
        if model is None:
            return None, report, False, None
        if bound is None:
            return canonical_form(model, model.initial)[0], report, False, None
        small, _ = quotient(model, msr(model, partition_from_labels(model)))
        model = canonical_form(small, small.initial)[0]
        certified, word, detail = self.certify(model, bound, suffixes)
        return model, replace(report, detail=detail), certified, word

    def _word(self, v: int) -> tuple[int, ...]:
        """The action word of tree node ``v``."""
        w = ()
        while v > 1:
            v, a = divmod(int(self.tree[v, self.m + 1]), self.m)
            w = (a,) + w
        return w

    def _mismatch(self, cover, states, tests, lens, delta, labels) -> tuple[int, ...] | None:
        """The shortest word, a cover node then a prefix of a test, that the hypothesis labels wrong.

        Cover node ``i`` is in hypothesis state ``states[i]``; test ``k`` is the
        first ``lens[k]`` actions of row ``k`` of ``tests``. Every cover node
        takes every test, and all of them are asked first.
        """
        self._observe(cover[:, None], tests, lens)
        node, state = cover[:, None], states[:, None]
        for j in range(tests.shape[1] + 1):
            bad = (self.tree[node, self.m] != labels[state]) & (lens >= j)
            if bad.any():
                i, k = np.argwhere(bad)[0]
                return self._word(cover[i]) + tuple(tests[k, :j].tolist())
            if j < tests.shape[1]:
                node, state = self.tree[node, tests[:, j]], delta[state, tests[:, j]]
        return None

    def _counterexample(self, w, reps, delta) -> tuple[int, ...]:
        """A suffix splitting a row, from a word the hypothesis labels wrong.

        As in Rivest & Schapire, with ``acc(x)`` the representative reached by
        ``x``, some ``i`` has ``obs(acc(w[:i]) w[i:]) != obs(acc(w[:i+1]) w[i+1:])``.
        """
        q = list(accumulate(w, lambda state, a: delta[state, a], initial=0))
        seen = self._observe(reps[q], *_padded([w[i:] for i in range(len(w) + 1)]))
        return w[next(i for i in range(len(w)) if seen[i] != seen[i + 1]) + 1:]

    def certify(self, model: TransitionSystem, bound: int, suffixes,
                ) -> tuple[bool, tuple[int, ...] | None, str]:
        """Replay the W-method suite of a minimal model for environments of at most ``bound`` states.

        The suite is cover × Σ^{≤k} × W for the model's n states and k = bound - n.
        The cover holds each state's breadth-first access word and its one-step
        extensions; W is ``suffixes`` plus a shortest separating word for each
        pair of states they leave together, so it characterizes the model. The
        suite runs one Σ layer at a time and stops at the first word the model
        labels wrong. Passing it proves, by Chow's theorem, that an environment of
        at most ``bound`` states has the model as its minimal quotient. Returns
        whether it passed, the failing word if one was found, and a detail line;
        a suite of more than ``SUITE_WORDS`` words is not run to its end.
        """
        n, m = model.n_states, self.m
        if n > bound:
            return False, None, f"not certified: more than {bound} states"
        delta = np.array(model.delta, dtype=np.int64)
        names = self.oracle.label_names
        labels = np.array([names.index(model.label_names[label]) for label in model.labels])
        flat, ext = delta.ravel().tolist(), np.zeros((n, m), dtype=np.int64)
        for s in range(n):  # breadth-first numbering: a state is first entered from an earlier one
            ext[s] = self._child(np.full(m, ext.flat[flat.index(s)] if s else 1), np.arange(m))
        cover = np.concatenate([[1], ext.ravel()])
        states = np.concatenate([[0], delta.ravel()])
        words, wlen = _padded(_characterizing(model, suffixes))
        asked = 0
        for j in range(bound - n + 1):
            count = len(cover) * m ** j * len(words)
            if asked + count > SUITE_WORDS:
                return False, None, (f"not certified: the suite outgrows {SUITE_WORDS} words "
                                     f"at Σ^{j}")
            mid = np.array(list(product(range(m), repeat=j)), dtype=np.int64).reshape(m ** j, j)
            tests = np.hstack([np.repeat(mid, len(words), axis=0), np.tile(words, (len(mid), 1))])
            word = self._mismatch(cover, states, tests, j + np.tile(wlen, len(mid)), delta, labels)
            asked += count
            if word is not None:
                spelled = " ".join(self.oracle.action_names[a] for a in word)
                return False, word, f"refuted by suite word [{spelled}]"
        return True, None, f"certified by {asked} suite words"


def _characterizing(model: TransitionSystem, suffixes) -> list[tuple[int, ...]]:
    """``suffixes``, then a shortest separating word for each pair of states they leave together.

    Two states are left together when every suffix shows the same labels from
    both, step by step. A pair first told apart by Moore's ``j``-step
    equivalence is separated by a word of length ``j``, found by following an
    action whose successors were already apart at ``j - 1``. The model must be
    minimal, so that every pair is told apart at some ``j``.
    """
    n, m, delta, labels = model.n_states, model.n_actions, model.delta, model.labels
    levels = [labels]  # levels[j][s]: the class of s under j-step equivalence
    while len(set(levels[-1])) < n:
        prev = levels[-1]
        levels.append(intern_names(tuple([prev[s]] + [prev[t] for t in delta[s]])
                                   for s in range(n))[0])
        require(len(set(levels[-1])) > len(set(prev)), "the model to certify is not minimal")

    def trace(s, w):
        out = [labels[s]]
        for a in w:
            s = delta[s][a]
            out.append(labels[s])
        return tuple(out)

    words = list(suffixes)
    keys = [tuple(trace(s, w) for w in words) for s in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if keys[p] != keys[q]:
                continue
            w, s, t = (), p, q
            for j in range(next(j for j, cls in enumerate(levels) if cls[p] != cls[q]) - 1, -1, -1):
                a = next(a for a in range(m) if levels[j][delta[s][a]] != levels[j][delta[t][a]])
                w, s, t = w + (a,), delta[s][a], delta[t][a]
            words.append(w)
            keys = [key + (trace(s, w),) for s, key in enumerate(keys)]
    return words


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
    candidate (possibly None), with each depth's oracle calls and time.
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
    table = _ObservationTable(oracle)  # one query cache for every depth
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
                *build_model(explore(oracle, None, depth), horizon), bound)
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
