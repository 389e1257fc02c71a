"""Reconstruct an environment from action-observation histories alone.

The learner drives an environment through a stepping oracle (start a
session at the hidden initial state, apply actions, read sensor values);
it never sees states or the transition table. Words that no continuation
tells apart are merged, and the merged classes form a candidate model of
the environment. Deepening until two successive candidates agree yields,
for well-behaved environments, a model isomorphic to the environment.

Each depth's candidate comes from an L*/L#-style observation table over one
observation tree shared by all depths: suffixes are added only where two
words of a row disagree or the hypothesis fails a test (counterexamples
reduced as in Rivest & Schapire). Where the complete trie of all words up to
the depth has at most ``TRIE_NODES`` nodes, it is explored instead and its
nodes are split over a horizon, which is exact and cheaper at that size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, cycle, islice, product
from time import perf_counter

import numpy as np

from .core import (
    InputError,
    TransitionSystem,
    _index,
    canonical_form,
    are_isomorphic,
    require,
)
from .coupling import couple, is_surpriseless, are_bisimilar
from .envs import SplitMix64
from .partitions import Partition

EXPLORE_NODE_BUDGET = 1 << 25
TABLE_SUITE_SIZE = 32  # test suffixes per depth once there are more words of horizon length
TABLE_TEST_WORDS = 1 << 13  # most words of length min_depth // 2 - 1 a depth floor may ask for
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
        if acts.size and (acts.dtype.kind not in "iu" or acts.min() < 0
                          or acts.max() >= self.n_actions):
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
        actions = (np.arange(sessions) // stride) % m
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

    def _observe(self, starts, acts, lens) -> np.ndarray:
        """The sensor value after each start then its padded row of ``acts``, asking for new words.

        ``starts`` holds one node per row, or a column of nodes that each take every row.
        """
        shape = np.broadcast_shapes(starts.shape, lens.shape)
        cur = np.broadcast_to(starts, shape)
        for t in range(acts.shape[1]):
            act = np.broadcast_to(acts[:, t], shape)
            kid, live = self.tree[cur, act], lens > t
            new = live & (kid == 0)
            if new.any():
                keys = np.unique(cur[new] * self.m + act[new])
                ids = np.arange(self.size, self.size + len(keys))
                self.size += len(keys)
                if self.size > len(self.tree):  # grow by copies of the blank node 0
                    blank = np.broadcast_to(self.tree[0], (self.size, self.m + 2))
                    self.tree = np.concatenate([self.tree, blank])
                self.tree[keys // self.m, keys % self.m] = ids
                self.tree[ids, self.m + 1] = keys
                kid = self.tree[cur, act]
            cur = np.where(live, kid, cur)
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
        for n in np.unique(length).tolist():
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

    def build(self, depth: int, horizon: int, min_depth: int,
              ) -> tuple[TransitionSystem | None, BuildReport]:
        """Close, make consistent and test the table; the hypothesis on the shallow words.

        Tests are words of the horizon's length whose prefixes run through every
        word of length ``min_depth // 2 - 1``, which separate the states of an
        environment of up to ``min_depth // 2`` states; the rest is sampled.
        """
        max_len = depth - horizon - 1  # same shallowness rule as the trie build
        m, actions = self.m, self.oracle.action_names
        complete = max(min(depth, min_depth) // 2 - 1, 0)
        count = max(TABLE_SUITE_SIZE, m ** complete)
        if m ** horizon <= count:
            tests = np.array(list(product(range(m), repeat=horizon)), dtype=np.int64)
        else:  # the tails depend on the depth alone
            heads = np.array(list(islice(cycle(product(range(m), repeat=complete)), count)),
                             dtype=np.int64)
            tail = SplitMix64(depth).next_u64s(count * (horizon - complete)) % np.uint64(m)
            tests = np.hstack([heads, tail.astype(np.int64).reshape(count, -1)])
        while True:
            self._expand(max_len)
            n = self.expanded
            delta = np.array(self.targets).reshape(n, m)
            if (delta >= n).any():
                r, a = np.argwhere(delta >= n)[0]
                return None, BuildReport(
                    False, True, False, len(self.reps), n,
                    f"not closed: class {r} leads under action {actions[a]!r} "
                    "to a class with no shallow member")
            # consistent: a word's successors share its representative's rows
            reps, kids, targets = np.array(self.reps[:n]), np.array(self.kids), delta.reshape(-1)
            split = np.flatnonzero(np.repeat(np.array(self.rep_len[:n]) < max_len, m)
                                   & (kids != reps[targets]))
            rows = self._observe(kids[split][:, None], self.succ_acts, self.succ_lens)
            bad = np.argwhere(rows != np.concatenate(self.succ_rows)[targets[split]])
            if len(bad):
                b, k = divmod(int(bad[0][1]), len(self.suffixes))
                suffix = (b,) + self.suffixes[k]
            else:
                cover = np.concatenate([reps, kids, self.tree[kids[split], :m].ravel()])
                states = np.concatenate([np.arange(n), targets, delta[targets[split]].ravel()])
                suffix = self._counterexample(cover, states, tests, reps, delta)
                if suffix is None:
                    break
            self.suffixes.append(suffix)
            self._reset()
        names = [self.oracle.label_names[label] for label in self.tree[reps, self.m]]
        model = TransitionSystem.from_tables(actions, delta.tolist(), names, initial=0)
        return model, BuildReport(True, True, True, len(self.reps), n)

    def _counterexample(self, cover, states, tests, reps, delta):
        """A suffix splitting a row, from the first test prefix the hypothesis labels wrong.

        As in Rivest & Schapire, with ``acc(x)`` the representative reached by
        ``x``, some ``i`` has ``obs(acc(w[:i]) w[i:]) != obs(acc(w[:i+1]) w[i+1:])``.
        """
        self._observe(cover[:, None], tests, np.full(len(tests), tests.shape[1]))  # ask all tests
        labels, node, state = self.tree[reps, self.m], cover[:, None], states[:, None]
        for j in range(tests.shape[1]):
            node, state = self.tree[node, tests[:, j]], delta[state, tests[:, j]]
            bad = self.tree[node, self.m] != labels[state]
            if bad.any():
                i, k = np.argwhere(bad)[0]
                v, w = int(cover[i]), tuple(tests[k, :j + 1].tolist())
                while v > 1:  # spell the cover word out
                    v, a = divmod(int(self.tree[v, self.m + 1]), self.m)
                    w = (a,) + w
                q = list(accumulate(w, lambda state, a: delta[state, a], initial=0))
                seen = self._observe(reps[q], *_padded([w[i:] for i in range(len(w) + 1)]))
                return w[next(i for i in range(len(w)) if seen[i] != seen[i + 1]) + 1:]
        return None


@dataclass(frozen=True)
class DepthAttempt:
    depth: int
    horizon: int
    method: str
    ok: bool
    n_states: int
    detail: str
    resets: int
    steps: int
    seconds: float


@dataclass(frozen=True)
class LearnReport:
    """How a learning run went: schedule, convergence, and oracle budget."""

    converged: bool
    depth_converged: int | None
    depth_stopped: int
    oracle_resets: int
    oracle_steps: int
    attempts: tuple[DepthAttempt, ...]

    def summary(self) -> str:
        lines = []
        for att in self.attempts:
            outcome = f"{att.n_states}-state model" if att.ok else att.detail
            lines.append(f"depth {att.depth} (horizon {att.horizon}, {att.method}): {outcome} "
                         f"[{att.resets} resets, {att.steps} steps, {att.seconds:.3f} s]")
        if self.converged:
            lines.append(f"converged at depth {self.depth_converged} "
                         f"(confirmed at depth {self.depth_stopped})")
        else:
            lines.append(f"no convergence by depth {self.depth_stopped}")
        lines.append(f"oracle calls: {self.oracle_resets} resets, {self.oracle_steps} steps")
        return "\n".join(lines)


def learn(env, x0: int | None, max_depth: int, min_depth: int = 2,
          ) -> tuple[TransitionSystem | None, LearnReport]:
    """Deepen exploration until two successive candidate models agree.

    Runs depths 2, 4, ... up to ``max_depth`` with the horizon at half the
    depth, and stops once the candidates of two successive depths have
    identical canonical forms anchored at the root class. Agreement is a
    heuristic: the candidate at depth ``D`` is exact once ``D`` reaches twice
    the true model size, so callers who know a bound can raise ``min_depth``
    to refuse shallower claims. The table's tests then hold every word of
    length ``min_depth // 2 - 1``; more than ``TABLE_TEST_WORDS`` of them is
    an ``InputError``. Returns the stabilized model in canonical form, or the
    last candidate (possibly None), with each depth's oracle calls and time.
    """
    max_depth = _index(max_depth, "max_depth")
    min_depth = _index(min_depth, "min_depth")
    if max_depth < 2:
        raise InputError("max_depth must be at least 2")
    oracle = _as_oracle(env, x0)
    floor = max(min(max_depth, min_depth) // 2 - 1, 0)
    # m >= 2 words of a length past the bound's bit length exceed the bound
    if oracle.n_actions ** min(floor, TABLE_TEST_WORDS.bit_length()) > TABLE_TEST_WORDS:
        raise InputError(f"a depth floor of {min_depth} asks for every word of length {floor} "
                         f"over {oracle.n_actions} actions, more than {TABLE_TEST_WORDS}")
    resets0, steps0 = oracle.resets, oracle.steps
    table = _ObservationTable(oracle)  # one query cache for every depth
    attempts: list[DepthAttempt] = []
    prev_model, prev_depth, converged = None, None, False
    for depth in range(2, max_depth + 1, 2):
        horizon = depth // 2
        method = "trie" if count_nodes(oracle.n_actions, depth) <= TRIE_NODES else "table"
        resets, steps, t0 = oracle.resets, oracle.steps, perf_counter()
        if method == "trie":
            model, report = build_model(explore(oracle, None, depth), horizon)
        else:
            model, report = table.build(depth, horizon, min_depth)
        attempts.append(DepthAttempt(depth, horizon, method, report.ok, report.n_model_states,
                                     report.detail, oracle.resets - resets,
                                     oracle.steps - steps, perf_counter() - t0))
        if model is not None:
            model = canonical_form(model, model.initial)[0]
        converged = model is not None and model == prev_model and prev_depth >= min_depth
        if converged:
            break
        prev_model, prev_depth = model, depth
    return prev_model, LearnReport(converged, prev_depth if converged else None, depth,
                                   oracle.resets - resets0, oracle.steps - steps0,
                                   tuple(attempts))


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
