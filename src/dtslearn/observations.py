"""What a learner may ask of an environment, and what it keeps of the answers.

``EnvOracle`` is the learner's only access to an environment: sessions start
at its hidden initial state, apply actions and read sensor values, and every
reset and step is counted. ``HistoryTrie`` holds the observation at every
action word up to a depth.

``_ObservationTable`` keeps one observation tree for a whole learning run,
the run's only store of observations, so the oracle is never asked for a
word it has already answered; filling the tree to a depth gives the trie.
Over the tree it builds an L*/L#-style observation table. One loop adds a
suffix where two words of a row disagree or the hypothesis fails a test:
sampled words, or under a bound the certificate suite (counterexamples
reduced as in Rivest & Schapire). A word's row, what follows it under each
suffix, is cached across suffix additions, so a new suffix walks only its
own column. Every walk takes its words longest first, and new words are
replayed in one batch per length.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import accumulate, filterfalse, product

import numpy as np

from .core import InputError, TransitionSystem, _index, canonical_form
from .envs import SplitMix64
from .partitions import _separating_words, msr, partition_from_labels, quotient

TABLE_SUITE_SIZE = 32  # test suffixes per depth once there are more words of horizon length
SUITE_WORDS = 1 << 16  # most words one certificate suite may ask for


def count_nodes(n_actions: int, depth: int) -> int:
    """Number of action words of length at most ``depth``."""
    return depth + 1 if n_actions == 1 else (n_actions ** (depth + 1) - 1) // (n_actions - 1)


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
        # one max over an unsigned view: a negative id reads as 2^(w-1) or more, past any signed id
        top = min(self.n_actions, 1 << 8 * acts.itemsize - (acts.dtype.kind == "i"))
        if acts.dtype.kind not in "iu" or acts.view(acts.dtype.str.replace("i", "u")).max() >= top:
            raise InputError(f"action ids must be integers from 0 to {self.n_actions - 1}")
        # 8-byte ids as int64, in their byte order: int64 + uint64 would be float64
        return acts.view(acts.dtype.str.replace("u", "i")) if acts.itemsize == 8 else acts

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
        m, depth = _index(self.n_actions, "n_actions"), _index(self.depth, "depth")
        levels = tuple(np.array(lvl) for lvl in self.levels)  # copies, made read-only below
        if m < 1 or len(self.action_names) != m or depth < 0 or len(levels) != depth + 1 or any(
                lvl.shape != (m ** d,) or lvl.dtype.kind not in "iu" or lvl.min() < 0
                or lvl.max() >= len(self.label_names) for d, lvl in enumerate(levels)):
            raise InputError(f"a depth-{depth} trie over {m} actions needs {m} action names and "
                             f"{depth + 1} levels, level d holding m^d integer observations "
                             "that index label_names")
        object.__setattr__(self, "levels", levels)
        self._seal()

    @classmethod
    def _trusted(cls, *values) -> "HistoryTrie":
        """A trie from a fill's levels, complete and in range by construction: unchecked."""
        trie = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, values):  # every field but offsets
            object.__setattr__(trie, name, value)
        trie._seal()  # the fill's own arrays, which it never writes again
        return trie

    def _seal(self):
        for lvl in self.levels:
            lvl.setflags(write=False)
        object.__setattr__(self, "offsets", tuple(accumulate(map(len, self.levels), initial=0)))

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
        return reduce(self.child, word, 0)

    def word_of(self, node: int) -> tuple[int, ...]:
        node = _index(node, "node", self.node_count)
        out = []
        while node:
            node, a = divmod(node - 1, self.n_actions)
            out.append(a)
        return tuple(reversed(out))


@dataclass(frozen=True)
class BuildReport:
    """Outcome of one model-building attempt at a fixed depth and horizon."""

    ok: bool
    consistent: bool
    closed: bool
    n_classes: int
    n_model_states: int
    detail: str = ""


def _padded(words) -> tuple[np.ndarray, np.ndarray]:
    """The words as rows of an action matrix, padded with action 0, and their lengths."""
    width = max(map(len, words))
    rows = np.array([w + (0,) * (width - len(w)) for w in words], dtype=np.int64)
    return rows, np.array([len(w) for w in words])


class _ObservationTable:
    """Representatives and a growing suffix set over one observation tree, kept for a whole run.

    A word is a node id. ``tree[v]`` holds the child of node ``v`` under each
    action (0 if none), ``observed[v]`` the sensor value seen at ``v`` (-1
    until replayed), ``code[v]`` its ``parent·m + action`` and ``length[v]``
    its word's length, set from the parent's as the node is added; so a word
    is spelled out only for the oracle. The four arrays grow together. Node
    1 is the empty word, node 0 a blank whose children are itself. Nodes from
    ``asked`` on wait for a replay. ``levels`` holds the nodes of each complete
    level and ``seen`` their observations, words in lexicographic order; the
    levels that ``fill`` completes below the last one with nodes are kept as
    observations alone until ``_child`` makes them nodes. ``cache`` row
    ``slots[v]`` holds node ``v``'s row, its observation after each suffix (-1
    where not yet walked); it is kept across suffix additions and allocated by
    ``_rows``. The representatives (the first word of each row, breadth-first)
    and their successors hold until a suffix is added.
    """

    def __init__(self, oracle: EnvOracle):
        self.oracle, self.m = oracle, oracle.n_actions
        # ids and parent codes stay below 2^31 until the tree outgrows 8 GiB; -1: not replayed
        self.tree = np.zeros((1024, self.m), np.int32)
        self.code, self.length = np.zeros(1024, np.int32), np.zeros(1024, np.int16)
        self.observed = np.full(1024, -1, np.min_scalar_type(-len(oracle.label_names)))
        self.size, self.asked = 2, 1
        self.levels, self.seen = [np.ones(1, dtype=np.int64)], []
        self.suffixes = [()]  # suffixes only grow
        self.slots, self.cache = {}, np.empty((0, 0), self.observed.dtype)
        self._reset()

    def _reset(self):
        self.acts, self.lens = _padded(self.suffixes)
        self.known, self.reps, self.rep_len, self.expanded = {}, [1], [0], 0
        self.kids, self.targets = [], []

    def _add(self, keys) -> np.ndarray:
        """New placeholder nodes, one per distinct ``parent·m + action`` code; their ids."""
        size, cap = self.size + len(keys), len(self.tree)
        if size > cap:  # grow by half until the nodes fit, so the capacity follows the size
            n = cap
            while cap < size:
                cap += cap // 2
            # in place, so old and new arrays are never held at once (no view outlives a call)
            for a in (self.tree, self.code, self.length, self.observed):
                a.resize((cap,) + a.shape[1:], refcheck=False)
            self.observed[n:] = -1
        parent, act = np.divmod(keys, self.m)  # parents may be in this block: then length 0
        if (length := self.length[parent]).max() == np.iinfo(length.dtype).max:
            raise InputError(f"words of more than {np.iinfo(length.dtype).max} actions are refused")
        ids, self.size = np.arange(self.size, size), size
        self.tree[parent, act] = ids
        self.code[ids] = keys
        self.length[ids] = length + 1
        return ids

    def _materialize(self):
        """Nodes for the complete levels kept as observations alone, added as one block."""
        m, levels, seen = self.m, self.levels, self.seen
        first, p, b = len(levels), len(levels[-1]) * m, self.size
        n = p * count_nodes(m, len(seen) - 1 - first)
        # the p children of the last level with nodes, then child i % m of b + i // m is b + p + i
        ids = self._add(np.concatenate([(levels[-1][:, None] * m + np.arange(m)).ravel(),
                                        np.arange(b * m, b * m + n - p)]))
        self.observed[ids] = np.concatenate(seen[first:])
        for j in range(len(seen) - first):  # the parents are in this block: lengths per level
            levels.append(ids[p * count_nodes(m, j - 1):p * count_nodes(m, j)])
            self.length[levels[-1]] = first + j
        self.asked = self.size

    def _child(self, cur, act) -> np.ndarray:
        """The child of each node under its action (broadcast); a placeholder where missing."""
        if len(self.seen) > len(self.levels):
            self._materialize()
        kid = self.tree[cur, act]
        new = kid == 0
        if new.any():
            # sorted and deduplicated by hand: np.unique is several times slower
            # on these arrays and loads numpy.ma, 2 MiB, on its first call
            keys = np.sort((cur * self.m + act)[new])
            self._add(keys[np.concatenate(([True], keys[1:] != keys[:-1]))])
            kid = self.tree[cur, act]
        return kid

    def fill(self, depth: int) -> HistoryTrie:
        """Every word up to ``depth`` in the tree, one session asked per new leaf; the trie of them.

        Level by level, each node of the last complete level gains its missing
        children, and the new leaves are asked as any others are. Below a
        level with no children yet every word is new: the sessions run through
        the words of length ``depth`` in lexicographic order, each step's
        actions one repeating pattern and its observations one level, and the
        new levels are kept as observations alone.
        """
        m, levels, seen = self.m, self.levels, self.seen
        while len(seen) <= len(levels) <= depth:  # no level is kept as observations alone
            kids = self.tree.take(levels[-1], axis=0)
            if not np.count_nonzero(kids):
                break
            missing = kids == 0
            if missing.any():
                kids[missing] = self._add((levels[-1][:, None] * m + np.arange(m))[missing])
            levels.append(kids.ravel())
        if len(levels) > depth:
            if self.asked < self.size:
                self._ask()
            seen += [self.observed[ids] for ids in levels[len(seen):]]
        elif len(seen) <= depth:
            got = [self.oracle.start(m ** depth)[:1].copy()]
            for t in range(depth):
                stride = m ** (depth - 1 - t)
                # session i takes action (i // stride) % m: runs of stride, m^t times over
                obs = self.oracle.step(np.arange(m).repeat(stride)[None].repeat(m ** t, 0).ravel())
                got.append(obs[::stride].copy())
            for ids, obs in zip(levels[len(seen):], got[len(seen):]):
                self.observed[ids] = obs  # the new nodes of levels that had children
            self.asked = self.size
            seen += got[len(seen):]
        return HistoryTrie._trusted(m, depth, self.oracle.action_names, self.oracle.label_names,
                                    tuple(seen[:depth + 1]))

    def _observe(self, starts, acts, lens) -> np.ndarray:
        """The sensor value after each start then its padded row of ``acts``, asking for new words.

        ``starts`` holds one node per row, or a column of nodes that each take
        every row (the result then has a row per row of ``acts``). Rows are
        walked longest first, so step ``t`` touches only the rows longer than ``t``.
        """
        order = np.argsort(-lens, kind="stable")
        if starts.ndim == 2:  # every start takes every row
            cur, acts = np.tile(starts.T, (len(order), 1)), acts[order, :, None]
        else:
            cur, acts = starts[order], acts[order]
        for t, live in enumerate(np.searchsorted(-lens[order], -np.arange(lens.max(initial=0)))):
            cur[:live] = self._child(cur[:live], acts[:live, t])
        if self.asked < self.size:
            self._ask()
        out = np.empty(cur.shape, dtype=np.int32)
        out[order] = self.observed[cur]
        return out

    def _ask(self):
        """Replay the new leaves (words asked that no other extends), one batch per length.

        Batches run shortest first. Sorted by stored length, longest first, a batch is a slice
        and the leaves longer than ``j`` a prefix; paths, as parent codes, are read in slices.
        """
        m, observed = self.m, self.observed
        leaf = reduce(np.logical_and, (self.tree[self.asked:self.size] == 0).T)  # .all(1) is slower
        leaves = self.asked + np.flatnonzero(leaf)
        leaves = leaves[np.argsort(-self.length[leaves], kind="stable")]
        length = self.length[leaves]
        code = [self.code[leaves]]  # code[j]: parent·m + action of the nodes j steps above
        for live in np.searchsorted(-length, -np.arange(1, length[0])):
            code.append(self.code.take(code[-1][:live] // m))  # take: no intp copy of the ids
        bounds = [0, *(np.flatnonzero(length[1:] != length[:-1]) + 1).tolist(), len(length)]
        for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
            observed[1] = self.oracle.start(hi - lo)[0]
            for j in range(int(length[lo]) - 1, -1, -1):
                v = code[j - 1][lo:hi] // m if j else leaves[lo:hi]
                observed[v] = self.oracle.step(code[j][lo:hi] % m)
        self.asked = self.size

    def _rows(self, nodes) -> np.ndarray:
        """Each node's row over the suffixes, walking only the cells not yet cached."""
        ids, slot = nodes.tolist(), self.slots
        # new nodes take the next slots in order; update inserts each before testing the next
        fresh = range(len(slot), len(slot) + len(ids))
        slot.update(zip(filterfalse(slot.__contains__, ids), fresh))
        slots = np.array(list(map(slot.__getitem__, ids)), dtype=np.int64)
        need = (len(slot), len(self.suffixes))
        if need[0] > len(self.cache) or need[1] > self.cache.shape[1]:
            old = self.cache  # a column per suffix, slots doubling; unwalked cells -1
            height = len(old) if need[0] <= len(old) else max(2 * len(old), need[0])
            self.cache = np.full((height, need[1]), -1, dtype=old.dtype)
            self.cache[:old.shape[0], :old.shape[1]] = old
        rows = self.cache[slots, :need[1]]
        i, col = np.nonzero(rows < 0)
        rows[i, col] = self.cache[slots[i], col] = self._observe(nodes[i], self.acts[col],
                                                                 self.lens[col])
        return rows

    def _expand(self, max_len: int):
        """Carry the representatives on through words of length ``max_len``."""
        if not self.known:  # the empty word's row comes first
            self.known[self._rows(np.ones(1, dtype=np.int64))[0].tobytes()] = 0
        while self.expanded < len(self.reps) and self.rep_len[self.expanded] <= max_len:
            level, length = np.array(self.reps[self.expanded:]), self.rep_len[-1] + 1
            self.expanded = len(self.reps)
            kids = self._child(level[:, None], np.arange(self.m)).ravel()
            for w, row in zip(kids.tolist(), self._rows(kids)):
                self.targets.append(self.known.setdefault(row.tobytes(), len(self.reps)))
                if self.targets[-1] == len(self.reps):  # a new row
                    self.reps.append(w)
                    self.rep_len.append(length)
            self.kids += kids.tolist()

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
            grand = self._child(kids[split][:, None], np.arange(m)).ravel()
            shape = (len(split), m * len(self.suffixes))
            rows = self._rows(grand).reshape(shape)
            bad = np.argwhere(rows != self._rows(kids.reshape(n, m)[targets[split]].ravel())
                              .reshape(shape))
            if len(bad):
                b, k = divmod(int(bad[0][1]), len(self.suffixes))
                self.suffixes.append((b,) + self.suffixes[k])
                self._reset()
                continue
            cover = np.concatenate([reps, kids, grand])
            states = np.concatenate([np.arange(n), targets, delta[targets[split]].ravel()])
            word = self._mismatch(cover, states, tests, lens, delta, self.observed[reps])
            if word is None:
                names = [self.oracle.label_names[label] for label in self.observed[reps]]
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
            v, a = divmod(int(self.code[v]), self.m)
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
            bad = (self.observed[node] != labels[state]) & (lens >= j)
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
        extensions; W is ``suffixes`` plus separating words read off the record of
        splits that refines the model's labels, so it characterizes the model. The
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
        words, wlen = _padded(_separating_words(model, suffixes))
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
