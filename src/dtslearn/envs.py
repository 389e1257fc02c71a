"""Environment generators: lines, cycles, jointed arms, seeded random systems.

All generators are deterministic: the same arguments (and seed) produce a
bit-identical system. The random generator draws from a splitmix64 stream
so seeds reproduce across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    DtsError,
    InputError,
    NotConnectedError,
    TransitionSystem,
    _bfs_order,
    _ids,
    _index,
    _strongly_connected,
)

MAX_STATES = 100_000
MAX_ACTIONS = 1_000  # actions make_random may build
_MAX_ATTEMPTS = 1_000_000  # candidates make_random may draw
_MAX_OUTPUTS = 1 << 25  # stream outputs they may take, n·m each; next_u64s gives no more
# stream outputs drawn per candidate batch of make_random (one candidate may exceed
# it). The first batch is 1/32 of it: without require_min_dist a small table is
# usually accepted among its first few candidates, so a full batch would go unused.
# With it, 1/4: a 6-state 2-action table wins at candidate 143 in the median.
_BATCH_DRAWS = 1 << 13

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_U64, _MUL1_U64, _MUL2_U64 = map(np.uint64, (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


class GenerationError(DtsError):
    """Random generation exhausted its rejection budget."""


class SplitMix64:
    """The splitmix64 generator; pure 64-bit arithmetic, no platform drift.

    The stream is counter-based: the k-th output after ``state`` is
    ``mix(state + k·γ)``, so a block of outputs is one array expression.
    """

    def __init__(self, seed: int):
        self.state = _index(seed, "the seed") & _MASK

    def next_u64(self) -> int:
        """The next output; a draw below 2^64 is the output itself."""
        return self.below(1 << 64)

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a ``uint64`` array, as ``next_u64`` would give them."""
        count = _index(count, "the count")
        if not 0 <= count <= _MAX_OUTPUTS:
            raise InputError(f"next_u64s() needs a count in 0..{_MAX_OUTPUTS}, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)  # mixed in place
        z *= _GAMMA_U64
        z += np.uint64(self.state)
        z ^= z >> 30
        z *= _MUL1_U64
        z ^= z >> 27
        z *= _MUL2_U64
        z ^= z >> 31
        self.state = (self.state + count * _GAMMA) & _MASK
        return z

    def below(self, n: int) -> int:
        """Draw from 0..n-1 by reduction of one 64-bit output."""
        if type(n) is not int:
            n = _index(n, "the bound")
        if n < 1:
            raise InputError("below() needs a positive bound")
        # splitmix64's output function, written out: the library's most frequent scalar call
        self.state = z = (self.state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % n


def make_line(n: int) -> TransitionSystem:
    """A line of ``n`` states with saturating left/right moves.

    The left end carries the only distinguished sensor value; both ends
    absorb the move pointing off the line.
    """
    n = _index(n, "the state count")
    if n < 2:
        raise InputError("a line needs at least 2 states")
    if n > MAX_STATES:
        raise InputError(f"refusing to build more than {MAX_STATES} states")
    delta = [[max(i - 1, 0), min(i + 1, n - 1)] for i in range(n)]
    labels = ["green"] + ["white"] * (n - 1)
    return TransitionSystem.from_tables(("L", "R"), delta, labels, initial=0)


def make_cycle(n: int, pointed: bool = True) -> TransitionSystem:
    """A rotation cycle of ``n`` states; state 0 clicks when ``pointed``."""
    n = _index(n, "the state count")
    if n < 2:
        raise InputError("a cycle needs at least 2 states")
    if n > MAX_STATES:
        raise InputError(f"refusing to build more than {MAX_STATES} states")
    delta = [[(i + 1) % n, (i - 1) % n] for i in range(n)]
    if pointed:
        labels = ["click"] + ["blank"] * (n - 1)
    else:
        labels = ["blank"] * n
    return TransitionSystem.from_tables(("CW", "CCW"), delta, labels, initial=0)


@dataclass(frozen=True)
class ArmSpec:
    """A jointed arm on a discrete torus with forbidden configurations.

    Each joint takes ``resolution`` positions; a configuration is a tuple of
    joint positions. Obstacles are forbidden configurations: a move into one
    leaves the state unchanged. The click configuration is the only one with
    sensor feedback.
    """

    joints: int
    resolution: int
    obstacles: frozenset[tuple[int, ...]]
    click: tuple[int, ...]

    def __post_init__(self):
        for name in ("joints", "resolution"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        object.__setattr__(self, "obstacles",
                           frozenset(_ids(o, "joint positions") for o in self.obstacles))
        object.__setattr__(self, "click", _ids(self.click, "joint positions"))
        if self.joints < 1:
            raise InputError("an arm needs at least one joint")
        if self.resolution < 3:
            raise InputError("each joint needs at least 3 positions")
        for conf in list(self.obstacles) + [self.click]:
            if len(conf) != self.joints:
                raise InputError(f"configuration {conf} has the wrong number of joints")
            if any(not 0 <= c < self.resolution for c in conf):
                raise InputError(f"configuration {conf} is out of range")
        if self.click in self.obstacles:
            raise InputError("the click configuration is an obstacle")


def make_arm(spec: ArmSpec) -> TransitionSystem:
    """Build the arm's configuration system; actions turn one joint by one.

    States are the obstacle-free configurations in lexicographic order;
    actions come joint-major, the forward turn before the backward one. The
    free space must be strongly connected, which is validated, not assumed.
    """
    if spec.resolution ** spec.joints > 4 * MAX_STATES:
        raise InputError(f"refusing to build more than {MAX_STATES} states")
    free = [conf for conf in product(range(spec.resolution), repeat=spec.joints)
            if conf not in spec.obstacles]
    if len(free) > MAX_STATES:
        raise InputError(f"refusing to build more than {MAX_STATES} states")
    index = {conf: i for i, conf in enumerate(free)}
    moves = [(j, step) for j in range(spec.joints) for step in (1, -1)]
    action_names = [f"j{j}{'+' if step > 0 else '-'}" for j, step in moves]
    delta = []
    for conf in free:
        row = []
        for j, step in moves:
            target = list(conf)
            target[j] = (target[j] + step) % spec.resolution
            row.append(index.get(tuple(target), index[conf]))
        delta.append(row)
    labels = ["click" if conf == spec.click else "blank" for conf in free]
    sys = TransitionSystem.from_tables(action_names, delta, labels,
                                       initial=index[spec.click])
    # the free space may be split by obstacles; the click cell anchors the check
    reached = _bfs_order(sys.delta, sys.initial)
    if len(reached) != sys.n_states:
        stranded = free[min(set(range(sys.n_states)).difference(reached))]
        raise NotConnectedError(
            f"free space is disconnected: {spec.click} cannot reach {stranded}")
    return sys


def _minimally_distinguishing(cand: np.ndarray) -> np.ndarray:
    """Which of the ``(K, n, m)`` tables map no two states other than t onto t by one action."""
    k, n, m = cand.shape
    # one bin per (candidate, action, target), filled by the sources s != target
    keys = (np.arange(k)[:, None, None] * m + np.arange(m)) * n + cand
    counts = np.bincount(keys[cand != np.arange(n)[:, None]], minlength=k * m * n)
    return (counts.reshape(k, m * n) < 2).all(axis=1)


def _moves_in_and_out(cand: np.ndarray) -> np.ndarray:
    """Which of the ``(K, n, m)`` tables give every state an edge to, and one from, another state.

    Every strongly connected table passes: this only rejects early, ``core`` decides.
    """
    k, n, m = cand.shape
    if n == 1:
        return np.ones(k, dtype=bool)
    moving = cand != np.arange(n)[:, None]
    entered = np.bincount((cand + (np.arange(k) * n)[:, None, None])[moving],
                          minlength=k * n).reshape(k, n)
    return moving.any(axis=2).all(axis=1) & (entered > 0).all(axis=1)


def _one_cycle(cand: np.ndarray) -> np.ndarray:
    """Which ``(K, n)`` one-action tables are one n-cycle: state 0 first returns at step n."""
    flat, base = cand.ravel(), np.arange(0, cand.size, cand.shape[1])
    cur, alive = flat[base], np.ones(len(cand), dtype=bool)
    for _ in range(cand.shape[1] - 1):
        alive &= cur != 0
        cur = flat[base + cur]
    return alive & (cur == 0)


def make_random(n: int, m: int, seed: int,
                require_min_dist: bool = False,
                pointed: bool = False) -> TransitionSystem:
    """Seeded random strongly connected system on ``n`` states, ``m`` actions.

    Candidate ``k`` (from 0) is the transition table filled row by row, state
    by state and action by action, from stream outputs ``k·n·m + 1 ..
    (k+1)·n·m`` of ``SplitMix64(seed)``, each reduced mod ``n``. The first
    candidate that is strongly connected (and minimally distinguishing when
    requested) is the table; ``GenerationError`` is raised when none of the
    first ``_MAX_ATTEMPTS`` is, or of those within the first ``_MAX_OUTPUTS``
    stream outputs, so the time to give up does not grow with the table.
    ``n`` is at most ``MAX_STATES`` and ``m`` at most ``MAX_ACTIONS``; larger
    values raise ``InputError`` before anything is built or drawn.
    Candidates are drawn in numpy batches (the first of about ``_BATCH_DRAWS
    / 32`` stream outputs, ``/ 4`` with ``require_min_dist``, then four times
    as many, up to ``_BATCH_DRAWS``) and tested in order by ``core``'s search,
    after numpy filters for minimal distinction and, from the second batch on,
    a state with no edge to or from another (with one action and under 30
    states, every batch, for an n-cycle). Batch sizes do not change the result.
    The stream is left just past the chosen candidate, as a one-at-a-time loop
    would leave it. Labels: a pointed system gives state 0 the only "click";
    otherwise the next ``n`` outputs give each state one of two values, by parity.
    """
    n = _index(n, "the state count")
    m = _index(m, "the action count")
    if n < 1 or m < 1:
        raise InputError("need at least one state and one action")
    if n > MAX_STATES:
        raise InputError(f"refusing to build more than {MAX_STATES} states")
    if m > MAX_ACTIONS:
        raise InputError(f"refusing to build more than {MAX_ACTIONS} actions")
    rng = SplitMix64(seed)
    action_names = tuple(f"u{a}" for a in range(m))
    cells = n * m
    budget = min(_MAX_ATTEMPTS, _MAX_OUTPUTS // cells)
    tried = 0
    batch = max(1, (_BATCH_DRAWS >> (2 if require_min_dist else 5)) // cells)
    while tried < budget:
        k = min(batch, budget - tried)
        start = rng.state
        cand = (rng.next_u64s(k * cells) % np.uint64(n)).astype(np.intp).reshape(k, n, m)
        keep = np.arange(k)
        if require_min_dist:
            keep = keep[_minimally_distinguishing(cand)]
        if m == 1 and n < 30:  # n numpy steps decide a batch; from 30 on the precheck costs less
            keep = keep[_one_cycle(cand[keep, :, 0])]
        elif tried:  # a small table's first batch is searched: it usually holds a winner
            keep = keep[_moves_in_and_out(cand[keep])]
        found = next(((i, rows) for i in keep.tolist()
                      if _strongly_connected(rows := cand[i].tolist())), None)
        if found is not None:
            won, delta = found
            rng.state = (start + (won + 1) * cells * _GAMMA) & _MASK
            del cand  # a large table's array is freed before the system is built from its rows
            break
        tried += k
        batch = min(4 * batch, max(1, _BATCH_DRAWS // cells))
    else:
        raise GenerationError(
            f"no admissible system found in {budget} candidates of {cells} stream outputs "
            f"each (n={n}, m={m})")
    if pointed:
        state_labels = ["click"] + ["blank"] * (n - 1)
    else:
        names = ("a", "b")
        state_labels = [names[rng.below(2)] for _ in range(n)]
    return TransitionSystem._trusted(action_names, tuple(map(tuple, delta)), state_labels, 0)
