"""The refinement engine against slow references, beyond the 8-state brute-force limit.

``moore_msr`` is the Moore-round loop ``msr`` used before the Hopcroft
engine: each round splits every block by the vector of successor blocks,
until nothing changes. It is quadratic but obviously right, so it serves as
the reference here, next to ``greatest_bisimulation_pairwise``.
"""

import tracemalloc

import pytest

from dtslearn import (
    ArmSpec,
    InputError,
    Partition,
    TransitionSystem,
    are_bisimilar,
    greatest_bisimulation,
    greatest_bisimulation_pairwise,
    make_arm,
    make_line,
    msr,
    partition_from_labels,
    quotient,
)
import dtslearn.coupling as coupling
import dtslearn.partitions as partitions
from dtslearn.acceptance import _random_cover
from dtslearn.coupling import _union_blocks
from dtslearn.core import intern_names
from dtslearn.envs import SplitMix64


def moore_msr(sys, e):
    cur = e.block_of
    actions = range(sys.n_actions)
    for _ in range(sys.n_states + 1):
        sig = [(cur[s],) + tuple(cur[sys.delta[s][a]] for a in actions)
               for s in range(sys.n_states)]
        nxt, _ = intern_names(sig)
        if nxt == cur:
            return Partition.from_block_of(cur)
        cur = nxt
    raise RuntimeError("splitting failed to reach a fixpoint")


def rand_partition(rng, n):
    width = 1 + rng.below(n)
    return Partition.from_block_of([rng.below(width) for _ in range(n)])


def random_system(rng, n, m, label_names=("a", "b", "c")):
    """Any total transition table, not necessarily connected; labels drawn from the names."""
    delta = [[rng.below(n) for _ in range(m)] for _ in range(n)]
    k = 1 + rng.below(len(label_names))
    labels = [label_names[rng.below(k)] for _ in range(n)]
    return TransitionSystem.from_tables(tuple(f"act{a}" for a in range(m)), delta, labels)


def labeled_cover(base, rng, label_names):
    """A random cover of ``base`` whose states carry their image's label, renamed."""
    cover, h = _random_cover(base, rng)
    labels = [label_names[base.labels[h(s)]] for s in range(cover.n_states)]
    return TransitionSystem.from_tables(cover.action_names, cover.delta, labels)


def reversed_states(sys):
    """The same system with states numbered backwards, so label ids come out in another order."""
    last = sys.n_states - 1
    delta = [[last - t for t in sys.delta[last - s]] for s in range(sys.n_states)]
    labels = [sys.label_name_of(last - s) for s in range(sys.n_states)]
    return TransitionSystem.from_tables(sys.action_names, delta, labels)


def three_joint_arm():
    obstacles = frozenset({(1, 2, 3), (4, 0, 2), (2, 2, 2)})
    return make_arm(ArmSpec(3, 5, obstacles, (0, 0, 0)))


class TestMsrAgainstMooreRounds:
    def test_random_systems(self):
        rng = SplitMix64(101)
        for _ in range(60):
            sys = random_system(rng, 9 + rng.below(192), 1 + rng.below(4))
            for e in (partition_from_labels(sys), rand_partition(rng, sys.n_states)):
                assert msr(sys, e) == moore_msr(sys, e)

    def test_random_covers_keep_nontrivial_blocks(self):
        rng = SplitMix64(102)
        for _ in range(30):
            base = random_system(rng, 3 + rng.below(6), 1 + rng.below(4))
            cover = labeled_cover(base, rng, {0: "x", 1: "y", 2: "z"})
            e = partition_from_labels(cover)
            assert msr(cover, e) == moore_msr(cover, e)

    @pytest.mark.parametrize("n", [9, 64, 200])
    def test_lines(self, n):
        line = make_line(n)
        rng = SplitMix64(n)
        for e in (partition_from_labels(line), rand_partition(rng, n), Partition.single_block(n)):
            assert msr(line, e) == moore_msr(line, e)

    def test_three_joint_arm(self):
        arm = three_joint_arm()
        rng = SplitMix64(103)
        for e in [partition_from_labels(arm)] + [rand_partition(rng, arm.n_states)
                                                 for _ in range(5)]:
            assert msr(arm, e) == moore_msr(arm, e)


class TestMultiWaySplits:
    """One splitter, every action: a touched block splits into all its mask pieces."""

    def test_unmarked_rest_leaves_a_block_kept_by_its_marked_piece(self):
        # the splitter {3} marks {0, 1}, the larger piece of {0, 1, 2}, which keeps
        # the block's id; the unmarked rest {2} must still become a block of its own
        sys = TransitionSystem.from_tables(("a", "b"), ((3, 2), (3, 0), (2, 1), (1, 0)))
        e = Partition.from_block_of((0, 0, 0, 1))
        assert msr(sys, e) == moore_msr(sys, e) == Partition.identity(4)

    def test_one_splitter_cuts_a_block_into_four_pieces(self):
        # under {8}: {0, 1} by action a only, {2, 3} by b only, {4, 5} by both,
        # and the unmarked rest {6, 7}
        delta = ((8, 0), (8, 1), (2, 8), (3, 8), (8, 8), (8, 8), (6, 6), (7, 7), (8, 8))
        sys = TransitionSystem.from_tables(("a", "b"), delta)
        e = Partition.from_block_of((0,) * 8 + (1,))
        want = Partition.from_blocks(9, [[0, 1], [2, 3], [4, 5], [6, 7], [8]])
        assert msr(sys, e) == moore_msr(sys, e) == want

    def test_a_queued_block_stays_queued_when_it_splits(self):
        # {1, 4} is queued from the start when the splitter {2} cuts it; {4} keeps its
        # id, and only its turn as a splitter separates 3 from 0
        sys = TransitionSystem.from_tables(("a",), ((0,), (3,), (0,), (4,), (2,)))
        e = Partition.from_block_of((0, 1, 2, 0, 1))
        assert msr(sys, e) == moore_msr(sys, e) == Partition.identity(5)

    def test_small_systems_with_many_actions(self):
        # up to 2^5 masks a block can split into
        rng = SplitMix64(104)
        for _ in range(400):
            sys = random_system(rng, 2 + rng.below(9), 1 + rng.below(5))
            for e in (partition_from_labels(sys), rand_partition(rng, sys.n_states),
                      Partition.single_block(sys.n_states)):
                assert msr(sys, e) == moore_msr(sys, e)

    def test_peak_memory_on_the_27000_state_arm(self):
        # the index holds one int64 code per cell, built by numpy, and a block is a set,
        # or a 1-tuple when it has one state: about 7 MiB; the index as lists of boxed
        # codes took 12.2 MiB, a per-action index with a swap layout 14.29 MiB, and
        # sets for one-state blocks too 16.3
        arm = make_arm(ArmSpec(3, 30, frozenset(), (0, 0, 0)))
        e = partition_from_labels(arm)
        tracemalloc.start()
        try:
            part = msr(arm, e)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert part.is_identity and arm.n_states == 27_000
        assert peak <= 8, peak


class TestIndexBuilds:
    """The numpy-built predecessor index and the list buckets give the same run.

    ``_refine`` is compared raw: block ids as numbered by the splitting and the
    record of splits, both of which follow the order of cells within a target.
    """

    @staticmethod
    def both_paths(monkeypatch, run):
        out = []
        for cells in (0, 1 << 62):  # every system on the array path, then on the lists
            with monkeypatch.context() as patch:
                patch.setattr(partitions, "_ARRAY_INDEX_CELLS", cells)
                out.append(run())
        return out

    def assert_same(self, monkeypatch, sys, e):
        array_run, list_run = self.both_paths(monkeypatch, lambda: partitions._refine(
            sys.n_states, sys.n_actions, iter(sys.delta), e.block_of))
        assert array_run == list_run
        assert Partition.from_block_of(array_run[0]) == moore_msr(sys, e)

    def test_random_systems(self, monkeypatch):
        rng = SplitMix64(301)
        for _ in range(40):
            sys = random_system(rng, 9 + rng.below(120), 1 + rng.below(4))
            for e in (partition_from_labels(sys), rand_partition(rng, sys.n_states)):
                self.assert_same(monkeypatch, sys, e)

    @pytest.mark.parametrize("n", [200, 400, 600])
    def test_lines(self, monkeypatch, n):
        line = make_line(n)
        rng = SplitMix64(n)
        for e in (partition_from_labels(line), rand_partition(rng, n), Partition.single_block(n)):
            self.assert_same(monkeypatch, line, e)

    def test_arms(self, monkeypatch):
        rng = SplitMix64(302)
        for arm in (three_joint_arm(), make_arm(ArmSpec(2, 9, frozenset({(2, 2)}), (0, 0)))):
            for e in (partition_from_labels(arm), rand_partition(rng, arm.n_states)):
                self.assert_same(monkeypatch, arm, e)

    def test_streamed_union_rows(self, monkeypatch):
        runs = []

        def record(*args):
            runs.append(partitions._refine(*args))
            return runs[-1]

        monkeypatch.setattr(coupling, "_refine", record)
        rng = SplitMix64(303)
        pairs = [(three_joint_arm(), three_joint_arm())]
        for _ in range(20):
            m = 1 + rng.below(4)
            pairs.append((random_system(rng, 9 + rng.below(60), m, ("a", "b", "c")),
                          random_system(rng, 9 + rng.below(60), m, ("c", "z", "a"))))
        for env, internal in pairs:
            runs.clear()
            blocks = self.both_paths(monkeypatch, lambda: _union_blocks(env, internal))
            assert runs[0] == runs[1] and blocks[0] == blocks[1] == runs[0][0]


class TestBisimulationAgainstPairwise:
    def test_random_pairs_with_differing_label_names(self):
        rng = SplitMix64(201)
        for _ in range(40):
            m = 1 + rng.below(4)
            env = random_system(rng, 9 + rng.below(40), m, ("a", "b", "c"))
            internal = random_system(rng, 9 + rng.below(40), m, ("c", "z", "a"))
            assert greatest_bisimulation(env, internal) == \
                greatest_bisimulation_pairwise(env, internal)

    def test_covers_against_their_base(self):
        rng = SplitMix64(202)
        for _ in range(30):
            base = random_system(rng, 3 + rng.below(10), 1 + rng.below(4))
            names = {0: "a", 1: "b", 2: "c"}
            env = labeled_cover(base, rng, names)
            # bisimilar to env, with the same names under other label ids
            internal = reversed_states(labeled_cover(base, rng, names))
            relation = greatest_bisimulation(env, internal)
            assert relation == greatest_bisimulation_pairwise(env, internal)
            assert {x for x, _ in relation} == set(range(env.n_states))

    def test_three_joint_arm_against_its_quotient(self):
        arm = three_joint_arm()
        free = make_arm(ArmSpec(3, 4, frozenset(), (0, 0, 0)))
        # without obstacles, state s has the last joint at s % 4: label its parity
        striped = TransitionSystem.from_tables(
            free.action_names, free.delta, ["odd" if s % 2 else "even" for s in range(free.n_states)])
        q, _ = quotient(striped, msr(striped, partition_from_labels(striped)))
        for env, internal in ((striped, q), (q, striped), (arm, arm)):
            assert greatest_bisimulation(env, internal) == \
                greatest_bisimulation_pairwise(env, internal)

    def test_are_bisimilar_is_membership_in_the_relation(self):
        rng = SplitMix64(203)
        names = {0: "a", 1: "b", 2: "c"}
        for k in range(16):
            base = random_system(rng, 3 + rng.below(5), 1 + rng.below(3))
            env = labeled_cover(base, rng, names)
            if k % 2:
                internal = random_system(rng, 9 + rng.below(12), base.n_actions, ("b", "a", "c"))
            else:
                internal = reversed_states(labeled_cover(base, rng, names))
            relation = greatest_bisimulation_pairwise(env, internal)
            for x in range(env.n_states):
                for i in range(internal.n_states):
                    assert are_bisimilar(env, internal, x, i) == ((x, i) in relation)

    def test_are_bisimilar_rejects_states_out_of_range(self):
        line = make_line(4)
        for x0, i0 in ((4, 0), (0, 4), (-1, 0), (0, -1)):
            with pytest.raises(InputError):
                are_bisimilar(line, line, x0, i0)
