import operator
import time
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtslearn import (
    InputError,
    NotConnectedError,
    Partition,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    canonical_form,
    is_homomorphism,
    is_minimally_distinguishing,
    is_strongly_connected,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    msr,
    partition_from_labels,
    quotient,
    star,
)
from dtslearn.envs import ArmSpec, SplitMix64

L, R = 0, 1


def rotate_only(n):
    """Single rotate action on an n-cycle."""
    return TransitionSystem(n, 1, ("rot",), tuple(((i + 1) % n,) for i in range(n)))


def permuted_copy(sys, perm):
    """Relabel states by a permutation; the result is isomorphic by design."""
    inv = [0] * sys.n_states
    for s, t in enumerate(perm):
        inv[t] = s
    delta = tuple(tuple(perm[sys.delta[inv[s]][a]] for a in range(sys.n_actions))
                  for s in range(sys.n_states))
    state_labels = None
    if sys.labels is not None:
        state_labels = [sys.label_names[sys.labels[inv[s]]] for s in range(sys.n_states)]
    initial = None if sys.initial is None else perm[sys.initial]
    return TransitionSystem.from_tables(sys.action_names, delta, state_labels, initial)


class TestValidation:
    def test_delta_must_be_total(self):
        with pytest.raises(InputError):
            TransitionSystem(2, 1, ("a",), ((0,),))

    def test_delta_entries_in_range(self):
        with pytest.raises(InputError):
            TransitionSystem(2, 1, ("a",), ((0,), (2,)))

    def test_action_names_distinct(self):
        with pytest.raises(InputError):
            TransitionSystem(1, 2, ("a", "a"), ((0, 0),))

    def test_initial_in_range(self):
        with pytest.raises(InputError):
            TransitionSystem(1, 1, ("a",), ((0,),), initial=1)

    def test_labels_come_with_names(self):
        with pytest.raises(InputError):
            TransitionSystem(1, 1, ("a",), ((0,),), labels=(0,))

    def test_label_ids_first_occurrence(self):
        # out of order, out of range, negative, and a label name no state uses
        for labels in [(1, 0), (0, 2), (0, -1), (0, 0)]:
            with pytest.raises(InputError):
                TransitionSystem(2, 1, ("a",), ((0,), (1,)),
                                 labels=labels, label_names=("x", "y"))

    def test_from_tables_interns_names(self):
        sys = TransitionSystem.from_tables(("a",), [[1], [0]], ["hot", "cold"])
        assert sys.labels == (0, 1)
        assert sys.label_names == ("hot", "cold")


def reference_delta_error(n, m, delta):
    """A per-cell scan of a delta table: the InputError text for its first bad cell, else None."""
    rows = []
    for row in delta:
        try:
            rows.append(tuple(operator.index(t) for t in row))
        except TypeError:
            return "delta entries must be integers"
    if len(rows) != n:
        return "delta must have one row per state"
    for s, row in enumerate(rows):
        if len(row) != m:
            return f"delta row for state {s} must have one entry per action"
        for a, t in enumerate(row):
            if not 0 <= t < n:
                return f"delta({s},{a})={t} is out of range"
    return None


def reference_map_error(source_size, target_size, entries):
    """A per-cell scan of a state map: the InputError text for its first bad entry, else None."""
    try:
        entries = tuple(operator.index(t) for t in entries)
    except TypeError:
        return "map entries must be integers"
    if len(entries) != source_size:
        return "map must assign a target to every source state"
    for s, t in enumerate(entries):
        if not 0 <= t < target_size:
            return f"map({s})={t} is out of range"
    return None


BAD_CELLS = ["none", "above", "negative", "float", "bool", "numpy", "extra", "missing"]


@st.composite
def bad_cell(draw, values: list, n: int):
    """``values`` with at most one cell made bad, in place; returns the kind."""
    kind = draw(st.sampled_from(BAD_CELLS))
    i = draw(st.integers(0, max(len(values) - 1, 0)))
    if kind == "extra":
        values.insert(i, draw(st.integers(0, n)))
    elif not values:
        return "none"
    elif kind == "missing":
        del values[i]
    elif kind == "above":
        values[i] = n + draw(st.integers(0, 3))
    elif kind == "negative":
        values[i] = -1 - draw(st.integers(0, 3))
    elif kind == "float":
        values[i] = float(values[i])
    elif kind == "bool":
        values[i] = draw(st.booleans())
    elif kind == "numpy":
        values[i] = draw(st.sampled_from([np.int64, np.int32, np.uint8]))(draw(st.integers(0, n + 1)))
    return kind


@st.composite
def tables_with_one_bad_cell(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    delta = [[draw(st.integers(0, n - 1)) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):  # a bad cell: out of range, not an int, or a short or long row
        draw(bad_cell(delta[draw(st.integers(0, n - 1))], n))
    elif draw(st.booleans()):  # a missing or an extra row
        if draw(st.booleans()):
            del delta[draw(st.integers(0, n - 1))]
        else:
            delta.insert(draw(st.integers(0, n)), [0] * m)
    row_type = draw(st.sampled_from([tuple, list]))
    return n, m, draw(st.sampled_from([tuple, list]))(map(row_type, delta))


@st.composite
def maps_with_one_bad_entry(draw):
    source_size, target_size = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = [draw(st.integers(0, max(target_size - 1, 0))) for _ in range(source_size)]
    draw(bad_cell(entries, target_size))
    return source_size, target_size, draw(st.sampled_from([tuple, list]))(entries)


class TestWholeTableChecks:
    """Whole-table scans raise what a per-cell scan would, or accept with plain int ids."""

    @settings(max_examples=500, deadline=None)
    @given(tables_with_one_bad_cell())
    def test_transition_system_matches_a_per_cell_scan(self, case):
        n, m, delta = case
        names = tuple(f"u{a}" for a in range(m))
        expected = reference_delta_error(n, m, delta)
        if expected is not None:
            with pytest.raises(InputError) as info:
                TransitionSystem(n, m, names, delta)
            assert str(info.value) == expected
            return
        sys = TransitionSystem(n, m, names, delta)
        assert sys.delta == tuple(tuple(map(operator.index, row)) for row in delta)
        assert type(sys.delta) is tuple and all(type(row) is tuple for row in sys.delta)
        assert all(type(t) is int for row in sys.delta for t in row)

    @settings(max_examples=500, deadline=None)
    @given(maps_with_one_bad_entry())
    def test_state_map_matches_a_per_cell_scan(self, case):
        source_size, target_size, entries = case
        expected = reference_map_error(source_size, target_size, entries)
        if expected is not None:
            with pytest.raises(InputError) as info:
                StateMap(source_size, target_size, entries)
            assert str(info.value) == expected
            return
        mapping = StateMap(source_size, target_size, entries)
        assert mapping.map == tuple(map(operator.index, entries))
        assert type(mapping.map) is tuple and all(type(t) is int for t in mapping.map)

    @pytest.mark.parametrize("labels, expected", [
        ((0, True), (0, 1)), ((np.int64(0), 1), (0, 1)), ([0, np.uint8(1)], (0, 1)),
        ((0, 1.0), "labels must be integers"), ((0, "1"), "labels must be integers"),
    ])
    def test_labels_match_a_per_cell_scan(self, labels, expected):
        build = lambda: TransitionSystem(2, 1, ("a",), ((0,), (1,)), labels, ("x", "y"))
        if isinstance(expected, str):
            with pytest.raises(InputError, match=expected):
                build()
        else:
            got = build().labels
            assert got == expected and all(type(t) is int for t in got)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_homomorphism_matches_a_per_cell_scan(self, data):
        n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 2))
        cells = lambda size, bound: [[data.draw(st.integers(0, bound - 1)) for _ in range(m)]
                                     for _ in range(size)]
        src, dst = cells(n, n), cells(k, k)
        image = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
        for s in range(n):  # commute at some states, so that both answers occur
            if data.draw(st.booleans()):
                dst[image[s]] = [image[t] for t in src[s]]
        names = tuple(f"u{a}" for a in range(m))
        expected = all(dst[image[s]][a] == image[src[s][a]] for s in range(n) for a in range(m))
        got = is_homomorphism(StateMap(n, k, image), TransitionSystem(n, m, names, src),
                              TransitionSystem(k, m, names, dst))
        assert got is expected

    def test_rows_that_are_not_iterable(self):
        with pytest.raises(InputError, match="delta entries must be integers"):
            TransitionSystem(2, 1, ("a",), ((0,), 1))
        sys = TransitionSystem(2, 1, ("a",), iter([iter([1]), np.array([0])]))
        assert sys.delta == ((1,), (0,))


class TestStar:
    def test_left_edge_absorbs(self):
        assert star(make_line(4), 0, [L]) == 0

    def test_empty_sequence_is_identity(self):
        env = make_line(4)
        for s in range(4):
            assert star(env, s, []) == s

    def test_right_walk_saturates(self):
        # fold delta by hand: 0 -> 1 -> 2 -> 3 -> 3
        assert star(make_line(4), 0, [R, R, R, R]) == 3

    def test_out_of_range_state(self):
        with pytest.raises(InputError):
            star(make_line(4), 4, [])

    def test_out_of_range_action(self):
        with pytest.raises(InputError):
            star(make_line(4), 0, [2])

    def test_monoid_action_on_random_systems(self):
        rng = SplitMix64(7)
        for _ in range(25):
            sys = make_random(2 + rng.below(6), 1 + rng.below(3), rng.next_u64())
            u = [rng.below(sys.n_actions) for _ in range(rng.below(6))]
            v = [rng.below(sys.n_actions) for _ in range(rng.below(6))]
            s = rng.below(sys.n_states)
            assert star(sys, s, u + v) == star(sys, star(sys, s, u), v)


class TestStronglyConnected:
    def test_line_is_strongly_connected(self):
        assert is_strongly_connected(make_line(4))

    def test_two_fixed_states_are_not(self):
        sys = TransitionSystem(2, 2, ("a", "b"), ((0, 0), (1, 1)))
        assert not is_strongly_connected(sys)

    def test_rotation_generates_the_cycle(self):
        assert is_strongly_connected(rotate_only(4))

    def test_one_way_line_is_not(self):
        sys = TransitionSystem(3, 1, ("a",), ((1,), (2,), (2,)))
        assert not is_strongly_connected(sys)

    def test_large_systems_are_linear(self):
        # a closure that rescans every edge per round would take minutes here
        n = 100_000
        line = make_line(n)
        chain = TransitionSystem(n, 1, ("a",), tuple((min(i + 1, n - 1),) for i in range(n)))
        for sys, expected in [(line, True), (chain, False)]:
            start = time.perf_counter()
            assert is_strongly_connected(sys) == expected
            assert time.perf_counter() - start < 5.0


class TestMinimallyDistinguishing:
    def test_line(self):
        ok, witness = is_minimally_distinguishing(make_line(4))
        assert ok and witness is None

    def test_merge_into_third_state_is_flagged(self):
        # states 1 and 2 both map to 0, and 0 is neither of them
        sys = TransitionSystem(3, 1, ("a",), ((0,), (0,), (0,)))
        ok, witness = is_minimally_distinguishing(sys)
        assert not ok
        assert witness == (0, 1, 2, 0)

    def test_group_action_cycles(self):
        for n in (2, 3, 4, 7):
            assert is_minimally_distinguishing(make_cycle(n))[0]

    def test_line_ends_are_the_allowed_merges(self):
        # delta(0,L)=delta(1,L)=0 merges, but 0 is one of the pair
        env = make_line(4)
        assert env.delta[0][L] == env.delta[1][L] == 0
        assert is_minimally_distinguishing(env)[0]


class TestCanonicalForm:
    def test_line_is_already_canonical(self):
        env = make_line(4)
        canon, relabel = canonical_form(env, 0)
        assert canon == env
        assert relabel.map == (0, 1, 2, 3)

    def test_bfs_ordered_system_gets_identity_map(self):
        env = make_line(5)
        _, relabel = canonical_form(env, 0)
        assert relabel.map == tuple(range(5))

    def test_cycle_anchor_invariance(self):
        # rotation symmetry: the table reads the same from any anchor
        env = make_cycle(4, pointed=False)
        from0, _ = canonical_form(env, 0)
        from2, _ = canonical_form(env, 2)
        assert from0.delta == from2.delta
        assert from0.labels == from2.labels

    def test_idempotent(self):
        rng = SplitMix64(3)
        for _ in range(20):
            sys = make_random(2 + rng.below(6), 2, rng.next_u64())
            once, _ = canonical_form(sys, 0)
            twice, _ = canonical_form(once, 0)
            assert once == twice

    def test_unreachable_state_raises(self):
        sys = TransitionSystem(2, 1, ("a",), ((0,), (0,)))
        with pytest.raises(NotConnectedError, match="state 1 is unreachable from anchor 0"):
            canonical_form(sys, 0)
        # 3 and 2 are both unreachable; the error names the smaller
        sys = TransitionSystem(4, 1, ("a",), ((1,), (0,), (1,), (2,)))
        with pytest.raises(NotConnectedError, match="state 2 is unreachable from anchor 1"):
            canonical_form(sys, 1)

    def test_label_ids_reinterned(self):
        # anchoring at 1 makes "white" the first label seen
        env = make_line(3)
        canon, _ = canonical_form(env, 1)
        assert canon.label_names[canon.labels[0]] == "white"


class TestUncheckedResults:
    """``canonical_form`` and ``quotient`` skip the table checks; a checked build must agree."""

    @staticmethod
    def systems():
        yield make_arm(ArmSpec(3, 10, frozenset({(1, 2, 3), (4, 4, 4), (7, 0, 9)}), (0, 0, 0)))
        yield make_arm(ArmSpec(2, 6, frozenset({(1, 1), (4, 4)}), (0, 0)))
        rng = SplitMix64(29)
        for k in range(60):  # labeled and not, pointed and not, with and without an initial state
            n, m = 1 + rng.below(8), 1 + rng.below(3)
            sys_ = make_random(n, m, rng.next_u64(), pointed=k % 3 == 0)
            yield (sys_, sys_.unlabeled(), replace(sys_, initial=None))[k % 3]

    @staticmethod
    def assert_checked(sys_):
        names = None if sys_.labels is None else [sys_.label_names[l] for l in sys_.labels]
        checked = TransitionSystem.from_tables(
            list(sys_.action_names), [list(row) for row in sys_.delta], names, sys_.initial)
        assert sys_ == checked
        assert type(sys_.delta) is tuple and {tuple} == set(map(type, sys_.delta))
        assert {int} == set(map(type, chain(chain.from_iterable(sys_.delta), sys_.labels or ())))

    def test_canonical_forms_equal_their_checked_build(self):
        for sys_ in self.systems():
            for anchor in {0, sys_.n_states - 1}:
                self.assert_checked(canonical_form(sys_, anchor)[0])

    def test_quotients_equal_their_checked_build(self):
        for sys_ in self.systems():
            part = (Partition.single_block(sys_.n_states) if sys_.labels is None
                    else msr(sys_, partition_from_labels(sys_)))
            self.assert_checked(quotient(sys_, part)[0])


class TestIsomorphism:
    def test_system_is_isomorphic_to_itself(self):
        env = make_line(4)
        ok, witness = are_isomorphic(env, env, anchored=True)
        assert ok
        assert witness.map == (0, 1, 2, 3)

    def test_permuted_copy_is_isomorphic(self):
        env = make_line(4)
        other = permuted_copy(env, [2, 0, 3, 1])
        ok, witness = are_isomorphic(env, other, anchored=True)
        assert ok
        assert witness.map == (2, 0, 3, 1)
        assert is_homomorphism(witness, env, other)

    def test_cycle_and_line_differ(self):
        # the line has a self-loop at its ends; the cycle has none
        line = make_line(4).unlabeled()
        cycle = TransitionSystem(4, 2, ("L", "R"),
                                 tuple(((i - 1) % 4, (i + 1) % 4) for i in range(4)))
        ok, _ = are_isomorphic(line, cycle, anchored=False)
        assert not ok

    def test_unanchored_witness_keeps_label_names(self):
        # without anchors every state of b is tried; only the one the click moved to fits
        env = make_random(6, 2, 31, pointed=True)
        perm = [4, 0, 5, 2, 1, 3]
        other = replace(permuted_copy(env, perm), initial=None)
        ok, witness = are_isomorphic(env, other, anchored=False)
        assert ok
        assert witness.map == tuple(perm)
        assert witness.is_surjective() and is_homomorphism(witness, env, other)
        assert all(env.label_name_of(s) == other.label_name_of(witness(s)) for s in range(6))

    def test_alphabet_mismatch_is_an_error(self):
        with pytest.raises(InputError):
            are_isomorphic(make_line(4), make_cycle(4))

    def test_unanchored_needs_strong_connectivity(self):
        sys = TransitionSystem(2, 1, ("a",), ((0,), (0,)))
        with pytest.raises(InputError):
            are_isomorphic(sys, sys, anchored=False)

    def test_labels_compared_by_name(self):
        a = TransitionSystem.from_tables(("u",), [[1], [0]], ["p", "q"], 0)
        b = TransitionSystem.from_tables(("u",), [[1], [0]], ["q", "p"], 0)
        assert not are_isomorphic(a, b, anchored=True)[0]
        # anchoring b at its other state aligns the label names again
        assert are_isomorphic(a, b, anchored=True, anchor_b=1)[0]

    def test_equivalence_relation_on_random_triples(self):
        rng = SplitMix64(11)
        for _ in range(10):
            base = make_random(2 + rng.below(5), 2, rng.next_u64())
            n = base.n_states
            perms = []
            for _ in range(2):
                perm = list(range(n))
                for i in range(n - 1, 0, -1):  # seeded Fisher-Yates
                    j = rng.below(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                perms.append(perm)
            b = permuted_copy(base, perms[0])
            c = permuted_copy(base, perms[1])
            assert are_isomorphic(base, base, anchored=True)[0]   # reflexive
            ok_ab, m_ab = are_isomorphic(base, b, anchored=True)
            ok_ba, _ = are_isomorphic(b, base, anchored=True)
            assert ok_ab and ok_ba                                # symmetric
            ok_bc, _ = are_isomorphic(b, c, anchored=True)
            ok_ac, _ = are_isomorphic(base, c, anchored=True)
            assert ok_bc and ok_ac                                # transitive


class TestHomomorphism:
    def test_identity_map(self):
        env = make_line(4)
        assert is_homomorphism(StateMap(4, 4, (0, 1, 2, 3)), env, env)

    def test_constant_map_onto_moving_state_fails(self):
        env = make_line(4)
        # state 1 moves under both actions, so a constant map cannot commute
        constant = StateMap(4, 4, (1, 1, 1, 1))
        assert not is_homomorphism(constant, env, env)

    def test_size_mismatch_is_an_error(self):
        env = make_line(4)
        with pytest.raises(InputError):
            is_homomorphism(StateMap(3, 3, (0, 1, 2)), env, env)

    def test_alphabet_mismatch_is_an_error(self):
        with pytest.raises(InputError):
            is_homomorphism(StateMap(4, 4, (0, 1, 2, 3)), make_line(4), make_cycle(4))
