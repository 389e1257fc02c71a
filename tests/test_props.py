"""Algebraic laws under randomized inputs."""

from hypothesis import given, settings, strategies as st

from dtslearn import (
    Partition,
    StateMap,
    TransitionSystem,
    generated_closure,
    is_refinement,
    join_partitions,
    msr,
    parse_dts,
    pullback,
    pushforward,
    star,
    write_dts,
)


@st.composite
def systems(draw, max_states=6, max_actions=3, labeled=False):
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_actions))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(m))
                  for _ in range(n))
    state_labels = None
    if labeled:
        state_labels = [draw(st.sampled_from("pq")) for _ in range(n)]
    return TransitionSystem.from_tables(
        tuple(f"u{a}" for a in range(m)), delta, state_labels,
        initial=draw(st.integers(0, n - 1)))


@st.composite
def partitions(draw, n):
    return Partition.from_block_of([draw(st.integers(0, n - 1)) for _ in range(n)])


@st.composite
def system_with_partitions(draw, k=1):
    sys = draw(systems())
    parts = [draw(partitions(sys.n_states)) for _ in range(k)]
    return (sys, *parts)


@given(st.lists(st.one_of(st.integers(-3, 3), st.text("ab", max_size=2)), min_size=1),
       system_with_partitions())
def test_unchecked_results_pass_the_checks(raw, data):
    sys, e = data
    n = sys.n_states
    for part in (Partition.from_block_of(raw), Partition.identity(n),
                 Partition.single_block(n), msr(sys, e)):
        rebuilt = Partition(part.n_states, part.n_blocks, part.block_of)
        assert part == rebuilt
        assert hash(part) == hash(rebuilt)


@given(system_with_partitions())
def test_msr_is_idempotent(data):
    sys, e = data
    stable = msr(sys, e)
    assert msr(sys, stable) == stable


@given(system_with_partitions())
def test_msr_refines_its_argument(data):
    sys, e = data
    assert is_refinement(msr(sys, e), e)


@given(systems(), st.data())
def test_star_is_a_monoid_action(sys, data):
    actions = st.lists(st.integers(0, sys.n_actions - 1), max_size=8)
    u = data.draw(actions)
    v = data.draw(actions)
    s = data.draw(st.integers(0, sys.n_states - 1))
    assert star(sys, s, u + v) == star(sys, star(sys, s, u), v)


@given(st.integers(1, 8), st.data())
def test_closure_contains_its_generators(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    part = generated_closure(n, pairs)
    assert all(part.together(s, t) for s, t in pairs)


@given(st.integers(1, 8), st.data())
def test_closure_of_block_chains_recovers_the_partition(n, data):
    part = data.draw(partitions(n))
    chains = [pair for block in part.blocks() for pair in zip(block, block[1:])]
    assert generated_closure(n, chains) == part


@given(st.integers(1, 8), st.data())
def test_join_is_order_insensitive(n, data):
    a = data.draw(partitions(n))
    b = data.draw(partitions(n))
    assert join_partitions(n, [a, b]) == join_partitions(n, [b, a])


@given(st.integers(1, 8), st.data())
def test_join_is_the_closure_of_each_block_chain(n, data):
    parts = data.draw(st.lists(partitions(n), max_size=4))
    chains = [pair for part in parts for block in part.blocks() for pair in zip(block, block[1:])]
    assert join_partitions(n, parts) == generated_closure(n, chains)


@given(st.integers(1, 8), st.data())
def test_refinement_is_a_partial_order(n, data):
    a = data.draw(partitions(n))
    b = data.draw(partitions(n))
    assert is_refinement(a, a)
    if is_refinement(a, b) and is_refinement(b, a):
        assert a == b
    c = data.draw(partitions(n))
    if is_refinement(a, b) and is_refinement(b, c):
        assert is_refinement(a, c)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_pushforward_inverts_pullback_along_surjections(n1, extra, data):
    n0 = n1 + extra
    table = list(range(n1)) + [data.draw(st.integers(0, n1 - 1))
                               for _ in range(n0 - n1)]
    m = StateMap(n0, n1, tuple(table))
    e1 = data.draw(partitions(n1))
    assert pushforward(m, pullback(m, e1)) == e1


@settings(max_examples=60)
@given(systems(labeled=True))
def test_text_round_trip(sys):
    assert parse_dts(write_dts(sys)) == sys


@given(systems())
def test_canonical_form_is_stable_under_itself(sys):
    from dtslearn import NotConnectedError, canonical_form

    try:
        once, _ = canonical_form(sys, 0)
    except NotConnectedError:
        return
    twice, _ = canonical_form(once, 0)
    assert once == twice
