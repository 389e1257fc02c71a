import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dtslearn import (
    Partition,
    ParseError,
    TransitionSystem,
    explore,
    bounded_indistinguishability,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    parse_dts,
    parse_obstacles,
    parse_partition,
    to_dot,
    trie_to_dot,
    write_dts,
    write_partition,
)
from dtslearn import fileio
from dtslearn.envs import ArmSpec, SplitMix64
from dtslearn.fileio import _LINE_BREAK, _content_lines, _numbered_lines, _parse_count, _transition

LINE4_TEXT = """\
dts
states 4
actions L R
labels green white white white
init 0
trans 0 L 0
trans 0 R 1
trans 1 L 0
trans 1 R 2
trans 2 L 1
trans 2 R 3
trans 3 L 2
trans 3 R 3
"""


class TestParseDts:
    def test_line_file(self):
        assert parse_dts(LINE4_TEXT) == make_line(4)

    def test_minimal_file(self):
        sys = parse_dts("dts\nstates 1\nactions a\ntrans 0 a 0\n")
        assert sys.n_states == 1 and sys.labels is None and sys.initial is None

    def test_comments_and_blank_lines(self):
        noisy = "# header comment\n\ndts  # trailing\n" + LINE4_TEXT[4:]
        assert parse_dts(noisy) == make_line(4)

    def test_missing_transition_names_the_pair(self):
        clipped = "\n".join(LINE4_TEXT.splitlines()[:-1]) + "\n"
        with pytest.raises(ParseError, match="state 3, action 'R'"):
            parse_dts(clipped)

    def test_duplicate_transition(self):
        doubled = LINE4_TEXT + "trans 3 R 3\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_dts(doubled)

    def test_unknown_action_token(self):
        with pytest.raises(ParseError, match="unknown action"):
            parse_dts(LINE4_TEXT.replace("trans 0 L 0", "trans 0 X 0"))

    def test_state_index_overflow(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dts(LINE4_TEXT.replace("trans 0 L 0", "trans 0 L 9"))

    def test_huge_header_fails_before_allocating(self):
        # a complete system needs one line per transition, so a four-line text
        # cannot hold 2 x 10^6 of them: the header alone is rejected. (10^6, not
        # the 10^9 the format allows, so that a parser that builds the table
        # first fails this test on its message instead of exhausting memory.)
        with pytest.raises(ParseError, match="line 2: more transitions"):
            parse_dts("dts\nstates 1000000\nactions a b\ntrans 0 a 0\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_dts(LINE4_TEXT + "loop 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_dts("states 1\nactions a\ntrans 0 a 0\n")

    def test_error_carries_line_number(self):
        try:
            parse_dts(LINE4_TEXT.replace("trans 1 R 2", "trans 1 R 7"))
        except ParseError as exc:
            assert exc.line_no == 9
        else:
            raise AssertionError("expected a parse error")


PINNED_HEAD = "dts\nstates 3\nactions L R\nlabels a b b\ninit 0\n"
PINNED_BODY = ["trans 0 L 0", "trans 0 R 1", "trans 1 L 0",
               "trans 1 R 2", "trans 2 L 1", "trans 2 R 2"]
PINNED_NOISE = ["", "# a comment", "   ", "  # indented comment"]

# name: (bad line or None, where the noise and the bad line go among the
# transitions, transition dropped or None, the first ParseError's text).
# Recorded from the parser that checked each token with _parse_count.
PINNED_ERRORS = {
    "unknown directive": ("loop 0", 2, None, "line 12: unknown directive 'loop'"),
    "unknown directive first": ("loop 0", 0, None, "line 10: unknown directive 'loop'"),
    "arity short": ("trans 0 L", 3, None, "line 13: expected 'trans S ACT T'"),
    "arity long": ("trans 0 L 0 1", 3, None, "line 13: expected 'trans S ACT T'"),
    "arity long commented": ("trans 0 L 0 1 # x", 3, None, "line 13: expected 'trans S ACT T'"),
    "non-integer source": ("trans x L 0", 3, None,
                           "line 13: source state must be an integer, got 'x'"),
    "non-integer target": ("trans 0 L 1.0", 3, None,
                           "line 13: target state must be an integer, got '1.0'"),
    "negative source": ("trans -1 L 0", 3, None, "line 13: source state -1 is out of range"),
    "beyond format bound": ("trans 0 L 1000000001", 3, None,
                            "line 13: target state 1000000001 is out of range"),
    "out of range target": ("trans 0 L 3", 3, None,
                            "line 13: state index out of range in 'trans 0 L 3'"),
    "out of range source": ("trans 3 L 0", 3, None,
                            "line 13: state index out of range in 'trans 3 L 0'"),
    "unknown action": ("trans 0 X 0", 3, None, "line 13: unknown action 'X'"),
    "duplicate": ("trans 0 L 2", 4, None,
                  "line 14: duplicate transition for state 0, action 'L'"),
    "duplicate commented": ("trans 0 L 2 # again", 4, None,
                            "line 14: duplicate transition for state 0, action 'L'"),
    "missing": (None, 2, 5, "line 14: missing transition for state 2, action 'R'"),
    "missing, trailing noise": (None, 5, 2,
                                "line 10: missing transition for state 1, action 'L'"),
}


class TestPinnedParseErrors:
    """The first error of each kind: its line number and full text, after blank and comment lines."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("name", list(PINNED_ERRORS))
    def test_first_error(self, name, eol):
        bad, at, drop, expected = PINNED_ERRORS[name]
        body = [line for i, line in enumerate(PINNED_BODY) if i != drop]
        body[at:at] = PINNED_NOISE + ([] if bad is None else [bad])
        text = (PINNED_HEAD + "\n".join(body) + "\n").replace("\n", eol)
        with pytest.raises(ParseError) as info:
            parse_dts(text)
        assert str(info.value) == expected
        assert info.value.line_no == int(expected.split(":")[0].split()[1])

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_noisy_valid_text_parses(self, eol):
        body = list(PINNED_BODY)
        body[3:3] = PINNED_NOISE
        body[0] += "  # trailing comment"
        text = (PINNED_HEAD + "\n".join(body) + "\n").replace("\n", eol)
        expected = TransitionSystem.from_tables(
            ("L", "R"), [[0, 1], [0, 2], [1, 2]], ["a", "b", "b"], 0)
        assert parse_dts(text) == expected


class TestRoundTrip:
    def test_line_text_is_canonical(self):
        assert write_dts(make_line(4)) == LINE4_TEXT

    def test_random_systems_round_trip(self):
        rng = SplitMix64(41)
        for _ in range(100):
            sys = make_random(1 + rng.below(8), 1 + rng.below(3), rng.next_u64(),
                              pointed=bool(rng.below(2)))
            assert parse_dts(write_dts(sys)) == sys

    def test_unlabeled_unrooted_round_trip(self):
        sys = make_cycle(5).unlabeled()
        assert parse_dts(write_dts(sys)) == sys

    def test_arm_round_trips(self):
        arm = make_arm(ArmSpec(2, 4, frozenset({(1, 1)}), (0, 0)))
        assert parse_dts(write_dts(arm)) == arm

    def test_distinct_labels_build_and_parse_in_linear_time(self):
        # one distinct label per state: label validation must stay linear in the state count
        n = 100_000
        start = time.perf_counter()
        delta = [[(i + 1) % n, (i - 1) % n] for i in range(n)]
        sys = TransitionSystem.from_tables(("CW", "CCW"), delta, [f"s{i}" for i in range(n)], 0)
        assert parse_dts(write_dts(sys)) == sys
        assert sys.n_labels == n
        assert time.perf_counter() - start < 5.0


class TestLazyLines:
    # every line boundary str.splitlines knows, pairs of them, and characters that are not one
    _PIECES = ["a", "b c", "#", "", "\n", "\r", "\r\n", "\n\r", "\v", "\f", "\x1c", "\x1d",
               "\x1e", "\x85", "\u2028", "\u2029", "\t", "\x1f", "\u2027", "\x0e"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
    def test_the_lines_of_splitlines(self, text):
        assert list(_numbered_lines(text)) == list(enumerate(text.splitlines(), start=1))

    def test_long_texts_are_cut_where_a_line_ends(self):
        # pieces of about 64 KiB: a cut may fall inside a "\r\n" pair, or find no break
        rng = SplitMix64(3)
        for shift in (-2, -1, 0, 1):
            for brk in ("\n", "\r", "\r\n", "\u2028"):
                text = "x" * ((1 << 16) + shift) + brk + "y" * 5 + "\r\n" * rng.below(3)
                assert list(_numbered_lines(text)) == list(enumerate(text.splitlines(), start=1))
        text = "".join(self._PIECES[rng.below(len(self._PIECES))] for _ in range(100_000))
        assert list(_numbered_lines(text)) == list(enumerate(text.splitlines(), start=1))

    def test_peak_memory_of_a_large_parse(self):
        # the 26,970-state arm, 3.4 MiB of text: the parse held every line at once and
        # peaked at 19.3 MiB; a piece at a time it reads about 10 MiB, the result included
        rng = SplitMix64(5)
        obstacles = set()
        while len(obstacles) < 30:
            cell = tuple(rng.below(30) for _ in range(3))
            if cell != (0, 0, 0):
                obstacles.add(cell)
        arm = make_arm(ArmSpec(3, 30, frozenset(obstacles), (0, 0, 0)))
        text = write_dts(arm)
        tracemalloc.start()
        try:
            parsed = parse_dts(text)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert parsed == arm and arm.n_states == 26_970
        assert peak <= 11, peak

    def test_peak_memory_of_a_large_line_by_line_parse(self):
        # a comment on every line keeps each piece off the bulk path. Built from one
        # list of every cell, with an int object per cell, the result peaked at about
        # 10 MiB; cut 4,096 rows at a time, with one int per state, about 7 MiB
        arm = _large_arm()
        text = write_dts(arm).replace("\n", " # c\n")
        tracemalloc.start()
        try:
            parsed = parse_dts(text)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert parsed == arm
        assert peak <= 8, peak


def _large_arm():
    """``TestLazyLines``' 26,970-state arm."""
    rng = SplitMix64(5)
    obstacles = set()
    while len(obstacles) < 30:
        cell = tuple(rng.below(30) for _ in range(3))
        if cell != (0, 0, 0):
            obstacles.add(cell)
    return make_arm(ArmSpec(3, 30, frozenset(obstacles), (0, 0, 0)))


def reference_parse_dts(text: str) -> TransitionSystem:
    """The line-by-line parse, kept as the oracle for the bulk path: one line at a time
    from ``splitlines``, into a list, then the checked build of ``from_tables``."""
    lines = _content_lines(enumerate(text.splitlines(), start=1))

    def next_line(expect: str):
        for line_no, tokens in lines:
            return line_no, tokens
        raise ParseError(0, f"unexpected end of input, expected {expect}")

    line_no, tokens = next_line("'dts' header")
    if tokens != ["dts"]:
        raise ParseError(line_no, f"expected 'dts' header, got {' '.join(tokens)!r}")
    states_line, tokens = next_line("'states N'")
    if len(tokens) != 2 or tokens[0] != "states":
        raise ParseError(states_line, "expected 'states N'")
    n_states = _parse_count(tokens[1], states_line, "state count")
    if n_states < 1:
        raise ParseError(states_line, "need at least one state")
    line_no, tokens = next_line("'actions ...'")
    if len(tokens) < 2 or tokens[0] != "actions":
        raise ParseError(line_no, "expected 'actions' followed by action names")
    action_names = tokens[1:]
    if len(set(action_names)) != len(action_names):
        raise ParseError(line_no, "action names must be distinct")
    need = n_states * len(action_names)
    if need > text.count("\n") + text.count("\r") + 1 and need > len(_LINE_BREAK.findall(text)) + 1:
        raise ParseError(states_line, "more transitions are needed than the input has lines")
    line_no, tokens = next_line("'labels', 'init' or 'trans'")
    state_labels = None
    if tokens[0] == "labels":
        if len(tokens) != n_states + 1:
            raise ParseError(line_no, f"expected one label per state ({n_states})")
        state_labels = tokens[1:]
        line_no, tokens = next_line("'init' or 'trans'")
    initial = None
    if tokens[0] == "init":
        if len(tokens) != 2:
            raise ParseError(line_no, "expected 'init K'")
        initial = _parse_count(tokens[1], line_no, "initial state")
        if initial >= n_states:
            raise ParseError(line_no, f"initial state {initial} is out of range")
        line_no, tokens = next_line("'trans'")
    action_index = {name: a for a, name in enumerate(action_names)}
    n_actions = len(action_names)
    table = [None] * (n_states * n_actions)
    for line_no, tokens in [(line_no, tokens), *lines]:
        s, a, t = _transition(tokens, line_no, n_states, action_index)
        if table[s * n_actions + a] is not None:
            raise ParseError(line_no, f"duplicate transition for state {s}, "
                                      f"action {action_names[a]!r}")
        table[s * n_actions + a] = t
        last = line_no
    if None in table:
        s, a = divmod(table.index(None), n_actions)
        raise ParseError(last, f"missing transition for state {s}, action {action_names[a]!r}")
    rows = [table[s * n_actions:(s + 1) * n_actions] for s in range(n_states)]
    return TransitionSystem.from_tables(action_names, rows, state_labels, initial)


def _outcome(parse, text):
    """The parsed system, or the first error's text and line number."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no


def _named(n: int, names) -> TransitionSystem:
    """An unlabeled ``n``-state system over ``names``: action ``a`` maps ``s`` to ``(s*(a+2) + 1) % n``."""
    return TransitionSystem.from_tables(
        names, [[(s * (a + 2) + 1) % n for a in range(len(names))] for s in range(n)])


# systems whose text is three or more pieces of about 64 KiB: the first holds the header
# and is read line by line, the rest go through the bulk path unless an edit stops them
_MULTI_PIECE = {
    "line5000": lambda: make_line(5000),
    "arm1720": lambda: make_arm(ArmSpec(3, 12, frozenset({(1, 2, 3), (4, 5, 6)}), (0, 0, 0))),
    "metacharacters": lambda: _named(4000, ("a+", "(", ".")),
    "prefixes": lambda: _named(5000, ("L", "LL")),
    # names of more than 8 bytes: two alike in their first 8, and one of exactly 24
    "long names": lambda: _named(2000, ("exactly_twenty_four_byte", "rotate_left_arm",
                                        "rotate_left_leg")),
    # a name that is the other padded with a NUL: no plain line can hold it
    "nul suffix": lambda: _named(4000, ("a", "a\x00")),
}


def _edit_line(edit: str, line: str, n: int, first: str) -> list[str]:
    """The lines that take the place of transition line ``line`` under ``edit``."""
    _, s, name, t = line.split()
    return {
        "duplicate of an earlier piece": [line, first],
        "duplicate in the piece, other target": [line, f"trans {s} {name} {(int(t) + 1) % n}\n"],
        "duplicate in the piece, same target": [line, line],
        "source out of range": [f"trans {n} {name} {t}\n"],
        "target out of range": [f"trans {s} {name} {n}\n"],
        "plus signs": [f"trans +{s} {name} +{t}\n"],
        "leading zeros": [f"trans 0{s} {name} 000{t}\n"],
        "ten digits": [f"trans {int(s):010d} {name} {t}\n"],
        "unknown action": [f"trans {s} {name}~ {t}\n"],
        "comment line": ["# a comment\n", line],
        "trailing comment": [line[:-1] + "  # again\n"],
        "blank lines": ["\n", "   \n", line],
        "tabs": [line.replace(" ", "\t")],
        "crlf": [line[:-1] + "\r\n"],
        "x1c break": [line[:-1] + "\x1c"],
        "x1f space": [line.replace(" ", "\x1f", 1)],  # whitespace to str.split, not a break
        "nul in the action": [f"trans {s} {name}\x00 {t}\n"],
        "non-ascii action": [f"trans {s} {name}\u00e9 {t}\n"],
        "non-ascii digits": [f"trans {s} {name} {''.join(chr(0x660 + int(d)) for d in t)}\n"],
        "double space": [line.replace(" ", "  ", 1)],
        "transx": ["transx" + line[5:]],
        "nine digits": [f"trans {int(s):09d} {name} {int(t):09d}\n"],
        "nul for a space": [line.replace(" ", "\x00", 1)],
        "capital t": ["T" + line[1:]],
        "last byte of the action": [f"trans {s} {name[:-1]}{chr(ord(name[-1]) ^ 1)} {t}\n"],
        "colon target": [f"trans {s} {name} :\n"],
    }[edit]


_LINE_EDITS = ["duplicate of an earlier piece", "duplicate in the piece, other target",
               "duplicate in the piece, same target", "source out of range",
               "target out of range", "plus signs", "leading zeros", "ten digits",
               "unknown action", "comment line", "trailing comment", "blank lines", "tabs",
               "crlf", "x1c break", "x1f space", "nul in the action", "non-ascii action",
               "non-ascii digits", "double space", "transx", "nine digits", "nul for a space",
               "capital t", "last byte of the action", "colon target"]
# the edits that keep the text a valid one of the same system
_VALID_EDITS = {"plus signs", "leading zeros", "comment line", "trailing comment", "blank lines",
                "tabs", "crlf", "x1c break", "x1f space", "non-ascii digits", "double space",
                "nine digits", "ten digits"}


def _bulk_counts(monkeypatch) -> list[int]:
    """The line counts that ``fileio._read_piece`` returns, call by call, from now on."""
    counts, read_piece = [], fileio._read_piece
    monkeypatch.setattr(fileio, "_read_piece",
                        lambda *args: counts.append(read_piece(*args)) or counts[-1])
    return counts


class TestBulkAgainstReference:
    """Multi-piece texts with one edit in the second piece or a later one: the bulk parse
    gives the reference's system, or its first error's text and line number."""

    @pytest.fixture(scope="class")
    def texts(self):
        return {name: (build(), write_dts(build())) for name, build in _MULTI_PIECE.items()}

    def test_texts_have_three_or_more_pieces(self, texts):
        for sys_, text in texts.values():
            pieces = []
            assert list(_numbered_lines(text, pieces.append)) == list(
                enumerate(text.splitlines(), start=1))
            assert len(pieces) >= 3
            assert parse_dts(text) == sys_ == reference_parse_dts(text)

    @pytest.mark.parametrize("at", [0.45, 0.9])
    @pytest.mark.parametrize("edit", _LINE_EDITS)
    @pytest.mark.parametrize("name", list(_MULTI_PIECE))
    def test_one_line_edit(self, texts, name, edit, at):
        sys_, text = texts[name]
        lines = text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("trans "))
        i = first + int((len(lines) - first) * at)
        lines[i:i + 1] = _edit_line(edit, lines[i], sys_.n_states, lines[first])
        edited = "".join(lines)
        expected = _outcome(reference_parse_dts, edited)
        assert _outcome(parse_dts, edited) == expected
        assert (expected == sys_) == (edit in _VALID_EDITS)

    # str.splitlines breaks other than \n and \r, which the guard before allocating
    # counts cheaply: it must count these too, and not refuse the text
    _BREAKS = {"x1c": "\x1c", "vt": "\v", "ff": "\f", "x85": "\x85", "u2028": "\u2028"}

    @pytest.mark.parametrize("edit", ["crlf everywhere", *(f"{b} everywhere" for b in _BREAKS),
                                      "no final newline", "last transition missing",
                                      "crlf, last ten transitions missing"])
    @pytest.mark.parametrize("name", list(_MULTI_PIECE))
    def test_whole_text_edit(self, texts, name, edit):
        sys_, text = texts[name]
        edited = {"crlf everywhere": lambda: text.replace("\n", "\r\n"),
                  "no final newline": lambda: text[:-1],
                  "last transition missing": lambda: text[:text.rindex("trans ")],
                  # fewer lines than it needs, counting \n alone, but not counting \n and \r:
                  # the guard lets it through, as the reference's does
                  "crlf, last ten transitions missing":
                      lambda: "\n".join(text.splitlines()[:-10]).replace("\n", "\r\n"),
                  **{f"{b} everywhere": lambda b=b: text.replace("\n", self._BREAKS[b])
                     for b in self._BREAKS}}[edit]()
        expected = _outcome(reference_parse_dts, edited)
        assert _outcome(parse_dts, edited) == expected
        assert (expected == sys_) == ("missing" not in edit)

    def test_the_arm_is_read_in_bulk_after_its_header(self, monkeypatch):
        # the lines read one at a time are the five of the header and the first transition,
        # which ends it; the piece in which the header ends goes to the bulk reader from there
        arm = _large_arm()
        yielded, numbered = [], fileio._numbered_lines

        def spy_numbered(*args):
            for item in numbered(*args):
                yielded.append(item)
                yield item

        monkeypatch.setattr(fileio, "_numbered_lines", spy_numbered)
        counts = _bulk_counts(monkeypatch)
        text = write_dts(arm)
        assert parse_dts(text) == arm
        assert yielded == list(enumerate(text.splitlines()[:6], start=1)) and 0 not in counts
        assert sum(counts) == arm.n_states * len(arm.action_names)

    @pytest.mark.parametrize("names", [("a", "a\x00"), ("a\x00", "a")])
    def test_a_padded_token_is_not_the_longer_name(self, names, monkeypatch):
        # lines grouped by action: the pieces of 'a' lines alone are read in bulk, and
        # each 'a' must stay action 'a', though NUL-padded it reads as 'a\x00'
        sys_ = _named(12_000, names)
        header, lines = write_dts(sys_).split("trans ", 1)
        lines = ("trans " + lines).splitlines(keepends=True)
        text = header + "".join(lines[0::2] + lines[1::2])
        counts = _bulk_counts(monkeypatch)
        assert parse_dts(text) == sys_ == reference_parse_dts(text)
        assert sum(counts) >= 6_000

    def test_a_token_with_the_key_of_a_name(self, texts):
        # bytes 8 and 16 flipped alike: the words XOR to the name's key, and only the
        # second and third words show the token is not the name
        sys_, text = texts["long names"]
        at = text.index("trans 1500 exactly_twenty_four_byte ")
        edited = text[:at] + text[at:].replace("exactly_twenty_four_byte",
                                               "exactly_uwenty_fnur_byte", 1)
        expected = _outcome(reference_parse_dts, edited)
        assert _outcome(parse_dts, edited) == expected
        assert "unknown action 'exactly_uwenty_fnur_byte'" in expected[0]

    _NOISE = ["", "  ", "# c", "trans 0 L 0", "trans 0 L 0 # c", "trans 1 R 0", "trans 00 L 1",
              "trans +1 R 2", "trans 9999 L 0", "trans 0 L 9999", "trans 0 X 1", "trans 0 L",
              "loop 0", "trans 0 L 0\r", "\x1c", "trans 1 L 1\x1ctrans 2 L 2", "trans\x1f1 L 1",
              "trans 1 L\x00 1", "trans 1 L\u00e9 1", "trans  1 L 1", "transx 1 L 1",
              "trans 000000001 L 000000001", "trans 1 LLLLLLLLL 1", "trans 1 L \u0661",
              "trans\x001 L 1", "trans 1 L 1\x00trans 2 L 2", "Trans 1 L 1", "trans 1 L :",
              "trans 1 L 1a"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2000, 6000), st.integers(1, 3), st.integers(0, 2 ** 32),
           st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_NOISE)), max_size=4))
    def test_noise_lines_in_random_systems(self, n, m, seed, noise):
        rng = SplitMix64(seed)
        names = ("L", "R", "LL")[:m]
        sys_ = TransitionSystem.from_tables(
            names, [[rng.below(n) for _ in names] for _ in range(n)],
            [f"c{rng.below(3)}" for _ in range(n)], rng.below(n))
        lines = write_dts(sys_).splitlines(keepends=True)
        for at, line in noise:
            i = 5 + int((len(lines) - 5) * at)
            lines.insert(i, line + "\n")
        text = "".join(lines)
        expected = _outcome(reference_parse_dts, text)
        assert _outcome(parse_dts, text) == expected


class TestPartitionFormat:
    def test_round_trip(self):
        part = Partition.from_blocks(5, [[0, 2], [1], [3, 4]])
        assert parse_partition(write_partition(part)) == part

    def test_write_is_canonical_order(self):
        part = Partition.from_blocks(4, [[0, 3], [1, 2]])
        assert write_partition(part) == "0 3\n1 2\n"

    def test_lenient_parse_canonicalizes(self):
        assert parse_partition("2 1\n0 3\n").blocks() == ((0, 3), (1, 2))

    def test_missing_state_rejected(self):
        with pytest.raises(ParseError):
            parse_partition("0 1\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_partition("# nothing\n")


class TestObstacles:
    def test_parse(self):
        text = "1 1\n4 4  # far corner\n"
        assert parse_obstacles(text, 2, 6) == frozenset({(1, 1), (4, 4)})

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_obstacles("1 1 1\n", 2, 6)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_obstacles("1 9\n", 2, 6)


class TestDot:
    def test_line_has_one_edge_per_state_action(self):
        dot = to_dot(make_line(4))
        assert dot.count(" -> ") == 8

    def test_partition_clusters(self):
        env = make_line(4)
        part = Partition.from_blocks(4, [[0], [1, 2, 3]])
        dot = to_dot(env, part)
        assert dot.count("subgraph cluster_") == 2

    def test_initial_state_is_highlighted(self):
        assert "doublecircle" in to_dot(make_line(4))

    def test_trie_without_classes_has_an_edge_per_inner_node_and_action(self):
        dot = trie_to_dot(explore(make_line(4), 0, 1))
        assert dot == ('digraph trie {\n  rankdir=TB;\n'
                       '  0 [label="0\\ngreen" shape=circle];\n'
                       '  1 [label="1\\ngreen" shape=circle];\n'
                       '  2 [label="2\\nwhite" shape=circle];\n'
                       '  0 -> 1 [label="L"];\n  0 -> 2 [label="R"];\n}\n')

    def test_trie_clusters_match_the_classes(self):
        env = make_line(4)
        trie = explore(env, 0, 6)
        part = bounded_indistinguishability(trie, 3)
        dot = trie_to_dot(trie, part)
        assert dot.count("subgraph cluster_") == 4


# Every text either parses or raises ParseError, never another exception.
# Texts come raw, as lines of format tokens, and as token lines behind a valid
# header, so that the fuzzing reaches the transition lines as well.
_TOKENS = st.sampled_from([
    "dts", "states", "actions", "labels", "init", "trans", "L", "R", "a", "#",
    "0", "1", "2", "3", "-1", "1_0", "+2", "1e3", "0x1", "10000000000", "٣",
]) | st.text(max_size=4)
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=12).map("\n".join)
_TEXTS = st.one_of(
    st.text(),
    _LINES,
    _LINES.map(lambda body: "dts\nstates 2\nactions L R\n" + body),
    _LINES.map(lambda body: "dts\nstates 2\nactions L R\nlabels a b\ninit 1\n" + body),
)


def _parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


class TestFuzz:
    @settings(deadline=None)
    @given(_TEXTS)
    def test_parse_dts(self, text):
        _parses_or_raises_parse_error(parse_dts, text)

    @settings(deadline=None)
    @given(_TEXTS)
    def test_parse_partition(self, text):
        _parses_or_raises_parse_error(parse_partition, text)

    @settings(deadline=None)
    @given(_TEXTS, st.integers(1, 3), st.integers(3, 6))
    def test_parse_obstacles(self, text, joints, resolution):
        _parses_or_raises_parse_error(
            lambda t: parse_obstacles(t, joints, resolution), text)
