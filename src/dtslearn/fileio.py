"""Plain-text formats for systems and partitions, and DOT export.

The system format is line oriented, diff-able and hand-writable::

    dts
    states 4
    actions L R
    labels green white white white   # one label name per state (optional)
    init 0                           # optional
    trans 0 L 0
    trans 0 R 1
    ...                              # exactly one line per (state, action)

``#`` starts a comment anywhere; blank lines are ignored. Writing is
canonical (states ascending, actions in header order), so parse and write
round-trip bit-exactly.

Text is read a piece of about 64 KiB at a time, never split whole. In
``parse_dts``, from the first transition on, a piece of plain ``trans S ACT T``
lines only, as ``write_dts`` writes them, is read in bulk as ASCII bytes; any
other piece (comments, blank lines, other spacing, line breaks or bytes, any
error) is read line by line. Both paths raise the same first ``ParseError``.
"""

from __future__ import annotations

import re
from itertools import islice

import numpy as np

from .core import DtsError, InputError, TransitionSystem, _index
from .partitions import Partition


class ParseError(DtsError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")  # str.splitlines' own


def _numbered_lines(text: str, read_piece=None, pos: int = 0, count: int = 0):
    """``enumerate(text[pos:].splitlines(), start=count + 1)``, split about 64 KiB at a time.

    Each piece is first offered to ``read_piece``, if given: the lines of a piece that it
    reads whole, returning their count, are not yielded.
    """
    while pos < len(text):
        brk = _LINE_BREAK.search(text, pos + (1 << 16))  # a piece ends where a line does
        end = brk.end() if brk else len(text)
        piece = text[pos:end]
        if not (read_piece and (k := read_piece(piece))):
            lines = piece.splitlines()
            yield from enumerate(lines, start=count + 1)
            k = len(lines)
        count, pos = count + k, end


def _content_lines(numbered):
    for line_no, raw in numbered:
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def _parse_count(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None
    if value < 0 or value > 10**9:
        raise ParseError(line_no, f"{what} {value} is out of range")
    return value


def _transition(tokens: list[str], line_no: int, n_states: int, action_index: dict) -> tuple:
    """``(s, a, t)`` from a content line of the transition section, or its ParseError."""
    if tokens[0] != "trans":
        raise ParseError(line_no, f"unknown directive {tokens[0]!r}")
    if len(tokens) != 4:
        raise ParseError(line_no, "expected 'trans S ACT T'")
    s = _parse_count(tokens[1], line_no, "source state")
    t = _parse_count(tokens[3], line_no, "target state")
    if s >= n_states or t >= n_states:
        raise ParseError(line_no, f"state index out of range in {' '.join(tokens)!r}")
    a = action_index.get(tokens[2])
    if a is None:
        raise ParseError(line_no, f"unknown action {tokens[2]!r}")
    return s, a, t


_SEPARATORS = np.array([32, 32, 32, 10], np.uint8)  # the spaces and line feed of 'trans S ACT T\n'
_LOW = np.array([2 ** (8 * j) - 1 for j in range(9)], np.uint64)  # the masks of a word's j low bytes


def _name_table(action_names) -> tuple:
    """``_read_piece``'s action names, sorted by key (the XOR of a name's bytes as 8-byte
    little-endian words): keys, action ids, lengths and words, then a row past every key
    that matches nothing. A name with a byte outside ASCII or below 33 is in no plain line.
    """
    named = {a: n.encode() for a, n in enumerate(action_names) if n.isascii() and min(n) > " "}
    width = max([len(raw) + 7 >> 3 for raw in named.values()], default=1)
    words = np.array([[int.from_bytes(raw[j:j + 8], "little") for j in range(0, 8 * width, 8)]
                      for raw in named.values()] + [[0] * width], np.uint64)
    keys = np.bitwise_xor.reduce(words, axis=1)
    keys[-1] = (1 << 64) - 1
    order, lengths = np.argsort(keys, kind="stable"), np.array([*map(len, named.values()), -1])
    return keys[order], np.array([*named, 0])[order], lengths[order], words[order].T


def _read_piece(piece: str, table, n_states: int, keys, ids, lengths, words) -> int:
    """Fill ``table`` from a piece of plain lines in bulk; its line count, or 0 if it is not one.

    The piece is read as ASCII bytes. Its bytes below 33 must be, on every line, three
    spaces and a line feed; the first field must be ``trans``, the second and fourth one
    to nine digits, read column by column, and the third a name of ``_name_table``, found
    by its key and matched word by word. A piece that is not all such lines, or that names
    a state out of range or a cell already filled or named twice, writes nothing: its
    lines are read one at a time, which finds the first error.
    """
    raw = piece.encode() if piece.isascii() else b""
    b = np.frombuffer(raw, np.uint8)
    gaps = np.flatnonzero(b < 33)
    k = len(gaps) >> 2
    if not k or len(gaps) & 3 or gaps[-1] != len(b) - 1 or (b[gaps].reshape(k, 4) != _SEPARATORS).any():
        return 0
    ends, n = gaps.reshape(k, 4), np.diff(gaps, prepend=-1).reshape(k, 4) - 1  # of each line's fields
    at = np.ndarray((len(raw) + 9,), "<u8", bytes(8) + raw + bytes(8), 0, (1,))  # at[i]: bytes i-8..i
    if (n[:, 0] != 5).any() or (at[ends[:, 0]] >> 24 != int.from_bytes(b"trans", "little")).any():
        return 0
    chunks = [at[np.minimum(ends[:, 1] + 9 + 8 * j, len(raw) + 8)]  # the action's words
              & _LOW.take(n[:, 2] - 8 * j, mode="clip") for j in range(len(words))]
    i = np.searchsorted(keys, np.bitwise_xor.reduce(chunks))
    if (lengths[i] != n[:, 2]).any() or any((w[i] != c).any() for w, c in zip(words, chunks)):
        return 0
    ends, n = ends[:, 1::2].ravel() - 1, n[:, 1::2].ravel()  # each state's last digit, and digits
    if n.min() < 1 or n.max() > 9:
        return 0
    value, top = np.zeros(2 * k, np.int64), np.zeros(2 * k, np.uint8)
    for j in range(n.max()):  # the digit columns, 10**j each
        d = b[ends - j] - np.uint8(48)
        d *= n > j
        np.maximum(top, d, out=top)
        value += d * np.int64(10 ** j)
    if top.max() > 9 or value.max() >= n_states:
        return 0
    cells = value[0::2] * (len(table) // n_states) + ids[i]  # s*m + a
    if (table[cells] != -1).any() or (np.diff(cells) <= 0).any() and len(np.unique(cells)) < k:
        return 0  # a cell filled before, or named twice
    table[cells] = value[1::2]
    return k


def parse_dts(text: str) -> TransitionSystem:
    """Parse the line format above into a validated system.

    From the first transition's line on, the text is read a piece of about 64 KiB at a
    time (see ``_numbered_lines``). A piece of plain lines only, each ``trans S ACT T``
    with single spaces, one to nine ASCII digits for each state and a line feed at the
    end, is read in bulk from its bytes (``_read_piece``). Any other piece, and a plain
    piece with an unknown action, a state out of range or a transition given twice, is
    read one line at a time: so both paths raise the same first ``ParseError``, with
    the same line number.
    """
    lines = _content_lines(_numbered_lines(text))

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
    action_names = tuple(tokens[1:])
    if len(set(action_names)) != len(action_names):
        raise ParseError(line_no, "action names must be distinct")
    need = n_states * len(action_names) - 1  # line breaks, before allocating: \n, \r, then all
    if need > (feeds := text.count("\n")) and need > feeds + text.count("\r") and need > len(
            _LINE_BREAK.findall(text)):
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
    table = np.full(n_states * n_actions, -1, np.int32)  # the cell of (s, a) is s*m + a; -1: unset
    cells = memoryview(table)  # reads and writes plain ints, near a list's speed
    names = _name_table(action_names)
    start = next(islice(_LINE_BREAK.finditer(text), line_no - 2, None)).end()  # of line line_no
    # from the first transition's line on, a piece of plain lines is read in bulk; in any
    # other, plain 'trans S ACT T' lines are checked inline and the rest go through _transition
    for line_no, raw in _numbered_lines(text, lambda piece: _read_piece(piece, table, n_states, *names),
                                        start, line_no - 1):
        tokens = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
        try:
            word, s, name, t = tokens
            s, a, t = int(s), action_index[name], int(t)
        except (ValueError, KeyError):
            word = None
        if word != "trans" or not 0 <= s < n_states > t >= 0:
            if not tokens:
                continue
            s, a, t = _transition(tokens, line_no, n_states, action_index)
        cell = s * n_actions + a
        if cells[cell] != -1:
            raise ParseError(line_no, f"duplicate transition for state {s}, "
                                      f"action {action_names[a]!r}")
        cells[cell] = t
    rows = []
    states = list(range(n_states))  # one int per state, shared by every cell naming it
    step = n_actions << 12  # rows are cut from 4,096 rows' cells at a time, not from all cells
    for i in range(0, len(table), step):
        chunk = table[i:i + step].tolist()
        if -1 in chunk:
            s, a = divmod(i + chunk.index(-1), n_actions)
            for last, _ in _content_lines(_numbered_lines(text)):  # the last transition's line
                pass
            raise ParseError(last, f"missing transition for state {s}, "
                                   f"action {action_names[a]!r}")
        rows += zip(*[map(states.__getitem__, chunk)] * n_actions)
    # every check of from_tables is made above: names, label count, init and cells
    return TransitionSystem._trusted(action_names, tuple(rows), state_labels, initial)


def write_dts(sys: TransitionSystem) -> str:
    """Canonical text for a system; inverse of ``parse_dts``."""
    out = ["dts", f"states {sys.n_states}", "actions " + " ".join(sys.action_names)]
    if sys.labels is not None:
        out.append("labels " + " ".join(sys.label_names[l] for l in sys.labels))
    if sys.initial is not None:
        out.append(f"init {sys.initial}")
    for s in range(sys.n_states):
        for a, name in enumerate(sys.action_names):
            out.append(f"trans {s} {name} {sys.delta[s][a]}")
    return "\n".join(out) + "\n"


def parse_partition(text: str) -> Partition:
    """One block per line, space-separated state indices."""
    blocks = []
    n_states = 0
    for line_no, tokens in _content_lines(_numbered_lines(text)):
        block = [_parse_count(tok, line_no, "state index") for tok in tokens]
        blocks.append(block)
        n_states += len(block)
    if not blocks:
        raise ParseError(0, "empty partition")
    try:
        return Partition.from_blocks(n_states, blocks)
    except DtsError as exc:
        raise ParseError(0, str(exc)) from None


def write_partition(part: Partition) -> str:
    """Blocks in canonical order, one per line; inverse of ``parse_partition``."""
    return "\n".join(" ".join(str(s) for s in block) for block in part.blocks()) + "\n"


def parse_obstacles(text: str, joints: int, resolution: int) -> frozenset[tuple[int, ...]]:
    """One forbidden configuration per line, space-separated joint positions."""
    joints = _index(joints, "joints")
    resolution = _index(resolution, "resolution")
    out = set()
    for line_no, tokens in _content_lines(_numbered_lines(text)):
        if len(tokens) != joints:
            raise ParseError(line_no, f"expected {joints} joint positions")
        conf = tuple(_parse_count(tok, line_no, "joint position") for tok in tokens)
        if any(c >= resolution for c in conf):
            raise ParseError(line_no, f"configuration {conf} is out of range")
        out.add(conf)
    return frozenset(out)


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _node_lines(node_line, count: int, partition: Partition | None, title: str) -> list[str]:
    """One line per node, grouped into a subgraph cluster per block of a partition."""
    if partition is None:
        return [node_line(v, "  ") for v in range(count)]
    lines = []
    for b, block in enumerate(partition.blocks()):
        lines.append(f"  subgraph cluster_{b} {{")
        lines.append(f"    label={_quote(f'{title} {b}')};")
        lines.extend(node_line(v, "    ") for v in block)
        lines.append("  }")
    return lines


def to_dot(sys: TransitionSystem, partition: Partition | None = None) -> str:
    """Render a system as a DOT digraph, one edge per (state, action).

    With a partition, blocks become subgraph clusters so quotient structure
    is visible at a glance.
    """
    def node_line(s: int, indent: str) -> str:
        text = str(s)
        if sys.labels is not None:
            text += "\\n" + sys.label_name_of(s)
        shape = "doublecircle" if s == sys.initial else "circle"
        return f"{indent}{s} [label={_quote(text)} shape={shape}];"

    if partition is not None and partition.n_states != sys.n_states:
        raise InputError("partition is not over the system's states")
    lines = ["digraph dts {", "  rankdir=LR;"]
    lines += _node_lines(node_line, sys.n_states, partition, "block")
    for s in range(sys.n_states):
        for a, name in enumerate(sys.action_names):
            lines.append(f"  {s} -> {sys.delta[s][a]} [label={_quote(name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trie_to_dot(trie, partition: Partition | None = None) -> str:
    """Render a history trie (optionally partitioned into classes) as DOT."""
    count = partition.n_states if partition is not None else trie.node_count

    def node_line(node: int, indent: str) -> str:
        text = f"{node}\\n{trie.label_names[trie.observation(node)]}"
        return f"{indent}{node} [label={_quote(text)} shape=circle];"

    lines = ["digraph trie {", "  rankdir=TB;"]
    lines += _node_lines(node_line, count, partition, "class")
    for node in range(count):
        if trie.level_of(node) == trie.depth:
            continue
        for a in range(trie.n_actions):
            child = trie.child(node, a)
            if child < count:
                lines.append(f"  {node} -> {child} "
                             f"[label={_quote(trie.action_names[a])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
