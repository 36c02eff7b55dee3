"""Property-based differential tests of ``parse_pgsolver`` against
``reference_parse``, the two-pass line parser it replaced: valid texts
parse to the same game and round-trip through ``write_pgsolver``, and
broken texts raise the same ``PGParseError`` (line and message).  Texts
come with every line break ``str.splitlines`` honours, with or without a
final one, and with numbers in non-ASCII decimal digits, which a scan of
the whole text must read as the line walk does."""

import re

import pytest

from paritytree.game_core import (
    ParityGame,
    PGParseError,
    even_priority_bound,
    parse_pgsolver,
    validate_game,
    write_pgsolver,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_VERTEX_RE = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])\s+(\d+(?:\s*,\s*\d+)*)(?:\s+\"([^\"]*)\")?$"
)


def reference_parse(text: str) -> ParityGame:
    """The two-pass parser: vertex lines are matched once to read them and
    once more to anchor dangling successors to a line."""
    lines = text.splitlines()
    header = None
    records = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise PGParseError(lineno, "missing terminating ';'")
        body = line[:-1].strip()
        if header is None:
            m = re.match(r"^parity\s+(\d+)$", body)
            if m is None:
                raise PGParseError(lineno, f"expected header 'parity <max-id>;', got {line!r}")
            header = (lineno, int(m.group(1)))
            continue
        m = _VERTEX_RE.match(body)
        if m is None:
            raise PGParseError(lineno, f"malformed vertex line {line!r}")
        vid = int(m.group(1))
        prio = int(m.group(2))
        owner = int(m.group(3))
        succs = tuple(int(s) for s in re.split(r"\s*,\s*", m.group(4)))
        name = m.group(5)
        if vid in records:
            raise PGParseError(lineno, f"duplicate vertex id {vid}")
        records[vid] = (prio, owner, succs, name)
    if header is None:
        raise PGParseError(len(lines) or 1, "empty input, expected 'parity <max-id>;' header")
    if not records:
        raise PGParseError(len(lines) or 1, "no vertex lines after header")
    n = len(records)
    for vid in records:
        if not 0 <= vid < n:
            raise PGParseError(1, f"vertex ids are not dense 0..{n - 1} (found {vid})")
    if header[1] != n - 1:
        raise PGParseError(
            header[0], f"header declares max id {header[1]}, but the vertices are 0..{n - 1}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        m = _VERTEX_RE.match(line[:-1].strip()) if line.endswith(";") else None
        if m is None:
            continue
        for s in re.split(r"\s*,\s*", m.group(4)):
            if not 0 <= int(s) < n:
                raise PGParseError(lineno, f"successor {s} references an undeclared vertex")
    priority = tuple(records[v][0] for v in range(n))
    owner = tuple(records[v][1] for v in range(n))
    successors = tuple(records[v][2] for v in range(n))
    raw_names = tuple(records[v][3] for v in range(n))
    names = raw_names if any(nm is not None for nm in raw_names) else None
    return ParityGame(even_priority_bound(max(priority)), owner, priority, successors, names)


def outcome(parse, text):
    try:
        return ("game", parse(text))
    except PGParseError as exc:
        return ("error", exc.line, exc.message)


# \x1f is whitespace to the regex (and to str.strip) but not to int()
blank = st.text(" \t\x1f\u3000", max_size=2)
gap = st.text(" \t\x1f\u3000", min_size=1, max_size=2)
# ASCII, Arabic-Indic, fullwidth and Devanagari digits: \d and int() read all four
scripts = st.sampled_from(["".join(map(chr, range(zero, zero + 10)))
                           for zero in (0x30, 0x660, 0xFF10, 0x966)])
number = st.builds(lambda k, zeros: "0" * zeros + str(k), st.integers(0, 12), st.integers(0, 1))
# every line break str.splitlines honours
line_breaks = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])


def numeral(draw, k):
    """k in decimal, in digits of a drawn script."""
    digits = draw(scripts)
    return "".join(digits[int(c)] for c in str(k))


@st.composite
def game_lines(draw):
    """The lines of a valid text: a header, then one line per vertex in
    any order, with blank lines, names, numbers in any script and
    whitespace around fields and commas.  Successors may repeat."""
    n = draw(st.integers(1, 6))
    named = draw(st.booleans())
    lines = [f"{draw(blank)}parity{draw(gap)}{numeral(draw, n - 1)}{draw(blank)};{draw(blank)}"]
    order = draw(st.permutations(range(n)))
    for v in order:
        succs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        succ_text = ",".join(f"{draw(blank)}{numeral(draw, w)}{draw(blank)}" for w in succs).strip(
            " \t\x1f\u3000")
        fields = [numeral(draw, v), numeral(draw, draw(st.integers(0, 7))),
                  str(draw(st.integers(0, 1))), succ_text]
        if named and draw(st.booleans()):
            fields.append('"' + draw(st.text("ab ;,1", max_size=4)) + '"')
        body = "".join(f + draw(gap) for f in fields[:-1]) + fields[-1]
        lines.append(f"{draw(blank)}{body}{draw(blank)};{draw(blank)}")
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank))
    return lines


def _vertex_match(line):
    line = line.strip()
    return _VERTEX_RE.match(line[:-1].strip()) if line.endswith(";") else None


@st.composite
def joined(draw, lines):
    """The lines, each ended by a drawn line break, the last one possibly
    without."""
    ends = [draw(line_breaks) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@st.composite
def mutated_lines(draw):
    """A valid text with one to three of: a dangling successor, a changed
    vertex id, a changed header, a repeated line, a missing ';', a garbage
    line, a deleted line.  Each mutation after the first may hit the same
    or another line."""
    lines = draw(game_lines())
    for _ in range(draw(st.integers(1, 3))):
        rows = [i for i, line in enumerate(lines) if i > 0 and _vertex_match(line)]
        if not rows:
            break
        i = draw(st.sampled_from(rows))
        m = _vertex_match(lines[i])
        kind = draw(st.sampled_from(
            ("dangling", "id", "header", "duplicate", "semicolon", "garbage", "drop")))
        if kind == "dangling":
            succs = re.split(r"\s*,\s*", m.group(4))
            succs[draw(st.integers(0, len(succs) - 1))] = draw(number) + "7"
            lines[i] = f"{m.group(1)} {m.group(2)} {m.group(3)} {','.join(succs)};"
        elif kind == "id":
            lines[i] = f"{draw(number)} {m.group(2)} {m.group(3)} {m.group(4)};"
        elif kind == "header":
            lines[0] = f"parity {draw(number)};"
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif kind == "semicolon":
            lines[i] = lines[i].rstrip().rstrip(";")
        elif kind == "garbage":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.text("0 1;,\"p", max_size=6)) + ";")
        else:
            del lines[draw(st.integers(0, len(lines) - 1))]
    return lines


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(game_lines())
def test_valid_texts_match_reference_and_round_trip(lines):
    text = "\n".join(lines)
    g = parse_pgsolver(text)
    assert g == reference_parse(text)
    assert parse_pgsolver(write_pgsolver(g)) == g


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(mutated_lines().map("\n".join))
def test_broken_texts_raise_the_reference_error(text):
    assert outcome(parse_pgsolver, text) == outcome(reference_parse, text)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(game_lines().flatmap(joined))
def test_any_line_breaks_match_reference(text):
    g = parse_pgsolver(text)
    assert g == reference_parse(text)
    assert validate_game(g) == []


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(mutated_lines().flatmap(joined))
def test_broken_texts_with_any_line_breaks_raise_the_reference_error(text):
    assert outcome(parse_pgsolver, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text, line, message", [
    pytest.param("parity 2;\n0 1 0 1;\n1 2 1 9,0;\n2 0 0 5;\n",
                 3, "successor 9 references an undeclared vertex", id="dangling-on-two-lines"),
    pytest.param("parity 1;\n0 1 0 1,9,8;\n1 2 1 0;\n",
                 2, "successor 9 references an undeclared vertex", id="two-dangling-on-one-line"),
    pytest.param("parity 1;\n0 1 0 1 , 007;\n1 2 1 0;\n",
                 2, "successor 007 references an undeclared vertex", id="dangling-as-written"),
    pytest.param("parity 1;\n0 1 0 1;\n3 2 1 8;\n",
                 1, "vertex ids are not dense 0..1 (found 3)", id="non-dense-and-dangling"),
    pytest.param("parity 4;\n0 1 0 1;\n1 2 1 0;\n",
                 1, "header declares max id 4, but the vertices are 0..1", id="header-mismatch"),
    pytest.param("parity 1;\n0 1 0 1;\n0 2 1 0;\n",
                 3, "duplicate vertex id 0", id="duplicate-id"),
])
def test_named_errors_match_reference(text, line, message):
    assert outcome(parse_pgsolver, text) == ("error", line, message)
    assert outcome(reference_parse, text) == ("error", line, message)
