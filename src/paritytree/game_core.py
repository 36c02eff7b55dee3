"""Parity game data model and the facts each game caches about itself,
validation, PGSolver-style I/O, cycle semantics, and seeded random games.

Conventions used throughout the package:

* vertices are dense ids ``0..n-1``;
* ``owner[v]`` is ``EVE`` (0) or ``ADAM`` (1);
* priorities live in ``[0, d]`` with ``d`` even, ``d >= 2``;
* Eve wins an infinite play iff the largest priority seen infinitely
  often is even (max-parity convention, fixed globally);
* every vertex has at least one successor (dead ends are invalid input).

PGSolver text is read by one of two readers that give the same game.
Canonical text, the form ``write_pgsolver`` writes (a header
``parity N;``, then one line ``V P O S(,S)*;`` per vertex with ids 0..N
in order, single spaces, ASCII digits without leading zeros, every line
ended by ``\\n``, no names), is read in blocks by ``re`` and ``json`` in C.
Everything else, and every error, goes to a line-tolerant regex scan.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from operator import itemgetter

EVE = 0
ADAM = 1

EVEN = "even"
ODD = "odd"


class PGParseError(ValueError):
    """Malformed PGSolver input.  ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class ParityGame:
    """Immutable parity game arena.

    ``successors[v]`` is an ordered tuple of successor ids.  ``names`` is
    an optional per-vertex label tuple (entries may be None).

    Facts derived from the game are computed at most once per game object
    and cached in its instance dict: its invariant violations
    (``validate_game``), predecessor lists (``predecessors``) and priority
    index (``priority_buckets``), and whatever a solver keeps there
    (``zielonka`` keeps its region and strategy).  The caches hold only
    because the game cannot change, so the per-vertex tables must be
    tuples, never lists.  ``parse_pgsolver`` fills the violations cache
    with ``()`` itself, since its own checks imply every invariant, so a
    parsed game is never scanned for them.
    """

    d: int
    owner: tuple[int, ...]
    priority: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.owner)

    def vertices(self) -> range:
        return range(self.n)

    def predecessors(self) -> list[list[int]]:
        """Reverse adjacency: ``predecessors()[w]`` lists each vertex with an
        edge to w once, in ascending order.  Built once per game in O(m);
        every call returns the same lists, which callers must not modify."""
        preds = self.__dict__.get("_predecessors")
        if preds is None:
            n = self.n
            preds = self.__dict__["_predecessors"] = [[] for _ in range(n)]
            for v, succs in enumerate(self.successors):
                for w in succs:  # an earlier edge v -> w left v last in preds[w]
                    if 0 <= w < n and (not preds[w] or preds[w][-1] != v):
                        preds[w].append(v)
        return preds

    def priority_buckets(self) -> list[tuple[int, set[int]]]:
        """The priority index: (p, the priority-p vertices) per priority held,
        highest first.  Built once per game in O(n); every call returns the
        same list, whose sets callers must not modify."""
        buckets = self.__dict__.get("_priority_buckets")
        if buckets is None:
            by_priority: dict[int, set[int]] = {}
            for v, p in enumerate(self.priority):
                bucket = by_priority.get(p)
                if bucket is None:
                    by_priority[p] = {v}
                else:
                    bucket.add(v)
            buckets = self.__dict__["_priority_buckets"] = sorted(by_priority.items(), reverse=True)
        return buckets

    def _find_violations(self) -> tuple[str, ...]:
        violations = []
        n, d = self.n, self.d
        for what, table in (("priority", self.priority), ("successor", self.successors),
                            ("name", range(n) if self.names is None else self.names)):
            if len(table) != n:
                violations.append(f"{what} table has {len(table)} entries for {n} vertices")
        if d < 2 or d % 2 != 0:
            violations.append(f"d={d} is not an even number >= 2")
        for v, o in enumerate(self.owner):
            if o not in (EVE, ADAM):
                violations.append(f"vertex {v}: owner {o} not in {{0, 1}}")
        for v, p in enumerate(self.priority[:n]):
            if p < 0:
                violations.append(f"vertex {v}: negative priority {p}")
            elif p > d:
                violations.append(f"vertex {v}: priority exceeds d ({p} > {d})")
        for v, succs in enumerate(self.successors[:n]):
            if len(succs) == 0:
                violations.append(f"dead end at vertex {v}")
            for w in succs:
                if not 0 <= w < n:
                    violations.append(f"vertex {v}: successor {w} out of range [0, {n})")
        return tuple(violations)


@dataclass(frozen=True)
class Region:
    """Partition of the vertex set into the two winning regions."""

    eve_wins: frozenset[int]
    adam_wins: frozenset[int]


@dataclass(frozen=True)
class Cycle:
    """A cycle given as the sequence of vertices along it; the edge from the
    last vertex back to the first is implicit."""

    vertices: tuple[int, ...]


def even_priority_bound(max_priority: int) -> int:
    """Smallest valid d covering ``max_priority``: even, >= 2."""
    return max(2, max_priority + (max_priority % 2))


def validate_game(g: ParityGame) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the game is valid.  Violations are data, not
    exceptions: callers decide whether to raise.  They are found once per
    game; each call returns a fresh list.
    """
    found = g.__dict__.get("_violations")
    if found is None:
        found = g.__dict__["_violations"] = g._find_violations()
    return list(found)


def require_valid(g: ParityGame) -> None:
    violations = validate_game(g)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))


# The header line, and any line after it: a vertex line's id, priority, owner, successors
# and quoted name, or else the line's stripped text (empty if blank).  In a text rejoined
# from str.splitlines, "\n" is the only line break, so [^\S\n] is whitespace within a line.
# The text group is greedy, so it steps back over trailing whitespace only; a lazy (.*?)
# would retry the pattern's tail at every character, quadratic in the line's length.
_HEADER_RE = re.compile(r"\s*parity[^\S\n]+(\d+)[^\S\n]*;[^\S\n]*$", re.M)
_ROW_RE = re.compile(
    r"^[^\S\n]*(?:(\d+)[^\S\n]+(\d+)[^\S\n]+([01])[^\S\n]+(\d+(?:[^\S\n]*,[^\S\n]*\d+)*)"
    r"(?:[^\S\n]+(\"[^\"\n]*\"))?[^\S\n]*;|(.*\S)?)[^\S\n]*$", re.M)
_BLANK = ("",) * 6  # the row of a blank line

# Canonical text (see parse_pgsolver).  The row pattern lets leading zeros through to
# json.loads, which refuses them.
_CANONICAL_HEADER_RE = re.compile(r"parity (0|[1-9][0-9]*);\n")
_CANONICAL_ROWS_RE = re.compile(r"(?:[0-9]+ [0-9]+ [01] [0-9]+(?:,[0-9]+)*;\n)+")
_BLOCK = 1 << 16  # characters of canonical rows read at a time, at least


def _number(text: str, line: int, what: str) -> int:
    """int(text) for a digit run, or a PGParseError naming its line when
    it has more digits than int() reads (sys.get_int_max_str_digits())."""
    try:
        return int(text)
    except ValueError:
        raise PGParseError(line, f"{what} of {len(text)} digits is past int()'s limit of "
                                 f"{sys.get_int_max_str_digits()} digits") from None


def parse_pgsolver(text: str) -> ParityGame:
    """Parse the line-oriented PGSolver-style format.

    Grammar: a header ``parity <max-vertex-id>;``, which must equal the
    largest vertex id, followed by one line per vertex, in any order,
    ``<id> <priority> <owner> <succ>(,<succ>)* ("name")? ;`` with owner
    0 = Eve and 1 = Adam.  Lines end at every break ``str.splitlines``
    honours, and blank lines are skipped.  Whitespace-tolerant.  The
    priority bound d is the maximum priority rounded up to the nearest
    even number (>= 2).

    Two readers give the same game.  Canonical text, as ``write_pgsolver``
    writes it, is read in blocks at C speed (``_read_canonical``): the
    header ``parity N;`` and then one line ``V P O S(,S)*;`` per vertex,
    ids 0..N in order, single spaces, ASCII digits without leading zeros,
    every line ended by ``\n``, and no names.  Any other text, and any
    canonical-looking text that fails a check, goes to the line-tolerant
    scan (``_scan_lines``), the only code that names errors.  Either way
    the checks imply every invariant ``validate_game`` checks, so the
    game comes back marked valid and is never rescanned.
    """
    g = _read_canonical(text) or _scan_lines(text)
    g.__dict__["_violations"] = ()  # the readers' checks imply every invariant
    return g


def _read_canonical(text: str) -> ParityGame | None:
    """The game of a canonical text, or None for any other text.

    The rows are read about ``_BLOCK`` characters at a time, in C: one
    capture-free ``fullmatch`` per block checks its lines in place, every
    block before any is decoded, then one ``json.loads`` per block reads
    its numbers, so the transient memory is one block's.
    """
    header = _CANONICAL_HEADER_RE.match(text)
    if header is None:
        return None
    blocks, end, size = [], header.end(), len(text)
    while end < size:
        start, end = end, text.find("\n", end + _BLOCK) + 1 or size
        if _CANONICAL_ROWS_RE.fullmatch(text, start, end) is None:
            return None
        blocks.append((start, end))
    owner: list[int] = []
    priority: list[int] = []
    successors: list[tuple[int, ...]] = []
    try:
        for start, end in blocks:
            block = text[start:end]
            # "V P O S,S;\n" lines -> [[V,P,O,S,S],...]; json.loads refuses leading zeros
            rows = json.loads("[[" + block[:-2].replace(";\n", "],[").replace(" ", ",") + "]]")
            k = len(owner)
            if list(map(itemgetter(0), rows)) != list(range(k, k + len(rows))):
                return None
            priority += map(itemgetter(1), rows)
            owner += map(itemgetter(2), rows)
            successors += map(tuple, map(itemgetter(slice(3, None)), rows))
        n = len(owner)  # an empty body has n = 0, which no header declares
        if int(header[1]) != n - 1 or max(map(max, successors)) >= n:
            return None
    except ValueError:  # a leading zero, or a number past int()'s digit limit
        return None
    return ParityGame(even_priority_bound(max(priority)), tuple(owner), tuple(priority),
                      tuple(successors))


def _scan_lines(text: str) -> ParityGame:
    """Parse any text ``parse_pgsolver`` accepts, or name its first error.

    The text after the header is read in one regex scan, one row per
    line; the tables are built from the vertex rows' columns and checked
    there.  A failed check walks the same rows for the first error: per
    line, a missing ';', a bad header (the first non-blank line), a
    malformed vertex line, a repeated id or a number longer than int()
    reads; then no header, no vertex lines, ids not dense (at line 1), a
    header too long or not matching them, and the first undeclared
    successor.
    """
    lines = text.splitlines()
    joined = "\n".join(lines)
    header = _HEADER_RE.match(joined)
    if header is None:
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line:
                raise PGParseError(lineno, f"expected header 'parity <max-id>;', got {line!r}"
                                   if line.endswith(";") else "missing terminating ';'")
        raise PGParseError(len(lines) or 1, "empty input, expected 'parity <max-id>;' header")
    rows = _ROW_RE.findall(joined, header.end())
    table = [row for row in rows if row != _BLANK] if _BLANK in rows else rows
    n = len(table)
    id_texts, priorities, owners, succ_texts, quoted, others = zip(*table) if n else [()] * 6
    dense = list(range(n))
    try:
        ids = [] if any(others) else list(map(int, id_texts))  # [] sends other lines to the walk
        if ids != dense and sorted(ids) == dense:
            _, priorities, owners, succ_texts, quoted, _ = zip(
                *[table[i] for i in sorted(dense, key=ids.__getitem__)])
            ids = dense
        successors = tuple([tuple(map(int, map(str.strip, s.split(",")))) for s in succ_texts]
                           if ids else ())
        priority = tuple(map(int, priorities)) if ids else ()
        declared = int(header[1])
    except ValueError:  # a number int() will not read: the walk names its line
        ids = []
    if not ids or ids != dense or declared != n - 1 or max(map(max, successors)) >= n:
        header_line = joined.count("\n", 0, header.end()) + 1
        seen: dict[int, int] = {}  # id -> its first line
        dangling = []  # (line, message) per undeclared successor, in line order
        for lineno, (vid, prio, _, succ_text, _, other) in enumerate(rows, header_line + 1):
            if other:
                raise PGParseError(lineno, f"malformed vertex line {other!r}"
                                   if other.endswith(";") else "missing terminating ';'")
            if not vid:
                continue
            if seen.setdefault(_number(vid, lineno, "vertex id"), lineno) != lineno:
                raise PGParseError(lineno, f"duplicate vertex id {int(vid)}")
            _number(prio, lineno, "priority")
            dangling += [(lineno, f"successor {s} references an undeclared vertex")
                         for s in map(str.strip, succ_text.split(","))
                         if _number(s, lineno, "successor") >= n]
        if not n:
            raise PGParseError(len(lines), "no vertex lines after header")
        if max(seen) >= n:  # n distinct ids: dense unless one is n or more
            found = next(v for v in seen if v >= n)
            raise PGParseError(1, f"vertex ids are not dense 0..{n - 1} (found {found})")
        if _number(header[1], header_line, "header max id") != n - 1:
            raise PGParseError(header_line, f"header declares max id {int(header[1])}, "
                                            f"but the vertices are 0..{n - 1}")
        raise PGParseError(*dangling[0])
    return ParityGame(
        d=even_priority_bound(max(priority)),
        owner=tuple(map(int, owners)),
        priority=priority,
        successors=successors,
        names=tuple([q[1:-1] if q else None for q in quoted]) if any(quoted) else None,
    )


def write_pgsolver(g: ParityGame) -> str:
    """Canonical single-space text form; ``parse_pgsolver`` inverts it.

    Vertices are emitted in ascending id order, successors in stored order.
    Rejects invalid games (in particular dead ends are never emitted).
    """
    require_valid(g)
    out = [f"parity {g.n - 1};"]
    for v in range(g.n):
        line = f"{v} {g.priority[v]} {g.owner[v]} " + ",".join(
            str(w) for w in g.successors[v])
        if g.names is not None and g.names[v] is not None:
            line += f' "{g.names[v]}"'
        out.append(line + ";")
    return "\n".join(out) + "\n"


def generate_random_game(
    n: int,
    d: int,
    out_degree_range: tuple[int, int] = (1, 2),
    seed: int | None = None,
) -> ParityGame:
    """Seeded random game: uniform owner, uniform priority in [0, d],
    successors sampled without replacement.  Always valid.

    The stored priority bound is the even cover of the realized maximum
    priority (so that PGSolver round-trips are exact); the requested ``d``
    only bounds the priority distribution.
    """
    lo, hi = out_degree_range
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2 or d % 2 != 0:
        raise ValueError(f"need d even and >= 2, got {d}")
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"out-degree range {out_degree_range} infeasible for n={n}")
    rng = random.Random(seed)
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    priority = tuple(rng.randint(0, d) for _ in range(n))
    successors = tuple(
        tuple(rng.sample(range(n), rng.randint(lo, hi))) for _ in range(n))
    return ParityGame(
        d=even_priority_bound(max(priority)),
        owner=owner,
        priority=priority,
        successors=successors,
    )


def classify_cycle(g: ParityGame, c: Cycle) -> str:
    """EVEN iff the maximum priority on the cycle is even."""
    verts = c.vertices
    if not verts:
        raise ValueError("empty cycle")
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        if w not in g.successors[v]:
            raise ValueError(f"not a cycle: ({v}, {w}) is not an edge")
    return EVEN if max(g.priority[v] for v in verts) % 2 == 0 else ODD
