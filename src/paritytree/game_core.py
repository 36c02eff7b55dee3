"""Parity game data model, validation, PGSolver-style I/O, cycle semantics,
and seeded random instance generation.

Conventions used throughout the package:

* vertices are dense ids ``0..n-1``;
* ``owner[v]`` is ``EVE`` (0) or ``ADAM`` (1);
* priorities live in ``[0, d]`` with ``d`` even, ``d >= 2``;
* Eve wins an infinite play iff the largest priority seen infinitely
  often is even (max-parity convention, fixed globally);
* every vertex has at least one successor (dead ends are invalid input).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

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
    and cached on it: its invariant violations (``validate_game``), its
    predecessor lists (``predecessors``) and Zielonka's winning region and
    strategy for Eve (``zielonka._region_and_strategy``).  The caches hold
    only because the game cannot change, so the per-vertex tables must be
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
        return self._predecessors

    @cached_property
    def _predecessors(self) -> list[list[int]]:
        n = self.n
        preds: list[list[int]] = [[] for _ in range(n)]
        last = [-1] * n  # last[w]: the latest source already listed in preds[w]
        for v, succs in enumerate(self.successors):
            for w in succs:
                if 0 <= w < n and last[w] != v:
                    last[w] = v
                    preds[w].append(v)
        return preds

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        violations = []
        n = self.n
        if len(self.priority) != n:
            violations.append(
                f"priority table has {len(self.priority)} entries for {n} vertices")
        if len(self.successors) != n:
            violations.append(
                f"successor table has {len(self.successors)} entries for {n} vertices")
        if self.names is not None and len(self.names) != n:
            violations.append(f"name table has {len(self.names)} entries for {n} vertices")
        if self.d < 2 or self.d % 2 != 0:
            violations.append(f"d={self.d} is not an even number >= 2")
        for v in range(min(n, len(self.owner))):
            if self.owner[v] not in (EVE, ADAM):
                violations.append(f"vertex {v}: owner {self.owner[v]} not in {{0, 1}}")
        for v in range(min(n, len(self.priority))):
            p = self.priority[v]
            if p < 0:
                violations.append(f"vertex {v}: negative priority {p}")
            elif p > self.d:
                violations.append(f"vertex {v}: priority exceeds d ({p} > {self.d})")
        for v in range(min(n, len(self.successors))):
            succs = self.successors[v]
            if len(succs) == 0:
                violations.append(f"dead end at vertex {v}")
            for w in succs:
                if not 0 <= w < n:
                    violations.append(f"vertex {v}: successor {w} out of range [0, {n})")
        return tuple(violations)

    @cached_property
    def _zielonka(self) -> tuple[frozenset[int], dict[int, int]]:
        from .zielonka import _recursion  # zielonka imports this module
        return _recursion(self)


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
    return list(g._violations)


def require_valid(g: ParityGame) -> None:
    violations = validate_game(g)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))


# The header line and a vertex line (groups: id, priority, owner,
# successors, quoted name), each with whitespace allowed around it.  In a
# text rejoined from str.splitlines, "\n" is the only line break left, and
# [^\S\n] is whitespace within one line.
_HEADER_RE = re.compile(r"\s*parity[^\S\n]+(\d+)[^\S\n]*;[^\S\n]*$", re.M)
_VERTEX_RE = re.compile(
    r"^[^\S\n]*(\d+)[^\S\n]+(\d+)[^\S\n]+([01])[^\S\n]+(\d+(?:[^\S\n]*,[^\S\n]*\d+)*)"
    r"(?:[^\S\n]+(\"[^\"\n]*\"))?[^\S\n]*;[^\S\n]*$", re.M)


def parse_pgsolver(text: str) -> ParityGame:
    """Parse the line-oriented PGSolver-style format.

    Grammar: a header ``parity <max-vertex-id>;``, which must equal the
    largest vertex id, followed by one line per vertex, in any order,
    ``<id> <priority> <owner> <succ>(,<succ>)* ("name")? ;`` with owner
    0 = Eve and 1 = Adam.  Lines end at every break ``str.splitlines``
    honours, and blank lines are skipped.  Whitespace-tolerant.  The
    priority bound d is the maximum priority rounded up to the nearest
    even number (>= 2).

    The text is read in one regex scan of its lines, and the tables are
    built from the scan's columns; ids, header and successors are checked
    on those columns.  Those checks imply every invariant ``validate_game``
    checks, so the game comes back marked valid and is never rescanned.
    A text the scan rejects is walked line by line for its first error
    (see ``_first_error``).
    """
    lines = text.splitlines()
    joined = "\n".join(lines)
    header = _HEADER_RE.match(joined)
    rows = _VERTEX_RE.findall(joined, header.end()) if header else None
    n = len(rows) if rows else 0
    # each row is one whole line, so the scan read the text if the header
    # and the rows are all its non-blank lines
    if not n or n + 1 != len(lines) and n + 1 != sum(map(bool, map(str.strip, lines))):
        raise _first_error(lines)
    id_texts, priorities, owners, succ_texts, quoted = zip(*rows)
    ids = list(map(int, id_texts))
    dense = list(range(n))
    if ids != dense:
        if sorted(ids) != dense:
            raise _first_error(lines)
        _, priorities, owners, succ_texts, quoted = zip(
            *[rows[i] for i in sorted(dense, key=ids.__getitem__)])
    successors = tuple([tuple(map(int, map(str.strip, s.split(",")))) for s in succ_texts])
    if int(header[1]) != n - 1 or max(map(max, successors)) >= n:
        raise _first_error(lines)
    priority = tuple(map(int, priorities))
    g = ParityGame(
        d=even_priority_bound(max(priority)),
        owner=tuple(map(int, owners)),
        priority=priority,
        successors=successors,
        names=tuple([q[1:-1] if q else None for q in quoted]) if any(quoted) else None,
    )
    g.__dict__["_violations"] = ()  # the checks above imply every invariant
    return g


def _first_error(lines: list[str]) -> PGParseError:
    """The error of a text that ``parse_pgsolver``'s scan rejects.  Lines
    are walked in order for a missing ';', a bad header (the first
    non-blank line), a malformed vertex line or a repeated id.  Then come,
    in this order: no header, no vertex lines, ids that are not dense
    (reported at line 1), a header that does not match the ids, and the
    first line, in line order, that names a successor outside the
    vertices."""
    header: tuple[int, int] | None = None  # (line, declared max id)
    records: dict[int, tuple[int, str]] = {}  # id -> (line, successor text)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            return PGParseError(lineno, "missing terminating ';'")
        if header is None:
            m = _HEADER_RE.match(raw)
            if m is None:
                return PGParseError(lineno, f"expected header 'parity <max-id>;', got {line!r}")
            header = (lineno, int(m[1]))
            continue
        m = _VERTEX_RE.match(raw)
        if m is None:
            return PGParseError(lineno, f"malformed vertex line {line!r}")
        vid = int(m[1])
        if vid in records:
            return PGParseError(lineno, f"duplicate vertex id {vid}")
        records[vid] = (lineno, m[4])
    if header is None:
        return PGParseError(len(lines) or 1, "empty input, expected 'parity <max-id>;' header")
    if not records:
        return PGParseError(len(lines) or 1, "no vertex lines after header")
    n = len(records)
    for vid in records:
        if not 0 <= vid < n:
            return PGParseError(1, f"vertex ids are not dense 0..{n - 1} (found {vid})")
    if header[1] != n - 1:
        return PGParseError(
            header[0], f"header declares max id {header[1]}, but the vertices are 0..{n - 1}")
    for lineno, succ_text in records.values():
        for s in map(str.strip, succ_text.split(",")):
            if int(s) >= n:
                return PGParseError(lineno, f"successor {s} references an undeclared vertex")
    raise AssertionError("the scan rejected a text that has no error")


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
