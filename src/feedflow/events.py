"""Event log and follow graph: parsing, validation and the feed index.

The on-disk formats are tab-separated text (see docs/formats.md). Events are
kept in a single global order by (ts, event_id) so that every downstream
computation (queue positions, exposure replay, simulation oracles) sees the
same deterministic timeline.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Sequence, TextIO

import numpy as np

_NO_ROWS = np.empty(0, dtype=np.int64)


class LogFormatError(ValueError):
    """The log as a whole is unusable (e.g. duplicate event ids)."""


class UnknownUserError(KeyError):
    def __init__(self, user: str):
        super().__init__(user)
        self.user = user

    def __str__(self) -> str:
        return f"unknown user: {self.user!r}"


@dataclass(frozen=True)
class LineReject:
    line_no: int
    reason: str


@dataclass
class ParseReport:
    rejects: list[LineReject] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejects)


class SocialGraph:
    """Static directed follow relation (follower -> followee), as CSR over sorted nodes.

    nodes is the sorted tuple of user names; a node's index is its place
    there. The followers of node i are follower_indices[follower_indptr[i]:
    follower_indptr[i + 1]] and the nodes it follows followee_indices[
    followee_indptr[i]:followee_indptr[i + 1]], both ascending. A repeated
    edge counts once.
    """

    def __init__(self, names: Sequence[str], f: np.ndarray, v: np.ndarray):
        """The graph over the sorted names of the edges f[k] -> v[k], given
        as indices into names; LogFormatError for a self-loop."""
        loops = np.flatnonzero(f == v)
        if loops.size:
            raise LogFormatError(f"self-loop edge for user {names[f[loops[0]]]!r}")
        self.nodes = tuple(names)
        self._index = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)
        # np.sort, not np.unique: the first np.unique call imports numpy.ma (10-30 ms).
        key = np.sort(f * n + v)
        key = key[np.diff(key, prepend=-1) != 0]
        f, v = np.divmod(key, n)
        by_followee = np.argsort(v, kind="stable")
        self.followee_indptr = np.searchsorted(f, np.arange(n + 1))
        self.followee_indices = v
        self.follower_indptr = np.searchsorted(v[by_followee], np.arange(n + 1))
        self.follower_indices = f[by_followee]

    def __contains__(self, user: str) -> bool:
        return user in self._index

    def index(self, user: str) -> int:
        """The user's node index."""
        try:
            return self._index[user]
        except KeyError:
            raise UnknownUserError(user) from None

    def followee_slice(self, i: int) -> np.ndarray:
        """Indices of the nodes node i follows, ascending."""
        return self.followee_indices[self.followee_indptr[i]:self.followee_indptr[i + 1]]

    def follower_slice(self, i: int) -> np.ndarray:
        """Indices of the followers of node i, ascending."""
        return self.follower_indices[self.follower_indptr[i]:self.follower_indptr[i + 1]]

    def followee_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of values over the nodes it follows.

        One .sum() per node: the rounding of these sums reaches synth's
        ground-truth report, whose bytes a golden test pins.
        """
        return np.array([values[self.followee_slice(i)].sum() for i in range(len(self.nodes))])

    def n_edges(self) -> int:
        return len(self.followee_indices)

    def to_tsv(self, fh: TextIO) -> None:
        """Write one 'follower<TAB>followee' line per edge, sorted, to the text file."""
        follower = np.repeat(np.arange(len(self.nodes)), np.diff(self.followee_indptr))
        write_table(fh, [(self.nodes, follower), (self.nodes, self.followee_indices)])

    @classmethod
    def from_tsv(cls, fh: BinaryIO) -> "SocialGraph":
        """The graph of a binary file of 'follower<TAB>followee' lines.

        LogFormatError names the first line, in line order, that is not two
        non-empty fields or is a self-loop. Blank lines are skipped.
        """
        names: dict[str, int] = {}
        edges = [np.empty((2, 0), np.int64)]  # per block: follower and followee codes
        for first_line, lines in _blocks(fh, "graph line"):
            follower, followee = lines.width(lines.first), lines.width(lines.last)
            pair = (lines.count() == 2) & (follower > 0) & (followee > 0)
            fast = pair & ~lines.nul & (np.maximum(follower, followee) <= _WIDE)
            slow = np.flatnonzero(pair & ~fast)
            line = np.concatenate([np.flatnonzero(fast), slow])
            code = np.concatenate([
                lines.codes(np.concatenate([lines.first[fast], lines.last[fast]]),
                            names).reshape(2, -1),
                np.array([[names.setdefault(u, len(names)) for u in lines.text(i).split("\t")]
                          for i in slow.tolist()], np.int64).reshape(-1, 2).T], axis=1)
            bad = min(line[code[0] == code[1]].min(initial=len(lines)),
                      np.flatnonzero(lines.nonempty() & ~pair).min(initial=len(lines)))
            if bad < len(lines) and not pair[bad]:
                raise LogFormatError(f"graph line {first_line + bad}: "
                                     "expected 'follower<TAB>followee'")
            if bad < len(lines):
                user = lines.text(bad).split("\t")[0]
                raise LogFormatError(f"graph line {first_line + bad}: "
                                     f"self-loop edge for user {user!r}")
            edges.append(code)
        nodes, rank = _sorted_table(names)
        return cls(nodes, *rank[np.concatenate(edges, axis=1)])


class EventLog:
    """Immutable event collection in the global (ts, event_id) order: the log's row index.

    A row is an event's position in that order. The log is columns over rows:
    ts, ids, author and orig_author (codes into names, -1 for an original),
    forward, orig_ids (0 for an original), orig_row and each token's rows.
    """

    def __init__(self, ts, ids, author, orig_author, orig_ids, names, marks):
        """The log of columns whose rows are in (ts, event_id) order; marks maps
        each token to its ascending rows."""
        self.ts, self.ids, self.author, self.orig_author = ts, ids, author, orig_author
        self.forward = orig_author >= 0
        self.orig_ids, self.names, self._marks = orig_ids, names, marks
        self._code = {name: code for code, name in enumerate(names)}
        self._id_order = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._id_order]
        dup = self._sorted_ids[1:][self._sorted_ids[1:] == self._sorted_ids[:-1]]
        if dup.size:
            raise LogFormatError(f"duplicate event_id {dup[0]}")
        # -1 also for a forward whose original is absent or does not sort before it.
        orig = self.rows_of(orig_ids)
        self.orig_row = np.where(self.forward & (orig < np.arange(len(ids))), orig, -1)
        self._by_author = np.argsort(author, kind="stable")
        self._author_start = np.searchsorted(author[self._by_author], np.arange(len(names) + 1))

    def __len__(self) -> int:
        return len(self.ts)

    def rows(self, author: str, window: tuple[int, int]) -> np.ndarray:
        """The author's rows with ts inside the closed window, ascending."""
        code = self._code.get(author)
        if code is None:
            return _NO_ROWS
        rows = self._by_author[self._author_start[code]:self._author_start[code + 1]]
        ts = self.ts[rows]
        return rows[np.searchsorted(ts, window[0]):np.searchsorted(ts, window[1], "right")]

    def rows_of(self, event_ids: Sequence[int]) -> np.ndarray:
        """Rows of the given event ids; -1 for an id not in the log."""
        ids = np.asarray(event_ids, dtype=np.int64)
        if not len(self):
            return np.full(ids.shape, -1, dtype=self._id_order.dtype)
        at = np.minimum(np.searchsorted(self._sorted_ids, ids), len(self) - 1)
        return np.where(self._sorted_ids[at] == ids, self._id_order[at], -1)

    def token_rows(self, token: str) -> np.ndarray:
        """Rows of the events marked with the token, ascending."""
        return self._marks.get(token, _NO_ROWS)

    def span(self) -> tuple[int, int]:
        return (int(self.ts[0]), int(self.ts[-1])) if len(self) else (0, 0)

    def to_tsv(self, fh: TextIO) -> None:
        """Write one line per event, in row order, to the text file: ts, author, T and
        event_id, or R, event_id, orig_event_id and orig_author, then any tokens."""
        marks: dict[int, list[str]] = {}  # the marked rows only
        for token in sorted(self._marks):
            for r in self._marks[token].tolist():
                marks.setdefault(r, []).append(token)
        code = {t: i for i, t in enumerate(["", *sorted({",".join(m) for m in marks.values()})])}
        mark = np.zeros(len(self), np.int64)
        mark[list(marks)] = [code[",".join(m)] for m in marks.values()]
        write_table(fh, [self.ts, (self.names, self.author), (("T", "R"), self.forward), self.ids,
                         self.orig_ids, (self.names, self.orig_author), (list(code), mark)],
                    present={4: self.forward, 5: self.forward, 6: mark > 0})


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
# Every timestamp lies strictly within +-TS_BOUND, so that the difference of
# any two, such as a forward's delay, fits in signed 64 bits.
TS_BOUND = 1 << 62
_BLOCK = 1 << 22  # bytes read at once; bounds the parse's transient memory
_ROW_BLOCK = 1 << 12  # rows formatted at once; bounds write_table's transient memory
# The widest name or marks field the array path codes; a line with a wider
# one goes through _parse_line. It bounds the words a field is packed into.
_WIDE = 64
_TAB, _NL, _COMMA, _MINUS = 9, 10, 44, 45


def _text_table(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each text, left-aligned in the rows of a matrix, and their mask."""
    data = [t.encode() for t in texts]
    lens = np.array([len(b) for b in data], np.int64)
    keep = np.arange(lens.max(initial=0)) < lens[:, None]
    table = np.zeros(keep.shape, np.uint8)
    table[keep] = np.frombuffer(b"".join(data), np.uint8)
    return table, keep


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each int64 in decimal, right-aligned in the rows of a matrix, and their mask."""
    neg = values < 0
    mag = np.where(neg, 0 - values.astype(np.uint64), values.astype(np.uint64))  # 2^63 fits
    width = len(str(mag.max(initial=0))) + 1  # and a sign
    mat, rest = np.empty((len(values), width), np.uint8), mag
    for j in range(width - 1, 0, -1):
        rest, digit = rest // np.uint64(10), rest
        mat[:, j] = digit - rest * np.uint64(10) + ord("0")
    lens = 1 + neg + np.searchsorted(10 ** np.arange(1, width - 1, dtype=np.uint64), mag, "right")
    mat[neg, width - lens[neg]] = ord("-")
    return mat, np.arange(width) >= width - lens[:, None]


def write_table(fh: TextIO, columns: Sequence, sep: str = "\t",
                present: dict[int, np.ndarray] | None = None) -> None:
    """Write a line per row of the columns, their fields joined by sep. A column is
    an integer array; a float array, written as format(v, ".10g") and NaN as an
    empty field; or a pair (texts, codes) of strings and each row's index into
    them. present maps a column's place to the rows that hold it: the other rows
    leave out the field and the separator before it. Each block of _ROW_BLOCK
    rows is one byte matrix, field by field, whose bytes one boolean mask keeps.
    """
    present, tables, cols = present or {}, {}, []
    for col in columns:
        if not isinstance(col, tuple) and np.asarray(col).dtype.kind == "f":
            # Distinct by bits, so -0.0 is not 0.0 (np.unique merges them, and imports numpy.ma).
            bits = np.ascontiguousarray(col, np.float64).view(np.int64)
            distinct = np.sort(bits)
            distinct = distinct[np.diff(distinct, prepend=distinct[:1] ^ 1) != 0]
            col = (["" if v != v else format(v, ".10g") for v in distinct.view(float).tolist()],
                   np.searchsorted(distinct, bits))
        if isinstance(col, tuple) and id(col[0]) not in tables:  # held, so the id stays theirs
            tables[id(col[0])] = col[0], _text_table(col[0])
        cols.append((tables[id(col[0])][1], col[1]) if isinstance(col, tuple) else np.asarray(col))
    n = len(cols[0][1] if isinstance(cols[0], tuple) else cols[0])
    for lo in range(0, n, _ROW_BLOCK):
        rows, m = slice(lo, lo + _ROW_BLOCK), min(n - lo, _ROW_BLOCK)
        mats, keeps = [], []
        for j, col in enumerate(cols):
            if isinstance(col, tuple):
                codes = col[1][rows].astype(np.intp)
                mat, keep = col[0][0][codes], col[0][1][codes]
            else:
                mat, keep = _decimal(col[rows].astype(np.int64))
            held = present[j][rows, None] if j in present else np.ones((m, 1), bool)
            mats += [np.full((m, 1), ord(sep if j else "\n"), np.uint8), mat]
            keeps += [held, keep & held]
        mat, keep = np.hstack(mats[1:] + mats[:1]), np.hstack(keeps[1:] + keeps[:1])
        fh.write(np.compress(keep.ravel(), mat).tobytes().decode())  # the newline went last


def _int64(text: str, field_name: str) -> str:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad {field_name} {text!r}")
    if not _I64_MIN <= value <= _I64_MAX:
        raise ValueError(f"{field_name} {text!r} is outside signed 64-bit")
    return text


def _parse_line(line: str) -> tuple:
    """The line's fields (ts, author, True for a forward else None, event_id,
    orig_event_id, orig_author, marks) as text, or ValueError naming the
    first rule the line breaks."""
    parts = line.split("\t")
    if len(parts) < 4:
        raise ValueError("expected at least 4 tab-separated fields")
    ts, author, kind, event_id = _int64(parts[0], "timestamp"), *parts[1:4]
    if abs(int(ts)) >= TS_BOUND:
        raise ValueError(f"timestamp {ts!r} is outside (-2^62, 2^62)")
    if not author:
        raise ValueError("empty author")
    if kind not in ("T", "R"):
        raise ValueError(f"bad kind {kind!r}, expected T or R")
    base, orig_id, orig_author = 4, None, None
    if kind == "R":
        if len(parts) < 6:
            raise ValueError("retweet line needs orig_event_id and orig_author")
        base, orig_id, orig_author = 6, _int64(parts[4], "orig_event_id"), parts[5]
        if not orig_author:
            raise ValueError("empty orig_author")
    _int64(event_id, "event_id")
    if len(parts) > base + 1:
        raise ValueError(f"too many fields ({len(parts)})")
    marks = parts[base] if len(parts) == base + 1 else None
    if marks == "":
        raise ValueError("empty marks field (omit the field instead)")
    if marks and not all(marks.split(",")):
        raise ValueError("empty mark token")
    return ts, author, kind == "R" or None, event_id, orig_id, orig_author, marks


def _blocks(fh: BinaryIO, what: str) -> Iterator[tuple[int, _Lines]]:
    """The file as (number of the block's first line, block's lines) pairs.

    A block is about _BLOCK bytes cut after its last newline. As in text mode,
    '\\r\\n' and a lone '\\r' end a line: both become '\\n', and an
    unterminated last line gets one. Each read is checked as UTF-8 before any
    of it is parsed: LogFormatError names the line (what names the file's
    lines) of a byte sequence that is not UTF-8.
    """
    first, tail, more = 1, b"", True
    while more:
        buf = tail + fh.read(_BLOCK)
        more = len(buf) > len(tail)
        if not buf.isascii():
            try:  # a sequence cut by the read is completed by the next one
                codecs.utf_8_decode(buf, "strict", not more)
            except UnicodeDecodeError as exc:
                head = buf[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                line = first + head.count(b"\n")
                raise LogFormatError(f"{what} {line}: not UTF-8 ({exc.reason})") from None
        cut = buf.rfind(b"\n") + 1 if more else len(buf)
        block, tail = buf[:cut], buf[cut:]
        del buf  # only the block stays alive while it is parsed
        if not block:
            continue
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not block.endswith(b"\n"):
            block += b"\n"
        lines = _Lines(block)
        yield first, lines
        first += len(lines)
        del lines  # the caller may free the block's arrays before the next read


class _Lines:
    """A block's lines split at tabs.

    a is the block's bytes. Field j lies between the separators at bound[j]
    and bound[j + 1] (bound[0] is -1, then each tab and newline); line i
    holds fields first[i] to last[i]. nul[i] says the line holds a NUL byte.
    """

    def __init__(self, block: bytes):
        self.a = a = np.frombuffer(block, np.uint8)
        # uint8 arithmetic: a byte below a tab wraps above a newline.
        separators = np.flatnonzero(a - _TAB <= _NL - _TAB)
        position = np.int32 if len(a) < 1 << 31 else np.int64
        self.bound = np.empty(len(separators) + 1, position)
        self.bound[0], self.bound[1:] = -1, separators
        del separators
        self.last = np.flatnonzero(a[self.bound[1:]] == _NL).astype(position)
        self.first = np.concatenate(([0], self.last[:-1] + 1)).astype(position)
        self.nul = np.zeros(len(self.last), bool)
        if (nul := np.flatnonzero(a == 0)).size:
            self.nul[np.searchsorted(self.bound[self.last + 1], nul)] = True

    def __len__(self) -> int:
        return len(self.last)

    def count(self) -> np.ndarray:
        """Each line's number of fields."""
        return self.last - self.first + 1

    def nonempty(self) -> np.ndarray:
        return (self.width(self.first) > 0) | (self.last > self.first)

    def span(self, field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end of each given field, which must exist."""
        return self.bound[field] + 1, self.bound[field + 1]

    def text(self, line: int) -> str:
        start, end = self.bound[self.first[line]] + 1, self.bound[self.last[line] + 1]
        return self.a[start:end].tobytes().decode()

    def ints(self, field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each field's value, and whether the field is a plain decimal
        -?[0-9]{1,18}; the value of any other field is meaningless."""
        start, end = self.span(field)
        neg = self.a.take(start, mode="clip") == _MINUS
        width = end - start - neg
        w = min(int(width.max(initial=1)), 18)
        # Right-aligned digit columns, one uint8 row per column: the byte
        # w - j before the field's end, 0 left of the field.
        d = np.empty((w, len(field)), np.uint8)
        for j in range(w):
            self.a.take(end - (w - j), out=d[j], mode="clip")
        d -= ord("0")  # anything but a digit wraps above 9
        d *= np.arange(w)[:, None] >= w - width
        ok = (width >= 1) & (width <= 18) & (d.max(axis=0, initial=0) <= 9)
        value = d[0].astype(np.int64)
        for j in range(1, w):
            value *= 10
            value += d[j]
        return np.where(neg, -value, value), ok

    def width(self, field: np.ndarray) -> np.ndarray:
        start, end = self.span(field)
        return end - start

    def named(self, field: np.ndarray) -> np.ndarray:
        """Whether each field is non-empty and at most _WIDE bytes."""
        width = self.width(field)
        return (width > 0) & (width <= _WIDE)

    def listed(self, field: np.ndarray) -> np.ndarray:
        """Whether each field is named and non-empty tokens between single commas."""
        start, end = self.span(field)
        ok = self.named(field) & (self.a[start] != _COMMA) & (self.a[end - 1] != _COMMA)
        if (commas := np.flatnonzero(self.a == _COMMA)).size:
            double = np.zeros(len(self.bound), bool)  # the fields holding ",,"
            double[np.searchsorted(self.bound, commas[1:][np.diff(commas) == 1]) - 1] = True
            ok &= ~double[field]
        return ok

    def codes(self, field: np.ndarray, table: dict[str, int]) -> np.ndarray:
        """Each field's code in table, which gives a new text the next code.

        The fields are non-empty, NUL-free and at most _WIDE bytes. Each is
        packed, zero-padded, into uint64 words, which are equal exactly when
        the fields' bytes are; one sort groups them, and only the distinct
        fields are decoded.
        """
        if not len(field):
            return np.empty(0, np.int32)
        start, end = self.span(field)
        width = end - start
        w = int(width.max())
        words = np.zeros(((w + 7) // 8, len(field)), np.uint64)
        for j in range(w):
            byte = self.a.take(start + j, mode="clip")
            byte *= j < width
            words[j // 8] |= byte.astype(np.uint64) << (8 * (7 - j % 8))
        order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
        words = words[:, order]
        new = np.concatenate(([True], (words[:, 1:] != words[:, :-1]).any(axis=0)))
        del words
        first = order[new]
        distinct = [table.setdefault(self.a[s:e].tobytes().decode(), len(table))
                    for s, e in zip(start[first].tolist(), end[first].tolist())]
        rank = np.cumsum(new, dtype=np.int32)
        rank -= 1
        code = np.empty(len(field), np.int32)
        code[order] = np.array(distinct, np.int32)[rank]
        return code


def _sorted_table(table: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The table's texts in sorted order, and each old code's place there."""
    texts = sorted(table)
    rank = np.empty(len(table), np.int64)
    rank[list(map(table.__getitem__, texts))] = np.arange(len(table))
    return texts, rank


def parse_event_log(fh: BinaryIO) -> tuple[EventLog, ParseReport]:
    """Parse a binary event TSV file into a validated, sorted EventLog.

    Malformed lines and retweets with bad references are rejected one by one
    into the report: per-line rejects in line order, then reference rejects in
    (ts, event_id) order. A duplicate event_id, or a byte sequence that is not
    UTF-8, rejects the whole log.
    """
    report = ParseReport()
    names: dict[str, int] = {}
    fields: dict[str, int] = {}  # marks field -> code
    pieces: list[list[np.ndarray]] = [[] for _ in range(7)]  # per column, one per block
    for first, lines in _blocks(fh, "line"):
        for piece, column in zip(pieces, _parse_block(first, lines, names, fields, report)):
            piece.append(column)
        del lines  # only its columns outlive a block
    return EventLog(*_check_references(pieces, names, fields, report)), report


def _shaped(lines: _Lines) -> np.ndarray:
    """The lines without a NUL byte that have 4 or 5 fields and kind T, or 6
    or 7 fields and kind R."""
    n = lines.count()
    rows = np.flatnonzero((n >= 4) & (n <= 7) & ~lines.nul)
    start, end = lines.span(lines.first[rows] + 2)
    kind = np.where(n[rows] >= 6, ord("R"), ord("T"))
    return rows[(end - start == 1) & (lines.a[start] == kind)]


def _parse_block(first_line: int, lines: _Lines, names: dict[str, int],
                 fields: dict[str, int], report: ParseReport) -> list[np.ndarray]:
    """The block's parsed lines as columns: line_no, ts, ids, orig_ids, author
    and orig_author codes in names (-1 for an original), and marks field code
    in fields (-1 for none).

    The array masks pass exactly the lines whose fields are 4 or 5 for T and
    6 or 7 for R, whose integers are ASCII -?[0-9]{1,18}, whose names are
    non-empty and whose marks are non-empty tokens between single commas; they
    also hold back a line with a NUL byte or a field wider than _WIDE. Those
    lines are read from the arrays; every other non-empty line goes through
    _parse_line, which rejects it or reads it.
    """
    rows = _shaped(lines)
    f = lines.first[rows]
    fields_in_line = lines.last[rows] - f + 1
    fwd = fields_in_line >= 6
    marked = fields_in_line % 2 == 1  # the fifth of a T line, the seventh of an R line
    ts, good = lines.ints(f)
    ids, ok = lines.ints(f + 3)
    good &= ok
    orig_ids = np.zeros(len(rows), np.int64)
    orig_ids[fwd], ok = lines.ints(f[fwd] + 4)
    good[fwd] &= ok
    good &= lines.named(f + 1)
    good[fwd] &= lines.named(f[fwd] + 5)
    good[marked] &= lines.listed(lines.last[rows[marked]])

    rows, f, fwd, marked = rows[good], f[good], fwd[good], marked[good]
    ts, ids, orig_ids = ts[good], ids[good], orig_ids[good]
    orig_code = np.full(len(rows), -1, np.int32)
    orig_code[fwd] = lines.codes(f[fwd] + 5, names)
    mark_code = np.full(len(rows), -1, np.int32)
    mark_code[marked] = lines.codes(lines.last[rows[marked]], fields)
    columns = [rows.astype(np.int64) + first_line, ts, ids, orig_ids, lines.codes(f + 1, names),
               orig_code, mark_code]

    fast = np.zeros(len(lines), bool)
    fast[rows] = True
    slow = []
    for i in np.flatnonzero(~fast & lines.nonempty()).tolist():
        try:
            t, author, is_fwd, event_id, orig_id, orig_author, marks = _parse_line(lines.text(i))
        except ValueError as exc:
            report.rejects.append(LineReject(first_line + i, str(exc)))
            continue
        slow.append((first_line + i, int(t), int(event_id), int(orig_id) if is_fwd else 0,
                     names.setdefault(author, len(names)),
                     names.setdefault(orig_author, len(names)) if is_fwd else -1,
                     fields.setdefault(marks, len(fields)) if marks else -1))
    if slow:
        columns = [np.concatenate([col, np.array(extra, col.dtype)])
                   for col, extra in zip(columns, zip(*slow))]
    return columns


def _originals(ids, line_no, orig_ids) -> np.ndarray:
    """The index of the parsed line holding each orig_id, -1 for none;
    LogFormatError naming both lines of a repeated id."""
    by_id = np.lexsort((line_no, ids))
    sorted_ids = ids[by_id]
    dup = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
    if dup.size:
        # The repeat met first in line order, and the line of the id's first use.
        j = dup[np.argmin(line_no[by_id[dup + 1]])]
        raise LogFormatError(f"duplicate event_id {sorted_ids[j]} at lines "
                             f"{line_no[by_id[j]]} and {line_no[by_id[j + 1]]}")
    at = np.searchsorted(sorted_ids, orig_ids).clip(0, max(len(ids) - 1, 0))
    return np.where(sorted_ids[at] == orig_ids, by_id[at], -1)


def _check_references(pieces: list[list[np.ndarray]], names: dict[str, int],
                      fields: dict[str, int], report: ParseReport) -> tuple:
    """The EventLog arguments of the parsed lines whose forward references
    hold; each other forward goes to the report, in (ts, event_id) order.

    pieces holds the parsed lines' columns line_no, ts, ids, orig_ids, author,
    orig_author and mark, each in pieces that are joined here and freed. names
    and fields give the texts of the codes in author, orig_author and mark, in
    code order; the log's names are sorted.
    """
    line_no, ts, ids, orig_ids, author, orig_author, mark = (
        np.concatenate(piece) if len(piece) > 1 else (piece or [_NO_ROWS])[0]
        for piece in (pieces.pop(0) for _ in range(7)))
    by_code = list(names)
    forward = orig_author >= 0
    orig = _originals(ids, line_no, orig_ids)
    found = forward & (orig >= 0)
    before = found & ((ts[orig] < ts) | (ts[orig] == ts) & (ids[orig] < ids))
    # A forward of a rejected forward is rejected too: pointer jumping over
    # the originals ORs each chain's own rejects, doubling its reach a pass.
    rejected = (forward & ~before) | (before & (author[orig] != orig_author))
    jump = np.where(before, orig, np.arange(len(ids)))
    while True:
        rejected |= rejected[jump]
        if np.array_equal(jump[jump], jump):
            break
        jump = jump[jump]
    order = np.lexsort((ids, ts))
    for i in order[rejected[order]].tolist():
        rid, oid = ids[i], orig_ids[i]
        if not found[i] or rejected[orig[i]] and before[i]:
            reason = f"retweet {rid} references unknown or rejected event {oid}"
        elif not before[i]:
            reason = f"retweet {rid} precedes its original {oid} in time order"
        else:
            reason = (f"retweet {rid} names author {by_code[orig_author[i]]!r} but event "
                      f"{oid} was posted by {by_code[author[orig[i]]]!r}")
        report.rejects.append(LineReject(int(line_no[i]), reason))

    kept = order[~rejected[order]]
    texts, rank = _sorted_table(names)
    rank = rank.astype(np.int32)
    return (ts[kept], ids[kept], rank[author[kept]],
            np.where(forward[kept], rank[orig_author[kept]], np.int32(-1)), orig_ids[kept],
            texts, _mark_rows(mark[kept], list(fields)))


def _mark_rows(mark: np.ndarray, fields: list[str]) -> dict[str, np.ndarray]:
    """Each mark token's ascending rows, from each row's marks field code
    (-1 for none) into fields, the comma-separated token lists."""
    rows = np.flatnonzero(mark >= 0)
    rows = rows[np.argsort(mark[rows], kind="stable")]
    bounds = np.searchsorted(mark[rows], np.arange(len(fields) + 1)).tolist()
    by_token: dict[str, list[np.ndarray]] = {}
    for field, lo, hi in zip(fields, bounds, bounds[1:]):
        if hi > lo:
            for token in set(field.split(",")):
                by_token.setdefault(token, []).append(rows[lo:hi])
    # np.sort, not np.unique: the first np.unique call imports numpy.ma (10-30 ms).
    return {token: np.sort(np.concatenate(r)) for token, r in by_token.items()}


class FeedIndex:
    """Every user's feed over a closed window, as sorted rows of the log.

    A user's feed holds the in-window rows of her followees. The forwards of
    feed items and the queue positions read the feed from here.
    """

    def __init__(self, log: EventLog, graph: SocialGraph, window: tuple[int, int]):
        self.log = log
        self.graph = graph
        self.window = window
        self._rows = [log.rows(v, window) for v in graph.nodes]  # indexed by node

    def rows(self, user: str) -> np.ndarray:
        """The user's feed as sorted log rows."""
        followees = self.graph.followee_slice(self.graph.index(user))
        parts = list(map(self._rows.__getitem__, followees.tolist()))
        return np.sort(np.concatenate(parts)) if parts else _NO_ROWS

    def locate(self, user: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The user's feed rows, and each given row's index in them (-1 if not in the feed)."""
        feed = self.rows(user)
        at = np.searchsorted(feed, rows)
        return feed, np.where(at < np.searchsorted(feed, rows, "right"), at, -1)

    def forwards(self, user: str) -> np.ndarray:
        """Rows of the user's own forwards inside the window."""
        rows = self.log.rows(user, self.window)
        return rows[self.log.forward[rows]]


class FeedCounts:
    """Every user's feed counts over a closed window, as columns indexed by node.

    A user's feed holds the in-window rows of her followees; with
    originals_only, only their original posts. followees is each user's
    followee count. Each other column is computed when it is asked for, in
    array passes over the window's rows and forwards.
    """

    def __init__(self, log: EventLog, graph: SocialGraph, window: tuple[int, int],
                 originals_only: bool = False):
        self.log, self.graph, self.originals_only = log, graph, originals_only
        self.followees = np.diff(graph.followee_indptr)
        # Each author code's node, -1 for a name that is not in the graph.
        self._node = np.array([graph._index.get(name, -1) for name in log.names], np.int64)
        self._lo = int(np.searchsorted(log.ts, window[0]))
        self._hi = int(np.searchsorted(log.ts, window[1], "right"))

    def _forwards(self) -> np.ndarray:
        """The in-window forward rows, ascending."""
        return self._lo + np.flatnonzero(self.log.forward[self._lo:self._hi])

    def _per_node(self, codes: np.ndarray) -> np.ndarray:
        """Each node's number of the given author codes."""
        count = np.bincount(codes, minlength=len(self.log.names))
        known = self._node >= 0
        out = np.zeros(len(self.graph.nodes), np.int64)
        out[self._node[known]] = count[known]
        return out

    def _follows(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Whether node u[k] follows node v[k]; False where either is -1."""
        graph, n = self.graph, len(self.graph.nodes)
        # Each edge as follower * n + followee, ascending, then a key above all
        # others, so every search lands on an element. Built here, not kept by
        # the graph, so that commands without these counts do not hold it.
        edges = np.append(np.repeat(np.arange(n), np.diff(graph.followee_indptr)) * n
                          + graph.followee_indices, np.iinfo(np.int64).max)
        key = u * n + v
        key[v < 0] = -1  # u * n - 1 would be the edge (u - 1, n - 1)
        return edges[np.searchsorted(edges, key)] == key

    def _distinct(self, key: np.ndarray, base: int) -> np.ndarray:
        """Each node's number of distinct keys u * base + x, 0 <= x < base,
        among the given keys; sorts them in place."""
        key.sort()  # np.unique would import numpy.ma
        return np.bincount(key[np.diff(key, prepend=-1) != 0] // base,
                           minlength=len(self.graph.nodes))

    def posted(self) -> np.ndarray:
        """Each user's own in-window rows, originals and forwards."""
        return self._per_node(self.log.author[self._lo:self._hi])

    def received(self) -> np.ndarray:
        """Each user's number of feed items."""
        per_node = self.posted()
        if self.originals_only:
            per_node -= self._per_node(self.log.author[self._forwards()])
        ptr = self.graph.followee_indptr
        sums = np.concatenate(([0], np.cumsum(per_node[self.graph.followee_indices])))
        return sums[ptr[1:]] - sums[ptr[:-1]]

    def forwarded(self) -> np.ndarray:
        """Each user's number of distinct feed items she forwarded inside the window."""
        log, rows = self.log, self._forwards()
        u, item = self._node[log.author[rows]], log.orig_row[rows]
        del rows  # every array here is sized to the forwards: hold few at once
        # orig_row is -1 or an earlier row, so an item at or after lo is in the window.
        keep = item >= self._lo
        if self.originals_only:
            keep &= ~log.forward[item]
        u, item = u[keep], item[keep]
        fed = self._follows(u, self._node[log.author[item]])
        return self._distinct(u[fed] * len(log) + item[fed], len(log))

    def sources(self) -> tuple[np.ndarray, np.ndarray]:
        """Each user's number of distinct followees she forwarded from inside
        the window, and her in-window forwards of users she does not follow."""
        rows = self._forwards()
        u, v = self._node[self.log.author[rows]], self._node[self.log.orig_author[rows]]
        known = u >= 0
        u, v = u[known], v[known]
        fed = self._follows(u, v)
        n = len(self.graph.nodes)
        return self._distinct(u[fed] * n + v[fed], n), np.bincount(u[~fed], minlength=n)
