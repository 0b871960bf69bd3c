"""File formats: FASTA in/out, k-mer count tables, and read sets.

All formats are plain text. The two tabular formats are ASCII and carry a
single tab-separated header line of ``#key=value`` fields that pins the
parameters needed to interpret the rows; readers verify the rows against it.
Each format has one reader, and its errors name the file and the first bad line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FastaParseError
from .kmers import _INT64_MAX, MAX_K, KmerTable
from .model import _BYTE_TO_CODE, _CODE_TO_BYTE, CircularSequence, ReadSet

FASTA_LINE_WIDTH = 70
_NL = ord("\n")
_TAB = ord("\t")


@dataclass(frozen=True)
class FastaRecord:
    """One named sequence. ``dropped`` counts symbols removed in drop mode."""

    name: str
    seq: CircularSequence
    dropped: int = 0


def parse_fasta(text: str, on_invalid: str = "error") -> list[FastaRecord]:
    """Parse FASTA text into records.

    ``on_invalid`` controls non-ACGT symbols in sequence lines: ``"error"``
    (default) raises with the line and column, ``"drop"`` removes them and
    counts removals per record. Case is folded; blank lines are skipped.
    """
    if on_invalid not in ("error", "drop"):
        raise ValueError(f"on_invalid must be 'error' or 'drop', got {on_invalid!r}")
    records: list[FastaRecord] = []
    name: str | None = None
    lines: list[str] = []
    linenos: list[int] = []

    def flush():
        nonlocal name, lines, linenos
        if name is None:
            return
        codes, dropped = _record_codes(lines, linenos, on_invalid)
        if not codes.size:
            raise FastaParseError(f"record {name!r} has an empty sequence")
        records.append(FastaRecord(name, CircularSequence(codes), dropped))
        name, lines, linenos = None, [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].strip()
            if not name:
                raise FastaParseError(f"line {lineno}: header has no name")
            continue
        if name is None:
            raise FastaParseError(f"line {lineno}: sequence data before any '>' header")
        lines.append(line)
        linenos.append(lineno)
    flush()
    if not records:
        raise FastaParseError("no records found")
    return records


def _record_codes(lines: list[str], linenos: list[int], on_invalid: str) -> tuple[np.ndarray, int]:
    """Codes of one record's sequence lines and the number of symbols dropped.

    Only ``acgtACGT`` are valid. Encoding with ``"replace"`` turns each
    non-ASCII character into one invalid byte, so byte offsets are character
    offsets and an error can name its line and column.
    """
    joined = "".join(lines)
    codes = _BYTE_TO_CODE[np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8)]
    bad = codes == 255
    if not bad.any():
        return codes, 0
    if on_invalid == "drop":
        return codes[~bad], int(np.count_nonzero(bad))
    pos = int(np.argmax(bad))
    ends = np.cumsum([len(line) for line in lines])
    i = int(np.searchsorted(ends, pos, side="right"))
    col = pos - (int(ends[i - 1]) if i else 0) + 1
    raise FastaParseError(f"line {linenos[i]}, column {col}: invalid symbol {joined[pos]!r}")


def read_fasta(path: str | Path, on_invalid: str = "error") -> list[FastaRecord]:
    """:func:`parse_fasta` of a file; errors name the file."""
    try:
        return parse_fasta(Path(path).read_text(encoding="utf-8"), on_invalid)
    except (FastaParseError, UnicodeDecodeError) as exc:
        raise FastaParseError(f"{path}: {exc}") from None


def write_fasta(path: str | Path, records: list[FastaRecord]) -> None:
    """Each record as a ``>name`` line, then lines of ``FASTA_LINE_WIDTH`` symbols.
    A name that :func:`read_fasta` would not read back (blank, or holding a
    line break ``str.splitlines`` knows) is a ValueError, raised before the
    file is opened."""
    for rec in records:
        if not rec.name.strip() or rec.name.splitlines() != [rec.name]:
            raise ValueError(f"FASTA record name {rec.name!r} is blank or holds a line break")
    with Path(path).open("wb") as fh:
        for rec in records:
            codes = rec.seq.codes
            full = codes.size - codes.size % FASTA_LINE_WIDTH
            fh.write(f">{rec.name}\n".encode())
            _write_lines(fh, codes[:full].reshape(-1, FASTA_LINE_WIDTH))
            if full < codes.size:
                _write_lines(fh, codes[None, full:])


def _parse_header(line: str, expected_keys: tuple[str, ...], where: str) -> list[str]:
    fields = line.split("\t")
    if len(fields) != len(expected_keys):
        raise ValueError(f"{where}: header must have fields {expected_keys}, got {len(fields)} fields")
    for field, key in zip(fields, expected_keys):
        if not field.startswith(f"#{key}="):
            raise ValueError(f"{where}: expected header field #{key}=<value>, got {field!r}")
    return [field.split("=", 1)[1] for field in fields]


def _split_header(path: Path, data: bytes | bytearray) -> tuple[str, bytes | bytearray, np.ndarray, int]:
    """Header line, the bytes ``data`` of file ``path`` (with line ends made
    ``\\n``, and as an array viewing them) and where the line after the
    header starts. ``\\r\\n`` and a lone ``\\r`` end a line as ``\\n``
    does, the last line end is optional and non-ASCII bytes are errors."""
    if not data:
        raise ValueError(f"{path}: empty file")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    if not data.isascii():
        pos = int(np.argmax(raw >= 0x80))
        raise ValueError(f"{path}, line {_line(raw, pos)}: non-ASCII byte 0x{raw[pos]:02x}")
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    return data[:end].decode("ascii"), data, raw, end + 1


def _rows(raw: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of every non-blank line of ``raw[first:last]``, where
    ``first`` starts a line and ``last`` follows a line end or is the end
    of the file."""
    if first >= last:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    ends = first + np.flatnonzero(raw[first:last] == _NL)
    if raw[last - 1] != _NL:
        ends = np.append(ends, last)
    starts = np.append(first, ends[:-1] + 1)
    filled = ends > starts
    if not filled.all():
        starts, ends = starts[filled], ends[filled]
    return starts, ends


def _line(raw: np.ndarray, pos: int) -> int:
    """Line number of the byte at ``pos``, counted afresh: errors only need one."""
    return 1 + int(np.count_nonzero(raw[:pos] == _NL))


def _first(bad: np.ndarray, default: int) -> int:
    return int(np.argmax(bad)) if bad.any() else default


# --- k-mer count tables -----------------------------------------------------

_MAX_COUNT_DIGITS = 19  # as many as int64 needs; any 19-digit count fits in uint64
_POW10 = 10 ** np.arange(_MAX_COUNT_DIGITS, dtype=np.uint64)
# The table and read writers format this many bytes of rows at a time, so
# their memory does not grow with the file.
_BLOCK_BYTES = 1 << 18
# The 4 ASCII bytes of each byte of a packed key (4 symbols, the first in the
# high bits) as one uint32, its bytes in symbol order in memory.
_QUAD = _CODE_TO_BYTE[(np.arange(256)[:, None] >> np.arange(6, -1, -2)) & 3].view(np.uint32).ravel()


# The table reader decodes this many rows at a time, so its temporaries do
# not grow with the file; at 2^14 rather than 2^16 they stay in cache, and a
# 1e6-row table reads in 111 ms rather than 129.
_READ_BLOCK_ROWS = 1 << 14


def _block_rows(width: int) -> int:
    """How many rows of ``width`` bytes a writer formats at a time."""
    return max(1, _BLOCK_BYTES // width)


def write_kmer_table(path: str | Path, table: KmerTable) -> None:
    """One header line ``#k=<k>\\t#total=<total>\\t#provenance=<...>``, with
    ``\\t#G=<G>`` after it for a read table that records G, then
    tab-separated (k-mer, count) rows in packed-key order."""
    record_g = table.provenance == "reads" and table.source_len is not None
    g = f"\t#G={table.source_len}" if record_g else ""
    header = f"#k={table.k}\t#total={table.total}\t#provenance={table.provenance}{g}\n"
    step = _block_rows(table.k + 2 + _MAX_COUNT_DIGITS)
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        for i in range(0, table.keys.size, step):
            fh.write(_format_table_rows(table.k, table.keys[i : i + step], table.counts[i : i + step]))


def _format_table_rows(k: int, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The bytes of ``KMER\\tCOUNT\\n`` rows. They are laid out in a
    ``(rows, W)`` matrix, W the widest row rounded up to 4: the k-mer 4
    symbols per ``_QUAD`` lookup, a tab, each count right-aligned in the
    widest count's digits and a newline. A shorter count's leading columns
    are then dropped."""
    counts = counts.view(np.uint64)
    fewest, d = np.searchsorted(_POW10, [counts.min(), counts.max()], side="right")
    width = k + 2 + int(d)  # k-mer, tab, digits, newline
    quads = -(-k // 4)
    rows = np.empty((keys.size, -(-width // 4) * 4), dtype=np.uint8)
    # key bytes most significant first, the last symbol shifted to the end of its byte
    key_bytes = (keys << np.uint64(8 * quads - 2 * k)).astype(">u8").view(np.uint8).reshape(-1, 8)
    rows.view(np.uint32)[:, :quads] = _QUAD[key_bytes[:, 8 - quads :]]
    rows[:, k] = _TAB
    rest = counts if d > 9 else counts.astype(np.uint32)  # uint32 divides faster
    for j in range(width - 2, k, -1):
        rest, rows[:, j] = np.divmod(rest, rest.dtype.type(10))
    rows[:, k + 1 : width - 1] += ord("0")
    rows[:, width - 1] = _NL
    if fewest == d:
        return np.ascontiguousarray(rows[:, :width])
    # the columns kept in a row of each digit count, picked by the row's count
    col = np.arange(rows.shape[1])
    keep = (col >= width - 1 - np.arange(d + 1)[:, None]) & (col < width)
    keep[:, : k + 1] = True
    return rows[keep[np.searchsorted(_POW10, counts, side="right")]]


def _header_ints(values: list[str], names: str, where: str) -> list[int]:
    """Header integers, held to the grammar of a row's count: ASCII digits only."""
    try:
        if all(v.isascii() and v.isdigit() for v in values):
            return [int(v) for v in values]
    except ValueError:  # past Python's limit on digits per int
        pass
    raise ValueError(f"{where}: {names} must be unsigned decimal integers")


def _table_header(line: str, where: str) -> tuple[int, int, str, int | None]:
    """k, total, provenance and G, which is None when the optional ``#G`` is absent."""
    keys = ("k", "total", "provenance", "G")[: 4 if line.count("\t") == 3 else 3]
    k, total, provenance, *g = _parse_header(line, keys, where)
    k, total, *g = _header_ints([k, total, *g], "k, total and G" if g else "k and total", where)
    if provenance not in ("sequence", "reads"):
        raise ValueError(f"{where}: provenance must be 'sequence' or 'reads', got {provenance!r}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"{where}: k must be in 1..{MAX_K}, got {k}")
    g = g[0] if g else None
    if provenance == "sequence" and g not in (None, total):
        raise ValueError(f"{where}: a sequence table's G is its total {total}, got G={g}")
    return k, total, provenance, g


def read_kmer_table(path: str | Path) -> KmerTable:
    """Inverse of :func:`write_kmer_table`.

    A row is k symbols of ``ACGTacgt``, a tab and a count of 1-19 decimal
    digits from 1 to 2^63 - 1. A header without ``#G`` leaves a read
    table's G unknown. Errors name the file and the first bad line.
    """
    path = Path(path)
    header, data, raw, at = _split_header(path, path.read_bytes())
    k, total, provenance, g = _table_header(header, str(path))
    most = (raw.size - at + 1) // (k + 3)  # rows at most: k + 2 bytes a row and its line end
    keys = np.zeros(most, dtype=np.uint64)
    counts = np.zeros(most, dtype=np.uint64)
    b = 0  # rows read
    while at < raw.size:
        # whole lines, as many bytes at least as _READ_BLOCK_ROWS rows of one digit
        end = data.find(b"\n", at + _READ_BLOCK_ROWS * (k + 3) - 1) + 1 or raw.size
        starts, ends = _rows(raw, at, end)
        at, size = end, starts.size
        # rows before the first of a bad width can be read column by column
        ndigits = ends - starts - (k + 1)
        n = _first((ndigits < 1) | (ndigits > _MAX_COUNT_DIGITS), size)
        first, ndigits = starts[:n], ndigits[:n]
        block_keys, block_counts = keys[b : b + n], counts[b : b + n]
        symbols = np.zeros(n, dtype=np.uint8)  # OR of a row's codes: above 3 unless all are bases
        for j in range(k):
            codes = _BYTE_TO_CODE.take(raw[first + j])
            symbols |= codes
            block_keys <<= np.uint64(2)
            block_keys |= codes
        bad = (symbols > 3) | (raw[first + k] != _TAB)
        # digits right to left; a row drops out after its last digit. Any 19
        # digits fit in uint64, so a count past int64 is caught, not wrapped.
        pos, rows = ends[:n] - 1, np.arange(n)
        for d in range(int(ndigits.max()) if n else 0):
            digit = raw[pos] - np.uint8(ord("0"))  # non-digits wrap above 9
            bad[rows] |= digit > 9
            block_counts[rows] += digit.astype(np.uint64) * _POW10[d]
            live = ndigits[rows] > d + 1
            pos, rows = pos[live] - 1, rows[live]
        n = _first(bad | (block_counts == 0) | (block_counts > np.uint64(_INT64_MAX)), n)
        if n < size:
            row = raw[starts[n] : ends[n]]
            raise ValueError(f"{path}, line {_line(raw, starts[n])}: {_table_row_error(row, k)}")
        b += size
    keys, counts = keys[:b], counts[:b]
    if np.any(keys[1:] <= keys[:-1]):  # KmerTable sorts them; a repeat is named here
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            again = repeats.min()
            starts, _ = _rows(raw, len(header) + 1, raw.size)  # found again: errors only need them once
            kmer = raw[starts[again] : starts[again] + k].tobytes().decode("ascii")
            earlier = _line(raw, starts[np.argmax(keys == keys[again])])
            raise ValueError(f"{path}, line {_line(raw, starts[again])}: k-mer {kmer!r} repeats line {earlier}")
    try:
        # a sequence table's G is its total, which the header check ties to #G
        table = KmerTable(k, keys, counts.view(np.int64), provenance, None if provenance == "sequence" else g)
    except ValueError as exc:  # counts that sum past int64, or a read table's G below 1
        raise ValueError(f"{path}: {exc}") from None
    if table.total != total:
        raise ValueError(f"{path}: header total {total} but rows sum to {table.total}")
    return table


def _table_row_error(row: np.ndarray, k: int) -> str:
    """What is wrong with a row, checked in a fixed order."""
    parts = row.tobytes().decode("ascii").split("\t")
    if len(parts) != 2:
        return "expected 'KMER\\tCOUNT'"
    kmer, count_text = parts
    if len(kmer) != k:
        return f"k-mer {kmer!r} has length {len(kmer)}, header says k={k}"
    if not count_text.isdigit():
        return f"count {count_text!r} is not an integer"
    count = int(count_text)
    if count == 0:
        return "count must be positive, got 0"
    if count > _INT64_MAX:
        return f"count {count} exceeds int64"
    if len(count_text) > _MAX_COUNT_DIGITS:
        return f"count {count_text!r} has more than {_MAX_COUNT_DIGITS} digits"
    ch = next(ch for ch in kmer if ch not in "ACGTacgt")
    return f"invalid nucleotide {ch!r} in k-mer {kmer!r}"


# --- read sets ---------------------------------------------------------------

# bytes.translate table from a row of codes ended by a 4 to its line
_READ_ROW_BYTES = (_CODE_TO_BYTE.tobytes() + b"\n").ljust(256, b"\0")


def write_reads(path: str | Path, reads: ReadSet) -> None:
    """One header line ``#L=<L>\\t#N=<N>\\t#G=<G>``, then one read per line.

    Start positions are deliberately not stored: consumers must work from
    read content alone.
    """
    header = f"#L={reads.read_len}\t#N={reads.num_reads}\t#G={reads.source_len}\n"
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        _write_lines(fh, reads.matrix)


def _write_lines(fh, matrix: np.ndarray) -> None:
    """Each row of the code ``matrix`` as a text line, a block of rows at a time."""
    N, width = matrix.shape
    step = _block_rows(width + 1)
    rows = np.empty((min(step, N), width + 1), dtype=np.uint8)
    rows[:, -1] = 4
    for i in range(0, N, step):
        block = matrix[i : i + step]
        rows[: len(block), :-1] = block
        fh.write(rows[: len(block)].tobytes().translate(_READ_ROW_BYTES))


def _reads_header(line: str, where: str) -> tuple[int, int, int]:
    L, N, G = _header_ints(_parse_header(line, ("L", "N", "G"), where), "L, N, G", where)
    if L < 1 or G < 1:
        raise ValueError(f"{where}: need L >= 1, N >= 0, G >= 1")
    return L, N, G


def read_reads(path: str | Path) -> ReadSet:
    """Inverse of :func:`write_reads`: N rows of L symbols of ``ACGTacgt``."""
    path = Path(path)
    with path.open("rb") as fh:  # into a bytearray, so the codes translated from it are writable
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]
    header, data, raw, at = _split_header(path, data)
    starts, ends = _rows(raw, at, raw.size)
    L, N, G = _reads_header(header, str(path))
    # rows before the first of a bad length or past N; with every line end
    # deleted, they follow the header's bytes in the translated file
    n = min(N, _first(ends - starts != L, starts.size))
    codes = np.frombuffer(data.translate(_BYTE_TO_CODE.tobytes(), b"\n"), dtype=np.uint8)
    codes = codes[len(header) : len(header) + n * L].reshape(n, L)
    n = _first(codes.max(axis=1) > 3, n)
    if n < starts.size:
        row = raw[starts[n] : ends[n]]
        raise ValueError(f"{path}, line {_line(raw, starts[n])}: {_reads_row_error(row, n, L, N)}")
    if n != N:
        raise ValueError(f"{path}: header says N={N} reads but found {n}")
    return ReadSet(codes, G)


def _reads_row_error(row: np.ndarray, i: int, L: int, N: int) -> str:
    """What is wrong with row ``i``, checked in a fixed order."""
    if i >= N:
        return f"more than N={N} reads"
    if row.size != L:
        return f"read length {row.size} but header says L={L}"
    pos = int(np.argmax(_BYTE_TO_CODE[row] > 3))
    return f"non-ACGT symbol {chr(row[pos])!r} at position {pos + 1}"
