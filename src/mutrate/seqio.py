"""File formats: FASTA in/out, k-mer count tables, and read sets.

All formats are plain text. The two tabular formats carry a single
tab-separated header line of ``#key=value`` fields that pins the parameters
needed to interpret the rows; readers verify the rows against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FastaParseError
from .kmers import MAX_K, KmerTable, encode_kmer
from .model import _BYTE_TO_CODE, _CODE_TO_BYTE, CircularSequence, ReadSet, string_to_codes

FASTA_LINE_WIDTH = 70


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
    return parse_fasta(Path(path).read_text(), on_invalid)


def write_fasta(path: str | Path, records: list[FastaRecord] | list[tuple[str, CircularSequence]]) -> None:
    lines = []
    for rec in records:
        if isinstance(rec, FastaRecord):
            name, seq = rec.name, rec.seq
        else:
            name, seq = rec
        lines.append(f">{name}")
        text = seq.to_string()
        for i in range(0, len(text), FASTA_LINE_WIDTH):
            lines.append(text[i : i + FASTA_LINE_WIDTH])
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_header(line: str, expected_keys: tuple[str, ...], where: str) -> dict[str, str]:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != len(expected_keys):
        raise ValueError(
            f"{where}: header must have fields {expected_keys}, got {len(fields)} fields"
        )
    out = {}
    for field, key in zip(fields, expected_keys):
        prefix = f"#{key}="
        if not field.startswith(prefix):
            raise ValueError(f"{where}: expected header field {prefix}<value>, got {field!r}")
        out[key] = field[len(prefix) :]
    return out


def _split_canonical(data: bytes) -> tuple[str, np.ndarray] | None:
    """Header line and body bytes of an ASCII file with ``\\n`` line ends.

    ``None`` for anything else (empty, non-ASCII or ``\\r`` in the header):
    such files go to the text-mode row loops, which decode and split lines
    as they always have and raise the same messages.
    """
    cut = data.find(b"\n") + 1 or len(data)
    head = data[:cut]
    if not head or not head.isascii() or b"\r" in head:
        return None
    return head.decode("ascii"), np.frombuffer(data, dtype=np.uint8)[cut:]


# --- k-mer count tables -----------------------------------------------------

_MAX_COUNT_DIGITS = 18  # any 18-digit count fits in int64
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def write_kmer_table(path: str | Path, table: KmerTable) -> None:
    """One header line ``#k=<k>\\t#total=<total>\\t#provenance=<...>``, then
    tab-separated (k-mer, count) rows in packed-key order."""
    header = f"#k={table.k}\t#total={table.total}\t#provenance={table.provenance}\n"
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(_format_table_rows(table.k, table.keys, table.counts))


def _format_table_rows(k: int, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``KMER\\tCOUNT\\n`` rows laid out in one buffer, one column at a time."""
    ndigits = 1 + np.searchsorted(_POW10, counts, side="right")
    lengths = k + 2 + ndigits  # k-mer, tab, digits, newline
    ends = np.cumsum(lengths)  # one past each row's newline
    starts = ends - lengths
    del ndigits, lengths
    buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    for j in range(k):
        shift = np.uint64(2 * (k - 1 - j))
        buf[starts + j] = _CODE_TO_BYTE[(keys >> shift) & np.uint64(3)]
    buf[starts + k] = ord("\t")
    del starts
    ends -= 1
    buf[ends] = ord("\n")
    # digits right to left; a row drops out once its count is used up
    pos, rest = ends - 1, counts
    while pos.size:
        buf[pos] = ord("0") + rest % 10
        rest = rest // 10
        live = rest > 0
        pos, rest = pos[live] - 1, rest[live]
    return buf


def _table_header(line: str, where: str) -> tuple[int, int, str]:
    header = _parse_header(line, ("k", "total", "provenance"), where)
    try:
        k = int(header["k"])
        total = int(header["total"])
    except ValueError:
        raise ValueError(f"{where}: k and total must be integers") from None
    provenance = header["provenance"]
    if provenance not in ("sequence", "reads"):
        raise ValueError(f"{where}: provenance must be 'sequence' or 'reads', got {provenance!r}")
    return k, total, provenance


def read_kmer_table(path: str | Path) -> KmerTable:
    """Inverse of :func:`write_kmer_table`.

    A file in the writer's form (lowercase k-mers too) is parsed as whole
    arrays. Any other body, such as one with CRLF line ends, blank lines,
    signed or padded counts or a malformed row, goes to the row loop, which
    accepts what it always accepted and names the first bad line.
    """
    path = Path(path)
    split = _split_canonical(path.read_bytes())
    if split is None:
        return _read_kmer_table_rows(path)
    k, total, provenance = _table_header(split[0], str(path))
    rows = _parse_table_rows(split[1], k)
    if rows is None:
        return _read_kmer_table_rows(path)
    return _checked_table(KmerTable(k, *rows, provenance), total, path)


def _parse_table_rows(body: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Keys and counts of ``KMER\\tCOUNT\\n`` rows with 1-18 digit counts;
    ``None`` if any row is not of that form or has count 0."""
    if not 1 <= k <= MAX_K or (body.size and body[-1] != ord("\n")):
        return None
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    ndigits = ends - starts - (k + 1)
    if ndigits.size and not (ndigits.min() >= 1 and ndigits.max() <= _MAX_COUNT_DIGITS):
        return None
    if np.any(body[starts + k] != ord("\t")):
        return None
    keys = np.zeros(starts.size, dtype=np.uint64)
    for j in range(k):
        codes = _BYTE_TO_CODE[body[starts + j]]
        if codes.size and codes.max() > 3:
            return None
        keys <<= np.uint64(2)
        keys |= codes
    # digits right to left; a row drops out after its last digit
    counts = np.zeros(starts.size, dtype=np.int64)
    pos, rows = ends - 1, np.arange(starts.size)
    for d in range(int(ndigits.max()) if ndigits.size else 0):
        digit = body[pos] - np.uint8(ord("0"))  # non-digits wrap above 9
        if digit.max() > 9:
            return None
        # widen first: NumPy 1 keeps uint8 * scalar in the smallest dtype that
        # holds the scalar, so the product would wrap
        counts[rows] += digit.astype(np.int64) * 10**d
        live = ndigits[rows] > d + 1
        pos, rows = pos[live] - 1, rows[live]
    if counts.size and counts.min() == 0:
        return None
    return keys, counts


def _checked_table(table: KmerTable, total: int, path: Path) -> KmerTable:
    if table.total != total:
        raise ValueError(f"{path}: header total {total} but rows sum to {table.total}")
    return table


def _read_kmer_table_rows(path: Path) -> KmerTable:
    with path.open() as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty file")
        k, total, provenance = _table_header(header_line, str(path))
        keys = []
        counts = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}, line {lineno}: expected 'KMER\\tCOUNT'")
            kmer, count_text = parts
            if len(kmer) != k:
                raise ValueError(
                    f"{path}, line {lineno}: k-mer {kmer!r} has length {len(kmer)}, header says k={k}"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: count {count_text!r} is not an integer") from None
            if count <= 0:
                raise ValueError(f"{path}, line {lineno}: count must be positive, got {count}")
            if count >= 2**63:
                raise ValueError(f"{path}, line {lineno}: count {count} exceeds int64")
            try:
                keys.append(encode_kmer(kmer))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            counts.append(count)
    keys_arr = np.array(keys, dtype=np.uint64) if keys else np.empty(0, dtype=np.uint64)
    counts_arr = np.array(counts, dtype=np.int64) if counts else np.empty(0, dtype=np.int64)
    return _checked_table(KmerTable(k, keys_arr, counts_arr, provenance), total, path)


# --- read sets ---------------------------------------------------------------


def write_reads(path: str | Path, reads: ReadSet) -> None:
    """One header line ``#L=<L>\\t#N=<N>\\t#G=<G>``, then one read per line.

    Start positions are deliberately not stored: consumers must work from
    read content alone.
    """
    header = f"#L={reads.read_len}\t#N={reads.num_reads}\t#G={reads.source_len}\n"
    rows = np.empty((reads.num_reads, reads.read_len + 1), dtype=np.uint8)
    rows[:, :-1] = _CODE_TO_BYTE[reads.matrix]
    rows[:, -1] = ord("\n")
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rows)


def _reads_header(line: str, where: str) -> tuple[int, int, int]:
    header = _parse_header(line, ("L", "N", "G"), where)
    try:
        L = int(header["L"])
        N = int(header["N"])
        G = int(header["G"])
    except ValueError:
        raise ValueError(f"{where}: L, N, G must be integers") from None
    if L < 1 or N < 0 or G < 1:
        raise ValueError(f"{where}: need L >= 1, N >= 0, G >= 1")
    return L, N, G


def read_reads(path: str | Path) -> ReadSet:
    """Inverse of :func:`write_reads`. A body of exactly N rows of L symbols
    and a ``\\n`` is decoded as one block; anything else row by row."""
    path = Path(path)
    split = _split_canonical(path.read_bytes())
    if split is None:
        return _read_reads_rows(path)
    L, N, G = _reads_header(split[0], str(path))
    body = split[1]
    if body.size != N * (L + 1):
        return _read_reads_rows(path)
    rows = body.reshape(N, L + 1)
    codes = _BYTE_TO_CODE[rows[:, :L]]
    if np.any(rows[:, L] != ord("\n")) or (codes.size and codes.max() > 3):
        return _read_reads_rows(path)
    return ReadSet(codes, G)


def _read_reads_rows(path: Path) -> ReadSet:
    with path.open() as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty file")
        L, N, G = _reads_header(header_line, str(path))
        matrix = np.empty((N, L), dtype=np.uint8)
        n_seen = 0
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            if n_seen >= N:
                raise ValueError(f"{path}, line {lineno}: more than N={N} reads")
            if len(line) != L:
                raise ValueError(
                    f"{path}, line {lineno}: read length {len(line)} but header says L={L}"
                )
            try:
                matrix[n_seen] = string_to_codes(line)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            n_seen += 1
    if n_seen != N:
        raise ValueError(f"{path}: header says N={N} reads but found {n_seen}")
    return ReadSet(matrix, G)
