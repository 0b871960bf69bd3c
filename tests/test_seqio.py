import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mutrate import seqio
from mutrate.errors import FastaParseError
from mutrate.kmers import KmerTable, count_kmers_reads, count_kmers_sequence
from mutrate.model import (
    CircularSequence,
    ReadSet,
    SubstitutionChannel,
    codes_to_string,
    generate_iid_sequence,
    sample_reads,
)
from mutrate.seqio import (
    FastaRecord,
    parse_fasta,
    read_fasta,
    read_kmer_table,
    read_reads,
    write_fasta,
    write_kmer_table,
    write_reads,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=300)


class TestFasta:
    def test_basic_parse(self):
        recs = parse_fasta(">a\nACGT\n>b\nTT\nGG\n")
        assert [(r.name, r.seq.to_string()) for r in recs] == [("a", "ACGT"), ("b", "TTGG")]

    def test_case_folded_and_joined(self):
        recs = parse_fasta(">x\nac\ngT\n")
        assert recs[0].seq.to_string() == "ACGT"

    def test_blank_lines_skipped(self):
        recs = parse_fasta(">x\n\nAC\n\nGT\n")
        assert recs[0].seq.to_string() == "ACGT"

    def test_invalid_symbol_position(self):
        with pytest.raises(FastaParseError) as exc:
            parse_fasta(">s\nACNT\n")
        msg = str(exc.value)
        assert "line 2" in msg and "column 3" in msg

    def test_drop_mode_counts(self):
        recs = parse_fasta(">s\nACNTNN\n", on_invalid="drop")
        assert recs[0].seq.to_string() == "ACT"
        assert recs[0].dropped == 3

    def test_drop_mode_empty_record_still_fails(self):
        with pytest.raises(FastaParseError):
            parse_fasta(">s\nNNN\n", on_invalid="drop")

    def test_data_before_header(self):
        with pytest.raises(FastaParseError):
            parse_fasta("ACGT\n>s\nACGT\n")

    def test_empty_record(self):
        with pytest.raises(FastaParseError):
            parse_fasta(">a\n>b\nACGT\n")

    def test_no_records(self):
        with pytest.raises(FastaParseError):
            parse_fasta("\n\n")

    def test_round_trip_wraps_lines(self, tmp_path):
        seq = generate_iid_sequence(200, (0.25, 0.25, 0.25, 0.25), rng_seed=1)
        path = tmp_path / "x.fa"
        write_fasta(path, [FastaRecord("long", seq)])
        text = path.read_text()
        body_lines = text.strip().split("\n")[1:]
        assert all(len(line) <= 70 for line in body_lines)
        assert read_fasta(path)[0].seq == seq

    def test_names_read_as_utf8_whatever_the_locale(self, tmp_path):
        """A name is written as UTF-8 and read back as UTF-8, also in a process
        whose locale encoding is ASCII."""
        path = tmp_path / "x.fa"
        write_fasta(path, [FastaRecord("séq", CircularSequence.from_string("ACGT"))])
        code = "import sys; from mutrate.seqio import read_fasta; print(ascii(read_fasta(sys.argv[1])[0].name))"
        src = str(Path(seqio.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ascii("séq")

    @pytest.mark.parametrize("name", ["", "  ", "a\nb", "a\r", "a\x85b"])
    def test_name_the_reader_would_reject_is_not_written(self, tmp_path, name):
        # \x85 ends a line for str.splitlines, as \n and \r do
        path, seq = tmp_path / "x.fa", CircularSequence.from_string("ACGT")
        with pytest.raises(ValueError, match="blank or holds a line break"):
            write_fasta(path, [FastaRecord("ok", seq), FastaRecord(name, seq)])
        assert not path.exists()

    def test_write_peak_is_one_block(self, tmp_path):
        """A 1e6-base record is written a block of lines at a time: the
        peak is one block's codes, bytes and text (three ``_BLOCK_BYTES``)
        with a fourth to spare, not line strings of the whole record."""
        seq = generate_iid_sequence(10**6, (0.4, 0.2, 0.2, 0.2), rng_seed=3)
        peak = _peak_bytes(write_fasta, tmp_path / "x.fa", [FastaRecord("x", seq)])
        assert peak <= 4 * seqio._BLOCK_BYTES
        assert read_fasta(tmp_path / "x.fa")[0].seq == seq

    @given(seqs=st.lists(dna, min_size=1, max_size=4))
    def test_round_trip_property(self, tmp_path_factory, seqs):
        path = tmp_path_factory.mktemp("fa") / "r.fa"
        recs = [
            FastaRecord(f"r{i}", CircularSequence.from_string(s)) for i, s in enumerate(seqs)
        ]
        write_fasta(path, recs)
        back = read_fasta(path)
        assert [(r.name, r.seq.to_string()) for r in back] == [
            (f"r{i}", s) for i, s in enumerate(seqs)
        ]

    def test_invalid_symbol_on_later_line(self):
        with pytest.raises(FastaParseError, match=re.escape("line 4, column 2: invalid symbol 'é'")):
            parse_fasta(">s\nACGT\n\n GéN\n")

    @settings(max_examples=200)
    @given(
        text=st.lists(
            st.sampled_from([">r", ">", "> q ", "ACGT", "acgt", "AN", "g-t", "é", " ", "\n", "\r\n"]),
            max_size=12,
        ).map("".join),
        on_invalid=st.sampled_from(["error", "drop"]),
    )
    @example(text=">a\nACGT\n>b\nNNN\n", on_invalid="drop")
    @example(text=">a\nAC\nGTX\n", on_invalid="error")
    def test_matches_per_character_oracle(self, text, on_invalid):
        try:
            want = oracles.fasta_records(text, on_invalid)
        except ValueError as exc:
            with pytest.raises(FastaParseError) as got:
                parse_fasta(text, on_invalid)
            assert str(got.value) == str(exc)
            return
        got = [(r.name, r.seq.to_string(), r.dropped) for r in parse_fasta(text, on_invalid)]
        assert got == want


class TestKmerTableIO:
    def test_round_trip(self, tmp_path):
        t = count_kmers_sequence(CircularSequence.from_string("ACGTACGGTTAACC"), 3)
        path = tmp_path / "t.tsv"
        write_kmer_table(path, t)
        assert read_kmer_table(path) == t

    def test_header_format(self, tmp_path):
        t = KmerTable.from_mapping(2, {"AC": 3, "GT": 1})
        path = tmp_path / "t.tsv"
        write_kmer_table(path, t)
        first = path.read_text().split("\n")[0]
        assert first == "#k=2\t#total=4\t#provenance=sequence"

    def test_rows_sorted_lexicographically(self, tmp_path):
        t = KmerTable.from_mapping(2, {"TT": 1, "AC": 2, "GA": 5})
        path = tmp_path / "t.tsv"
        write_kmer_table(path, t)
        kmers = [line.split("\t")[0] for line in path.read_text().strip().split("\n")[1:]]
        assert kmers == sorted(kmers)

    def test_reads_provenance_round_trip(self, tmp_path):
        x = generate_iid_sequence(100, (0.25, 0.25, 0.25, 0.25), rng_seed=2)
        rs = sample_reads(x, 20, 10, SubstitutionChannel(0.01), rng_seed=3)
        t = count_kmers_reads(rs, 4)
        path = tmp_path / "t.tsv"
        write_kmer_table(path, t)
        back = read_kmer_table(path)
        assert back.provenance == "reads"
        assert back == t

    def test_read_table_records_g(self, tmp_path):
        x = generate_iid_sequence(100, (0.25, 0.25, 0.25, 0.25), rng_seed=2)
        t = count_kmers_reads(sample_reads(x, 20, 10, SubstitutionChannel(0.01), rng_seed=3), 4)
        path = tmp_path / "t.tsv"
        write_kmer_table(path, t)
        assert path.read_text().split("\n")[0] == "#k=4\t#total=170\t#provenance=reads\t#G=100"
        back = read_kmer_table(path)
        assert back.source_len == t.source_len == 100
        assert back == t

    @pytest.mark.parametrize(
        "header, g",
        [
            ("#k=2\t#total=5\t#provenance=reads", None),
            ("#k=2\t#total=5\t#provenance=reads\t#G=40", 40),
            ("#k=2\t#total=5\t#provenance=sequence", 5),
            ("#k=2\t#total=5\t#provenance=sequence\t#G=5", 5),
        ],
    )
    def test_g_is_optional(self, tmp_path, header, g):
        path = tmp_path / "t.tsv"
        path.write_text(f"{header}\nAC\t2\nGT\t3\n")
        assert read_kmer_table(path).source_len == g
        assert _table_value(path) == oracles.kmer_table_rows(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#k=2\t#total=5\t#provenance=sequence\t#G=6", ": a sequence table's G is its total 5, got G=6"),
            ("#k=2\t#total=5\t#provenance=sequence\t#G=0", ": a sequence table's G is its total 5, got G=0"),
            ("#k=2\t#total=5\t#provenance=reads\t#G=0", ": a read table's G must be >= 1, got 0"),
            ("#k=2\t#total=5\t#provenance=reads\t#G=+4", "k, total and G must be unsigned decimal integers"),
            ("#k=2\t#total=5\t#provenance=reads\t#L=4", "expected header field #G=<value>, got '#L=4'"),
            ("#k=2\t#total=5\t#provenance=reads\t#G=4\t#G=4", "header must have fields"),
        ],
    )
    def test_bad_g_rejected(self, tmp_path, header, message):
        path = tmp_path / "t.tsv"
        path.write_text(f"{header}\nAC\t2\nGT\t3\n")
        with pytest.raises(ValueError, match=message):
            read_kmer_table(path)
        _assert_same_outcome(path, _table_value, oracles.kmer_table_rows)

    def test_total_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#k=2\t#total=5\t#provenance=sequence\nAC\t3\n")
        with pytest.raises(ValueError, match="total"):
            read_kmer_table(path)

    def test_bad_count_detected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#k=2\t#total=3\t#provenance=sequence\nAC\t0\nGT\t3\n")
        with pytest.raises(ValueError):
            read_kmer_table(path)

    def test_wrong_kmer_length_detected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#k=2\t#total=3\t#provenance=sequence\nACG\t3\n")
        with pytest.raises(ValueError):
            read_kmer_table(path)


def _row_format(table: KmerTable) -> bytes:
    """The file as formatted one row at a time; the array writer must
    reproduce it byte for byte."""
    g = f"\t#G={table.source_len}" if table.provenance == "reads" and table.source_len is not None else ""
    header = f"#k={table.k}\t#total={table.total}\t#provenance={table.provenance}{g}\n"
    return (header + "".join(f"{kmer}\t{c}\n" for kmer, c in table.items())).encode()


def _peak_bytes(write, path, data) -> int:
    """tracemalloc's peak while ``write(path, data)`` runs."""
    tracemalloc.start()
    try:
        write(path, data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_edge_table() -> KmerTable:
    """A k = 32 read table of two and a half write blocks, its keys past
    2^63: one-digit counts through the first block, counts cycling through
    2 to 13 digits in the second and 13-digit counts in the third."""
    step = seqio._block_rows(32 + 2 + seqio._MAX_COUNT_DIGITS)
    n = 2 * step + step // 2
    keys = np.uint64(2**63) + np.arange(n, dtype=np.uint64) * np.uint64(2**63 // n)
    keys[-1] = 2**64 - 1
    j = np.arange(step, dtype=np.int64)
    counts = np.concatenate([np.full(step, 7), 10 ** ((j + 1) % 13) + j, 10**12 + j[: n - 2 * step]])
    return KmerTable(32, keys, counts, "reads", 10**9)


@st.composite
def kmer_tables(draw):
    k = draw(st.integers(1, 32))
    keys = draw(st.lists(st.integers(0, 4**k - 1), max_size=30, unique=True))
    counts = draw(st.lists(st.integers(1, 10**13 - 1), min_size=len(keys), max_size=len(keys)))
    provenance = draw(st.sampled_from(["sequence", "reads"]))
    g = draw(st.none() | st.integers(1, 10**12)) if provenance == "reads" else None
    return KmerTable(k, np.array(keys, dtype=np.uint64), np.array(counts, dtype=np.int64), provenance, g)


def _edits(inserts: list[str]):
    """Up to three edits, each an offset, a string to insert and whether the
    character at the offset is replaced (an empty insert then deletes it)."""
    return st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["", *inserts]), st.booleans()), max_size=3
    )


def _apply(edits, text: str) -> str:
    for at, insert, replace in edits:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + replace :]
    return text


def _assert_same_outcome(path, read, oracle) -> None:
    """The reader and the oracle give the same value for the file, or raise
    the same type with the same message."""
    outcomes = []
    for parse in (read, oracle):
        try:
            outcomes.append(parse(path))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def _table_value(path):
    table = read_kmer_table(path)
    return table.k, table.provenance, table.source_len, list(table.items())


def _reads_value(path):
    reads = read_reads(path)
    return [codes_to_string(row) for row in reads.matrix], reads.source_len


_DIGIT_SPREAD = [10**i for i in range(13)] + [10 ** (i + 1) - 1 for i in range(13)]


class TestKmerTableCodec:
    @settings(max_examples=150)
    @given(table=kmer_tables())
    @example(table=KmerTable(5, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)))
    @example(
        table=KmerTable(
            32,
            np.array([2**63 + i for i in range(len(_DIGIT_SPREAD) - 2)] + [2**64 - 1, 5], dtype=np.uint64),
            np.array(_DIGIT_SPREAD, dtype=np.int64),
            "reads",
        )
    )
    # rows narrower than the 4 symbols of one key byte
    @example(table=KmerTable(1, np.arange(4, dtype=np.uint64), np.array([1, 10, 100, 5], dtype=np.int64)))
    def test_round_trip_and_seed_bytes(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("t") / "t.tsv"
        write_kmer_table(path, table)
        assert path.read_bytes() == _row_format(table)
        assert read_kmer_table(path) == table

    @pytest.mark.parametrize(
        "row, message",
        [
            ("ACG\t2\n", ", line 4: k-mer 'ACG' has length 3, header says k=2"),
            ("TT\t0\n", ", line 4: count must be positive, got 0"),
            ("TT\t2x\n", ", line 4: count '2x' is not an integer"),
            ("TN\t2\n", ", line 4: invalid nucleotide 'N' in k-mer 'TN'"),
            ("TT\t1\t1\n", ", line 4: expected 'KMER\\tCOUNT'"),
            ("TT\t3\n", ": header total 6 but rows sum to 7"),
            ("TT\t+2\n", ", line 4: count '+2' is not an integer"),
            ("TT\t 2\n", ", line 4: count ' 2' is not an integer"),
            ("TT\t1_0\n", ", line 4: count '1_0' is not an integer"),
            ("Té\t2\n", ", line 4: non-ASCII byte 0xc3"),
            ("gt\t2\nac\t3\n", ", line 4: k-mer 'gt' repeats line 3"),
            ("TT\t00000000000000000001\n", ", line 4: count '00000000000000000001' has more than 19 digits"),
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, seqio._READ_BLOCK_ROWS])
    def test_malformed_row(self, tmp_path, monkeypatch, row, message, block):
        monkeypatch.setattr(seqio, "_READ_BLOCK_ROWS", block)  # the bad row in the first block or a later one
        path = tmp_path / "bad.tsv"
        path.write_text("#k=2\t#total=6\t#provenance=sequence\nAC\t3\nGT\t1\n" + row, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            read_kmer_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
            read_kmer_table(path)

    @pytest.mark.parametrize("k", [0, 40])
    def test_header_k_out_of_range_names_the_file(self, tmp_path, k):
        path = tmp_path / "bad.tsv"
        path.write_text(f"#k={k}\t#total=1\t#provenance=sequence\n{'A' * k}\t1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: k must be in 1..32, got {k}")):
            read_kmer_table(path)

    @pytest.mark.parametrize("k, total", [("+2", "3"), ("2", "1_0"), ("2", "-3"), (" 2", "3"), ("2", "3 ")])
    def test_header_integers_are_digits_only(self, tmp_path, k, total):
        path = tmp_path / "bad.tsv"
        path.write_text(f"#k={k}\t#total={total}\t#provenance=sequence\nAC\t3\n")
        message = f"{path}: k and total must be unsigned decimal integers"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_kmer_table(path)

    @pytest.mark.parametrize(
        "total, rows",
        [
            ("-2", ["AC", "GT"]),  # what one wrapped int64 sum of the two counts gives
            (str(3 * (2**63 - 1) - 2**64), ["AC", "CG", "GT"]),  # wrapped, and all digits
            (str(3 * (2**63 - 1)), ["AC", "CG", "GT"]),  # exact, past int64
        ],
        ids=["negative", "wrapped", "exact"],
    )
    def test_counts_summing_past_int64_rejected(self, tmp_path, total, rows):
        path = tmp_path / "wrap.tsv"
        body = "".join(f"{r}\t{2**63 - 1}\n" for r in rows)
        path.write_text(f"#k=2\t#total={total}\t#provenance=reads\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_kmer_table(path)

    @pytest.mark.parametrize(
        "variant",
        [
            lambda body: body.lower(),
            lambda body: body.replace("\n", "\r\n"),
            lambda body: body.replace("\n", "\n\n"),
            lambda body: body.rstrip("\n"),
        ],
        ids=["lowercase", "crlf", "blank-lines", "no-final-newline"],
    )
    def test_lenient_variants_parse_the_same(self, tmp_path, variant):
        table = count_kmers_sequence(CircularSequence.from_string("ACGTTGCAAGGCTTA" * 3), 4)
        header = "#k=4\t#total=45\t#provenance=sequence\n"
        body = _row_format(table).decode()[len(header) :]
        path = tmp_path / "v.tsv"
        path.write_text(header + variant(body))
        assert read_kmer_table(path) == table

    def test_rows_across_block_edges(self, tmp_path, monkeypatch):
        table = _block_edge_table()
        widths, format_rows = [], seqio._format_table_rows

        def format_and_record(k, keys, counts):
            widths.append([len(str(c)) for c in counts.tolist()])
            return format_rows(k, keys, counts)

        monkeypatch.setattr(seqio, "_format_table_rows", format_and_record)
        path = tmp_path / "t.tsv"
        write_kmer_table(path, table)
        assert path.read_bytes() == _row_format(table)
        # more than two blocks; the count width changes inside one and at an edge
        assert len(widths) > 2 and len(set(widths[1])) > 1 and widths[0][-1] != widths[1][0]

    @pytest.mark.parametrize("block", [7, 1000])
    def test_read_across_block_edges(self, tmp_path, monkeypatch, block):
        table = _block_edge_table()
        path = tmp_path / "t.tsv"
        write_kmer_table(path, table)
        monkeypatch.setattr(seqio, "_READ_BLOCK_ROWS", block)
        assert read_kmer_table(path) == table

    def test_read_peak_is_the_file_its_rows_and_one_block(self, tmp_path):
        """Reading holds the file, the table and a flag a row for its checks
        (17 bytes a row) and one block of rows' temporaries (at most 64
        bytes a row): line ends are found a block at a time. It used to find
        every row's start and end first, and before that to decode every
        row at once, at over 4 times the file."""
        table = count_kmers_sequence(generate_iid_sequence(200_000, (0.4, 0.2, 0.2, 0.2), rng_seed=3), 21)
        path = tmp_path / "t.tsv"
        write_kmer_table(path, table)
        size, rows = path.stat().st_size, table.distinct
        assert rows > 3 * seqio._READ_BLOCK_ROWS
        tracemalloc.start()
        try:
            got = read_kmer_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == table
        assert peak <= size + 17 * (rows + 1) + 64 * seqio._READ_BLOCK_ROWS

    def test_peak_memory_bounded_by_the_block(self, tmp_path):
        """Writing four times the rows takes no more memory: the writer
        holds one block of rows at a time."""

        def read_table(n):
            rng = np.random.default_rng(n)
            keys = np.unique(rng.integers(0, 4**30, size=n, dtype=np.uint64))
            return KmerTable(30, keys, rng.integers(1, 1000, size=keys.size), "reads", 10**6)

        n = 2 * seqio._BLOCK_BYTES // (30 + 3)  # two blocks at least: no row is narrower
        peaks = [_peak_bytes(write_kmer_table, tmp_path / "t.tsv", read_table(rows)) for rows in (n, 4 * n)]
        assert peaks[1] < 1.25 * peaks[0]

    def test_long_counts_on_the_array_path(self, tmp_path):
        """Every count width from 1 to 19 digits is parsed exactly, whatever
        the NumPy promotion rules."""
        counts = [10**d for d in range(19)] + [10 ** (d + 1) - 1 for d in range(18)]
        table = KmerTable(3, np.arange(len(counts), dtype=np.uint64), np.array(counts, dtype=np.int64))
        path = tmp_path / "long.tsv"
        write_kmer_table(path, table)
        got = read_kmer_table(path)
        assert got.counts.dtype == np.int64
        assert got.counts.tolist() == counts

    def test_19_digit_counts_parse(self, tmp_path):
        path = tmp_path / "big.tsv"
        path.write_text(f"#k=2\t#total={10**18}\t#provenance=reads\nAC\t{10**18}\n")
        assert read_kmer_table(path).counts.tolist() == [10**18]

    @pytest.mark.parametrize("count", [2**63, 9999999999999999999, 10**30])
    def test_count_past_int64_rejected(self, tmp_path, count):
        path = tmp_path / "huge.tsv"
        path.write_text(f"#k=2\t#total={count}\t#provenance=reads\nAC\t{count}\n")
        with pytest.raises(ValueError, match=f"line 2: count {count} exceeds int64"):
            read_kmer_table(path)

    def test_largest_int64_count_accepted(self, tmp_path):
        path = tmp_path / "max.tsv"
        path.write_text(f"#k=2\t#total={2**63 - 1}\t#provenance=reads\nAC\t{2**63 - 1}\n")
        assert read_kmer_table(path).counts.tolist() == [2**63 - 1]

    @settings(max_examples=200)
    @given(
        table=kmer_tables(),
        edits=_edits(["\n", "\r", "\t", "0", "9", "a", "N", "+", " ", "é", "_", "-"]),
        block=st.sampled_from([1, 2, seqio._READ_BLOCK_ROWS]),
    )
    def test_whole_array_path_agrees_with_row_loop(self, tmp_path_factory, table, edits, block):
        """Any edit of a valid file gives the same table or the same error
        as the line-by-line oracle of the grammar, whatever lines the
        blocks of rows end at."""
        path = tmp_path_factory.mktemp("t") / "t.tsv"
        path.write_text(_apply(edits, _row_format(table).decode()), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqio, "_READ_BLOCK_ROWS", block)
            _assert_same_outcome(path, _table_value, oracles.kmer_table_rows)


class TestReadsIO:
    def test_round_trip(self, tmp_path):
        x = generate_iid_sequence(300, (0.25, 0.25, 0.25, 0.25), rng_seed=4)
        rs = sample_reads(x, 50, 7, SubstitutionChannel(0.05), rng_seed=5)
        path = tmp_path / "r.reads"
        write_reads(path, rs)
        back = read_reads(path)
        assert np.array_equal(back.matrix, rs.matrix)
        assert back.source_len == rs.source_len

    def test_header(self, tmp_path):
        x = generate_iid_sequence(120, (0.25, 0.25, 0.25, 0.25), rng_seed=6)
        rs = sample_reads(x, 30, 4, SubstitutionChannel(0.0), rng_seed=7)
        path = tmp_path / "r.reads"
        write_reads(path, rs)
        assert path.read_text().split("\n")[0] == "#L=30\t#N=4\t#G=120"

    def test_length_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.reads"
        path.write_text("#L=4\t#N=2\t#G=10\nACGT\nACG\n")
        with pytest.raises(ValueError):
            read_reads(path)

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.reads"
        path.write_text("#L=4\t#N=3\t#G=10\nACGT\nACGT\n")
        with pytest.raises(ValueError):
            read_reads(path)

    def test_bad_symbol_names_its_line(self, tmp_path):
        path = tmp_path / "bad.reads"
        path.write_text("#L=4\t#N=2\t#G=10\nACGT\nACNT\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: non-ACGT symbol 'N' at position 3")):
            read_reads(path)

    @pytest.mark.parametrize(
        "header", ["#L=+2\t#N=1\t#G=5", "#L= 2\t#N=1\t#G=5", "#L=2\t#N=0_1\t#G=5", "#L=2\t#N=1\t#G=+5"]
    )
    def test_header_integers_are_digits_only(self, tmp_path, header):
        path = tmp_path / "bad.reads"
        path.write_text(header + "\nAC\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: L, N, G must be unsigned decimal integers")):
            read_reads(path)

    @pytest.mark.parametrize("header", ["#L=0\t#N=0\t#G=5", "#L=2\t#N=0\t#G=0"])
    def test_header_out_of_range(self, tmp_path, header):
        path = tmp_path / "bad.reads"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: need L >= 1, N >= 0, G >= 1")):
            read_reads(path)

    def test_peak_memory_about_two_file_sizes(self, tmp_path):
        """The file bytes and the decoded codes; no third copy of the rows."""
        x = generate_iid_sequence(10_000, (0.25, 0.25, 0.25, 0.25), rng_seed=8)
        path = tmp_path / "r.reads"
        write_reads(path, sample_reads(x, 1000, 2000, SubstitutionChannel(0.01), rng_seed=9))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            codes = read_reads(path).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes.shape == (2000, 1000) and codes.flags.writeable
        assert peak < 2.05 * size

    def test_blocks_write_the_rows_in_bounded_memory(self, tmp_path):
        """Two blocks at least and four times that: the same bytes as a row
        loop, and the same peak memory."""
        read_len = 100
        n = 2 * seqio._BLOCK_BYTES // (read_len + 1)
        peaks = []
        for rows in (n, 4 * n):
            rng = np.random.default_rng(rows)
            reads = ReadSet(rng.integers(0, 4, size=(rows, read_len), dtype=np.uint8), 10**6)
            path = tmp_path / f"{rows}.reads"
            peaks.append(_peak_bytes(write_reads, path, reads))
            lines = "".join(codes_to_string(row) + "\n" for row in reads.matrix)
            assert path.read_text() == f"#L={read_len}\t#N={rows}\t#G={10**6}\n" + lines
        assert peaks[1] < 1.25 * peaks[0]

    def test_lenient_variants_parse_the_same(self, tmp_path):
        path = tmp_path / "r.reads"
        for text in ("#L=4\t#N=2\t#G=10\r\nacgt\r\nTTGA\r\n", "#L=4\t#N=2\t#G=10\n\nACGT\n\nttga"):
            path.write_text(text)
            assert read_reads(path).matrix.tolist() == [[0, 1, 2, 3], [3, 3, 2, 0]]

    @settings(max_examples=150)
    @given(
        n=st.integers(0, 4),
        read_len=st.integers(1, 6),
        edits=_edits(["\n", "\r", "A", "n", "é", "_", "-", " "]),
        seed=st.integers(0, 100),
    )
    @example(n=2, read_len=3, edits=[(19, "A", True)], seed=0)  # first row's newline
    def test_block_path_agrees_with_row_loop(self, tmp_path_factory, n, read_len, edits, seed):
        x = generate_iid_sequence(20, (0.25, 0.25, 0.25, 0.25), rng_seed=seed)
        path = tmp_path_factory.mktemp("r") / "r.reads"
        write_reads(path, sample_reads(x, read_len, n, SubstitutionChannel(0.0), rng_seed=seed))
        path.write_text(_apply(edits, path.read_text()), encoding="utf-8")
        _assert_same_outcome(path, _reads_value, oracles.reads_rows)
