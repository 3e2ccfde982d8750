import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nadp import embeddings
from nadp.embeddings import (
    EmbeddingFormatError,
    EmbeddingSet,
    load_embeddings,
    save_embeddings,
)


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text(
        "alpha 0.1 0.2\nbeta -1.5 2.25\ngamma 3.0 -0.125\n", encoding="utf-8"
    )
    return path


def test_load_basic(small_file):
    emb = load_embeddings(small_file)
    assert emb.n == 3 and emb.d == 2
    assert emb.words == ("alpha", "beta", "gamma")
    assert np.array_equal(emb.vectors[emb.index_of("beta")], [-1.5, 2.25])


def test_load_limit(small_file):
    emb = load_embeddings(small_file, limit=1)
    assert emb.n == 1
    assert emb.words == ("alpha",)


def test_load_word_filter(small_file):
    emb = load_embeddings(small_file, word_filter={"gamma", "alpha"})
    assert emb.words == ("alpha", "gamma")


def test_load_deterministic(small_file):
    a = load_embeddings(small_file)
    b = load_embeddings(small_file)
    assert a.words == b.words
    assert np.array_equal(a.vectors, b.vectors)


def test_load_malformed_float_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ok 1.0 2.0\nbroken abc 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2:"):
        load_embeddings(path)


def test_load_wrong_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ok 1.0 2.0\nshort 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2:"):
        load_embeddings(path)


def test_load_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ok 1.0 2.0\nweird nan 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2:"):
        load_embeddings(path)


def test_load_duplicate_token(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("tok 1.0\ntok 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="duplicate"):
        load_embeddings(path)


def test_load_empty_result(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="no embeddings"):
        load_embeddings(path)
    path.write_text("tok 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="no embeddings"):
        load_embeddings(path, word_filter={"absent"})


def test_round_trip_precision6(tmp_path, small_file):
    emb = load_embeddings(small_file)
    out = tmp_path / "saved.txt"
    save_embeddings(emb, out, precision=6)
    again = load_embeddings(out)
    assert again.words == emb.words
    assert np.max(np.abs(again.vectors - emb.vectors)) < 1e-5


def test_round_trip_precision17_bit_faithful(tmp_path):
    rng = np.random.default_rng(42)
    emb = EmbeddingSet(
        tuple(f"t{i}" for i in range(10)), rng.normal(0.0, 1.0, (10, 5))
    )
    out = tmp_path / "exact.txt"
    save_embeddings(emb, out, precision=17)
    again = load_embeddings(out)
    # exhaustive comparison: every coordinate must round-trip exactly
    assert np.array_equal(again.vectors, emb.vectors)


def test_save_unwritable(small_file):
    emb = load_embeddings(small_file)
    with pytest.raises(OSError):
        save_embeddings(emb, "/proc/readonly/nope.txt")


def test_set_invariants():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingSet(("a", "a"), np.ones((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingSet(("a", "b"), np.array([[1.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        EmbeddingSet(("a", "b", "c"), np.ones((2, 2)))
    with pytest.raises(ValueError):
        EmbeddingSet(("a",), np.ones((1, 0)))
    with pytest.raises(ValueError, match=re.escape("vectors must be 2-d, got shape (2,)")):
        EmbeddingSet(("a", "b"), np.ones(2))


def test_vectors_are_immutable(small_file):
    emb = load_embeddings(small_file)
    with pytest.raises(ValueError):
        emb.vectors[0, 0] = 9.9


# rows with a negative zero, exact binary half-ties at several decimal
# places, tiny negatives that round to "-0.0..." and a 309-digit integer part
AWKWARD_ROWS = np.array([
    [-0.0, 0.0078125, -1e-9, 1e300, 0.5],
    [2.5, -0.125, 0.0625, -2.5e-7, 1.0000005],
    [-1e300, 0.03125, -0.0, 1e-300, -0.5],
])


def _reference_save(emb: EmbeddingSet, precision: int) -> str:
    # the per-coordinate formatting the one-format-per-row writer replaced
    def coord(v: float) -> str:
        return repr(float(v)) if precision >= 17 else f"{v:.{precision}f}"
    return "".join(
        f"{w} " + " ".join(coord(v) for v in row) + "\n"
        for w, row in zip(emb.words, emb.vectors)
    )


@pytest.mark.parametrize("precision", [1, 3, 6, 16, 17])
def test_save_matches_per_coordinate_reference(tmp_path, precision):
    emb = EmbeddingSet(("neg", "ties", "huge"), AWKWARD_ROWS)
    out = tmp_path / "saved.txt"
    save_embeddings(emb, out, precision=precision)
    assert out.read_bytes() == _reference_save(emb, precision).encode("utf-8")


@pytest.fixture(params=[1, 2, 4096], ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch):
    # small chunks put parse boundaries inside the test files
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", request.param)
    return request.param


def test_load_is_bit_identical_to_float_reference(tmp_path, chunk):
    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 1.0, (2000, 50)) * 10.0 ** rng.integers(-8, 8, (2000, 50))
    words = [f"w{i}" for i in range(2000)]
    lines = [f"{w} " + " ".join(repr(v) if (i + j) % 3 else f"{v:.6e}"
                                for j, v in enumerate(row)) + "\n"
             for i, (w, row) in enumerate(zip(words, values.tolist()))]
    path = tmp_path / "random.txt"
    path.write_text("".join(lines), encoding="utf-8")
    expected = np.array([[float(p) for p in line.split()[1:]] for line in lines])
    emb = load_embeddings(path)
    assert emb.words == tuple(words)
    assert np.array_equal(emb.vectors.view(np.int64), expected.view(np.int64))


SECOND_LINE_FIRST_AT_FAULT = [
    # a bad float on line 2 comes before a duplicate on line 3
    "a 1.0 2.0\nb 1.0 x\na 3.0 4.0\n",
    # a non-finite value on line 2 before a field-count error on line 3
    "a 1.0 2.0\nb inf 2.0\nc 1.0\n",
    # a bad float on line 2 before a token-only line 3
    "a 1.0 2.0\nb 1.0 x\nc\n",
    # a bad float on line 2 before a parse error later in its chunk
    "a 1.0 2.0\nb 1.0 x\nc y 2.0\n",
    # a non-finite value on line 2 before a parse error on line 3
    "a 1.0 2.0\nb nan 2.0\nc y 2.0\n",
    # a duplicate token whose own coordinates do not parse
    "a 1.0 2.0\na 1.0 x\n",
]


@pytest.mark.parametrize("text", SECOND_LINE_FIRST_AT_FAULT)
def test_load_names_the_first_offending_line(tmp_path, chunk, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"bad\.txt:2: "):
        load_embeddings(path)


def test_load_names_a_line_that_is_not_utf8_only_before_the_limit(tmp_path):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"a 1.5 2.5\n\xff 1.0 2.0\n")
    assert load_embeddings(path, limit=1).words == ("a",)
    with pytest.raises(EmbeddingFormatError, match=r"bytes\.txt:2: 'utf-8' codec can't decode"):
        load_embeddings(path)


@pytest.mark.parametrize("block", [text.encode() for text in SECOND_LINE_FIRST_AT_FAULT]
                         + [b"a 1.0 2.0\n\xff 1.0 2.0\n", b"a 1.0 2.0\rb 1.0 x\r"])
def test_worker_parser_returns_the_bad_line_and_does_not_raise(block):
    # an exception on a worker could surface before earlier blocks' rows
    # are kept, so the first bad line must come back as a value
    parsed = embeddings._parse(block)
    assert parsed.error is not None and parsed.error[0] == 1
    assert parsed.tokens == ["a"] and np.array_equal(parsed.rows, [[1.0, 2.0]])
    assert list(parsed.offsets) == [0] and parsed.lines == len(block.splitlines())


def test_load_validates_filtered_out_rows(tmp_path, chunk):
    path = tmp_path / "bad.txt"
    path.write_text("keep 1.0 2.0\ndrop 1.0 x\nalso 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2: could not convert"):
        load_embeddings(path, word_filter={"keep", "also"})


def test_load_stops_reading_at_limit(tmp_path, chunk):
    path = tmp_path / "tail.txt"
    path.write_text("a 1.0 2.0\nb 3.0 4.0\nbroken x\na 5.0\n", encoding="utf-8")
    emb = load_embeddings(path, limit=2)
    assert emb.words == ("a", "b")
    assert np.array_equal(emb.vectors, [[1.0, 2.0], [3.0, 4.0]])
    # a filtered-out row does not count towards the limit, so is read
    with pytest.raises(EmbeddingFormatError, match=":3:"):
        load_embeddings(path, limit=2, word_filter={"a", "broken"})


def test_load_rejects_an_empty_coordinate(tmp_path, chunk):
    # "word " has the two fields of d=1 but no number; loadtxt alone would
    # skip the empty row
    path = tmp_path / "empty.txt"
    path.write_text("a 1.0\nword \nc 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2: could not convert string ''"):
        load_embeddings(path)


def test_load_rows_span_chunk_boundaries(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", 3)
    rows = np.arange(20.0).reshape(10, 2) - 4.5
    path = tmp_path / "ten.txt"
    save_embeddings(EmbeddingSet(tuple(f"t{i}" for i in range(10)), rows), path)
    emb = load_embeddings(path, word_filter={f"t{i}" for i in range(0, 10, 2)})
    assert emb.words == ("t0", "t2", "t4", "t6", "t8")
    assert np.array_equal(emb.vectors, rows[::2])
    assert np.array_equal(load_embeddings(path, limit=7).vectors, rows[:7])


@pytest.mark.parametrize(
    "data, limit, rows",
    [
        (b"", None, 0),
        (b"a 1\n", None, 1),
        (b"a 1\nb 2", None, 2),
        (b"a 1\n\nb 2\n", None, 3),  # a blank line counts; it keeps no row
        (b"a 1\r\nb 2\r\n", None, 2),
        (b"a 1\rb 2\r", None, 1),  # '\r' alone: counted short, then grown
        (b"a 1\nb 2\nc 3\n", 2, 2),
        (b"a 1\nb 2\nc 3\n", 9, 3),
    ],
)
def test_row_bound_counts_line_feeds(tmp_path, monkeypatch, data, limit, rows):
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", 3)  # lines span reads
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    assert embeddings._row_bound(path, limit) == rows


def test_row_bound_reads_only_regular_files(tmp_path):
    # a pipe would be drained by the count; a directory stands in for one
    assert embeddings._row_bound(tmp_path, None) == 0


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_any_line_ending(tmp_path, chunk, newline):
    rows = np.arange(14.0).reshape(7, 2) / 8
    text = "".join(f"t{i} {a!r} {b!r}{newline}" for i, (a, b) in enumerate(rows.tolist()))
    path = tmp_path / "ends.txt"
    path.write_bytes(text.encode("utf-8"))
    emb = load_embeddings(path)
    assert emb.words == tuple(f"t{i}" for i in range(7))
    assert np.array_equal(emb.vectors, rows)


@pytest.mark.parametrize("bound", [0, 1, 3, 6])
def test_load_grows_past_a_short_count(tmp_path, chunk, monkeypatch, bound):
    # a stream or a file that grew after its count: rows past the bound
    # double the matrix, and the result is cut to the rows kept
    rows = np.random.default_rng(4).normal(0.0, 1.0, (9, 3))
    path = tmp_path / "grow.txt"
    save_embeddings(EmbeddingSet(tuple(f"w{i}" for i in range(9)), rows), path)
    counted = load_embeddings(path)
    monkeypatch.setattr(embeddings, "_row_bound", lambda path, limit: bound)
    emb = load_embeddings(path)
    assert emb.words == counted.words
    assert np.array_equal(emb.vectors, counted.vectors)
    assert emb.vectors.base is None


def test_load_cuts_an_over_count_to_the_rows_kept(tmp_path, chunk):
    path = tmp_path / "blank.txt"
    path.write_text("a 1.0 2.0\n\nb 3.0 4.0\n\n\nc 5.0 6.0\n", encoding="utf-8")
    emb = load_embeddings(path)
    assert np.array_equal(emb.vectors, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert emb.vectors.base is None  # not a view of the over-sized matrix
    emb = load_embeddings(path, word_filter={"c", "absent", "also absent"})
    assert emb.words == ("c",) and np.array_equal(emb.vectors, [[5.0, 6.0]])


def test_load_holds_the_matrix_once(tmp_path, monkeypatch):
    # the rows go straight into one counted matrix: the traced peak is the
    # matrix plus a chunk, where stacking parsed chunks held it twice
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", 16)
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", 4096)
    rows = np.random.default_rng(6).normal(0.0, 1.0, (1500, 300))
    path = tmp_path / "big.txt"
    save_embeddings(EmbeddingSet(tuple(f"w{i}" for i in range(1500)), rows), path)
    tracemalloc.start()
    try:
        emb = load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * emb.vectors.nbytes


@pytest.mark.parametrize("coordinate", ["1_0", "\u0661", "0x10"])
def test_load_rejects_what_numpy_does_not_parse(tmp_path, coordinate):
    # float() accepts "1_0" and Arabic-Indic digits; the loader's parser
    # accepts neither
    path = tmp_path / "odd.txt"
    path.write_text(f"a 1.0 2.0\nb {coordinate} 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2: could not convert"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("b 1.0 x", "could not convert string 'x' to float64 at column 2"),
        ("b y 2.0", "could not convert string 'y' to float64 at column 1"),
    ],
)
def test_parse_error_names_the_line_and_column(tmp_path, chunk, line, message):
    # the line number is the file's; numpy's own row count is not repeated
    path = tmp_path / "emb.txt"
    path.write_text(f"a 1.0 2.0\n{line}\nc 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as excinfo:
        load_embeddings(path)
    assert str(excinfo.value) == f"{path}:2: {message}"


def _in_range_values(precision: int) -> np.ndarray:
    """Values a fixed-point formatter can get wrong, all below 2**52 / 10**p."""
    rng = np.random.default_rng(precision)
    halves = (rng.integers(0, 10 ** min(precision, 6), 300) + 0.5) / 10.0**precision
    v = np.concatenate([
        # exact binary halves: true ties, which round half to even
        [0.0078125, -5 / 1024, 2.5, 0.5, 0.125, -0.375, 3 / 2**20],
        (2 * rng.integers(0, 2**12, 300) + 1) / 2.0 ** rng.integers(1, 30, 300),
        # decimal halves, inexact in binary, and their float neighbours
        halves, np.nextafter(halves, 0.0), np.nextafter(halves, 1.0),
        # rounding that carries into the integer part
        [9.9999995, 999999.5, 0.9999999999999999, 99.95, 0.05, 9.5],
        # signed zeros, tiny negatives and subnormals
        [-0.0, 0.0, -1e-9, 1e-9, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300],
        *(rng.normal(0.0, scale, 100) for scale in (1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e5)),
    ])
    v = np.concatenate([v, -v])
    return v[np.abs(v) * 10.0**precision < 2.0**52]


@pytest.fixture
def no_fallback(monkeypatch):
    # the %-format row path is only for magnitudes >= 2**52 / 10**precision
    def refuse(rows, precision):
        raise AssertionError("in-range rows reached the %-format fallback")
    monkeypatch.setattr(embeddings, "_percent_rows", refuse)


@pytest.mark.parametrize("precision", range(1, 17))
def test_fixed_point_save_matches_per_coordinate_format(tmp_path, no_fallback, precision):
    values = _in_range_values(precision)
    values = np.concatenate([values, np.zeros(-values.size % 7)]).reshape(-1, 7)
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(len(values))), values)
    out = tmp_path / "saved.txt"
    save_embeddings(emb, out, precision=precision)
    assert out.read_bytes() == _reference_save(emb, precision).encode("utf-8")


def test_out_of_range_value_sends_only_its_chunk_to_the_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", 2)
    calls = []
    percent_rows = embeddings._percent_rows

    def recording(rows, precision):
        calls.append(rows.copy())
        return percent_rows(rows, precision)

    monkeypatch.setattr(embeddings, "_percent_rows", recording)
    rows = np.random.default_rng(5).normal(0.0, 3.0, (6, 3))
    rows[3, 1] = 2.0**52 / 1e6  # the smallest magnitude out of range at p=6
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(6)), rows)
    out = tmp_path / "saved.txt"
    save_embeddings(emb, out, precision=6)
    assert out.read_bytes() == _reference_save(emb, 6).encode("utf-8")
    assert len(calls) == 1 and np.array_equal(calls[0], rows[2:4])


@pytest.mark.parametrize("precision", [3, 6])
def test_save_across_chunk_boundaries_with_non_ascii_tokens(
    tmp_path, chunk, no_fallback, precision
):
    words = ("café", "naïve", "日本", "Ελλάδα", "ß", "w5", "🙂", "x7", "end")
    rows = np.random.default_rng(9).normal(0.0, 10.0, (len(words), 4))
    rows[4] = [-0.0, -1e-9, 0.0078125, 999.9995]
    emb = EmbeddingSet(words, rows)
    out = tmp_path / "saved.txt"
    save_embeddings(emb, out, precision=precision)
    assert out.read_bytes() == _reference_save(emb, precision).encode("utf-8")
    assert load_embeddings(out).words == words


def _plain_coordinate(rnd) -> str:
    # -?[0-9]{0,7}\.[0-9]{1,8}: the coordinates the block path parses
    sign = "-" if rnd.random() < 0.5 else ""
    whole = "".join(rnd.choices("0123456789", k=rnd.randint(0, 7)))
    frac = "".join(rnd.choices("0123456789", k=rnd.randint(1, 8)))
    return f"{sign}{whole}.{frac}"


# signed zeros, missing integer parts, the extremes of the accept set and
# GloVe's variable decimals
PLAIN_EDGES = ["-0.000000", "0.0", "-0.0", ".5", "-.5", "9999999.99999999",
               "-9999999.99999999", "0.00000001", "-0.00000001", "0.418",
               "-0.00066023", "0.24968", "-1.1", "00000.50000000"]
# fields only the line loop reads: exponents, 16 significant digits, a
# plus sign, no fraction digits, and tabs
FALLBACK_FIELDS = ["1e-3", "-2.5E+2", "1234567.123456789", "0.1234567890123456",
                   "+1.0", "1.", "-7.", "\t1.5", "2.25\t"]
# tokens holding points, which the block path must not take for coordinates
POINT_TOKENS = ["u.s.", ".", "...", "a.b", "3.14", "-.5"]


def _float_lines(rnd, n: int, dim: int, fallback: float) -> list[str]:
    lines = []
    for i in range(n):
        fields = [rnd.choice(FALLBACK_FIELDS) if rnd.random() < fallback
                  else rnd.choice(PLAIN_EDGES) if rnd.random() < 0.2
                  else _plain_coordinate(rnd) for _ in range(dim)]
        token = POINT_TOKENS[i] if i < len(POINT_TOKENS) else f"w{i}"
        lines.append(f"{token} " + " ".join(fields) + "\n")
    return lines


def _float_reference(lines: list[str]) -> np.ndarray:
    return np.array([[float(p) for p in line.rstrip("\n").split(" ")[1:]] for line in lines])


def test_block_parser_is_bit_identical_to_float():
    rnd = random.Random(11)
    edges = PLAIN_EDGES * 2
    lines = _float_lines(rnd, 400, 7, fallback=0.0)
    lines += [f"e{i} " + " ".join(edges[i : i + 7]) + "\n" for i in range(len(PLAIN_EDGES))]
    parsed = embeddings._parse_block("".join(lines).encode("utf-8"))
    assert parsed is not None
    tokens, rows = parsed
    assert tokens == [line.split(" ")[0] for line in lines]
    # int64 views: -0.0 must stay negative
    assert np.array_equal(rows.view(np.int64), _float_reference(lines).view(np.int64))


@pytest.mark.parametrize("field", FALLBACK_FIELDS + ["1.0x", "1.2.3", "--1.0", "-", ".",
                                                    "12345678.5", "1.123456789", "", "١.5"])
def test_block_parser_refuses_what_it_cannot_read_exactly(field):
    block = f"a 1.5 {field}\nb 2.5 3.5\n".encode("utf-8")
    assert embeddings._parse_block(block) is None


@pytest.mark.parametrize("block", [b"a 1.5\r\nb 2.5\r\n", b"a 1.5\n\nb 2.5\n",
                                   b"a 1.5\nb 2.5 3.5\n", b"a 1.5\nb", b"a\n",
                                   b"\xff 1.5\n", b"a 1.5  \n", b"a  1.5\n"])
def test_block_parser_refuses_malformed_blocks(block):
    assert embeddings._parse_block(block) is None


@pytest.fixture(params=[64, 2**18], ids=lambda b: f"read{b}")
def read_bytes(request, monkeypatch):
    # 64-byte reads put about one line in each block
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", request.param)
    return request.param


@pytest.fixture
def block_outcomes(monkeypatch):
    # whether the block path took each block, by the block's first token
    outcomes = {}
    parse_block = embeddings._parse_block

    def recording(block):
        parsed = parse_block(block)
        outcomes[block.split(b" ", 1)[0].decode()] = parsed is not None
        return parsed

    monkeypatch.setattr(embeddings, "_parse_block", recording)
    return outcomes


def test_load_plain_and_fallback_fields_match_float(tmp_path, chunk, read_bytes, block_outcomes):
    rnd = random.Random(12)
    lines = _float_lines(rnd, 300, 5, fallback=0.02)
    path = tmp_path / "mixed.txt"
    path.write_text("".join(lines), encoding="utf-8")
    emb = load_embeddings(path)
    assert emb.words == tuple(line.split(" ")[0] for line in lines)
    assert np.array_equal(emb.vectors.view(np.int64), _float_reference(lines).view(np.int64))
    if read_bytes == 64:
        taken = set(block_outcomes.values())
        assert taken == {True, False}


@pytest.mark.parametrize("workers", [1, 2])
def test_load_and_save_match_with_any_worker_count(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(embeddings, "_workers", lambda: workers)
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", 256)
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", 3)
    rows = np.random.default_rng(8).normal(0.0, 5.0, (40, 6))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(40)), rows)
    path = tmp_path / "saved.txt"
    save_embeddings(emb, path, precision=6)
    assert path.read_bytes() == _reference_save(emb, 6).encode("utf-8")
    again = load_embeddings(path)
    assert np.array_equal(again.vectors, _float_reference(path.read_text().splitlines()))


@pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (8, embeddings._MAX_WORKERS)])
def test_workers_without_an_affinity_call(monkeypatch, cpus, workers):
    # macOS and Windows have no os.sched_getaffinity: the CPU count decides
    monkeypatch.delattr(embeddings.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(embeddings.os, "cpu_count", lambda: cpus)
    assert embeddings._workers() == workers


def _lines(count: int, bad: dict[int, str]) -> str:
    # 22-byte lines "wNN D.000000 2.000000" but for `bad`, numbered from 1
    return "".join(bad.get(i, f"w{i:02d} {i % 10}.000000 2.000000") + "\n"
                   for i in range(1, count + 1))


def test_fallback_block_after_taken_blocks_names_its_line(tmp_path, block_outcomes, monkeypatch):
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", 2 * 22)  # two lines a block
    path = tmp_path / "bad.txt"
    path.write_text(_lines(12, {9: "w09 1e0 2.000000", 10: "w10 1.000000 x"}))
    with pytest.raises(EmbeddingFormatError, match=r"bad\.txt:10: could not convert string 'x'"):
        load_embeddings(path)
    assert all(block_outcomes[f"w{i:02d}"] for i in (1, 3, 5, 7))
    assert not block_outcomes["w09"]


@pytest.mark.parametrize("bad, message", [
    ({7: "w07 1.000000"}, "expected 2 coordinates, got 1"),
    # a whole block of three coordinates, which the block path takes
    ({7: "w07 1.5 2.5 3.5", 8: "w08 1.5 2.5 3.5"}, "expected 2 coordinates, got 3"),
    ({7: "w01 1.000000 2.000000"}, "duplicate token 'w01'"),
    ({7: "w07 1.000000 y"}, "could not convert string 'y'"),
])
def test_bad_first_line_of_a_later_block_is_named(tmp_path, monkeypatch, bad, message):
    # blocks hold lines 1-2, 3-4 and 5-6, then start at line 7
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", 2 * 22)
    path = tmp_path / "bad.txt"
    path.write_text(_lines(10, bad))
    with pytest.raises(EmbeddingFormatError, match=rf"bad\.txt:7: {message}"):
        load_embeddings(path)


@pytest.mark.parametrize("read", [4 * 22, 2**18])
def test_limit_mid_block_leaves_later_lines_unread(tmp_path, monkeypatch, read):
    monkeypatch.setattr(embeddings, "_COUNT_BYTES", read)
    path = tmp_path / "tail.txt"
    # the limit falls inside the first block, before its malformed line 3;
    # the block path may already have read the malformed line 9
    path.write_text(_lines(12, {3: "w03 1.000000", 9: "w09 z 2.000000"}))
    emb = load_embeddings(path, limit=2)
    assert emb.words == ("w01", "w02")
    assert np.array_equal(emb.vectors, [[1.0, 2.0], [2.0, 2.0]])
    # the limit falls inside a block the block path took
    path.write_text(_lines(12, {9: "w09 z 2.000000"}))
    emb = load_embeddings(path, limit=6)
    assert emb.words == tuple(f"w{i:02d}" for i in range(1, 7))
    assert np.array_equal(emb.vectors[:, 0], np.arange(1.0, 7.0))


@pytest.mark.parametrize("word", ["a b", "x\ny", "r\r", " ", "tail "])
def test_save_rejects_tokens_that_do_not_read_back(tmp_path, word):
    emb = EmbeddingSet((word, "c"), np.ones((2, 2)))
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        save_embeddings(emb, path)
    assert not path.exists()


def test_save_holds_a_few_chunks_at_once(tmp_path, monkeypatch):
    # chunks are formatted ahead of the write by at most one per worker, so
    # the traced peak is a few chunks' working arrays and text, not the file
    monkeypatch.setattr(embeddings, "_PARSE_CHUNK", 16)
    rows = np.random.default_rng(7).normal(0.0, 1.0, (1500, 300))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(1500)), rows)
    path = tmp_path / "big.txt"
    tracemalloc.start()
    try:
        save_embeddings(emb, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_text = path.stat().st_size * 16 / 1500
    assert peak < 32 * chunk_text


def test_in_order_draws_each_item_once_in_order(monkeypatch):
    # more workers than cores and a short switch interval, so that the
    # workers' draws from the shared iterator interleave
    monkeypatch.setattr(embeddings, "_workers", lambda: 4)
    got = []

    def run():
        with embeddings._in_order(lambda i: (i, i * i), iter(range(10000))) as results:
            got.extend(results)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert got == [(i, i * i) for i in range(10000)]
