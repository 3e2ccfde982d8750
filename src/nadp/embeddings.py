"""Loading and saving of plain-text word embeddings.

The on-disk format is the single-space-separated text format used by
pretrained GloVe releases: one word per line, token first, then the
coordinates. Coordinates are held in float64 throughout; the noise
calibration downstream needs the headroom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domains import require


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates the expected text format."""


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """An ordered vocabulary with one d-dimensional float64 vector per word.

    Immutable after construction: the vector matrix is marked read-only and
    the instance is safe to share across threads.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
        if vectors.shape[1] < 1:
            raise ValueError("embedding dimensionality must be >= 1")
        if len(self.words) != vectors.shape[0]:
            raise ValueError(
                f"{len(self.words)} words but {vectors.shape[0]} vector rows"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding coordinates must be finite")
        index = {}
        for i, w in enumerate(self.words):
            if w in index:
                raise ValueError(f"duplicate token {w!r}")
            index[w] = i
        vectors.setflags(write=False)
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.words)

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index_of(self, word: str) -> int:
        return self._index[word]


# rows parsed per numpy call when loading, and formatted per set of
# whole-array passes when saving; bounds the coordinate text and rows held
# at once. At 300-d, 4096 rows parsed no faster than 512 and raised the peak
# RSS of a later kNN search by ~14 MB more. Saving a 512 x 300 chunk at
# precision 6 holds at most ~9 MB of working arrays and text.
_PARSE_CHUNK = 512

# bytes read per call when counting a file's lines before loading it
_COUNT_BYTES = 2**20


# numpy's parse error ends "at row R, column C."; a one-row re-parse always
# reports row 0, so only the column is kept beside the file's line number
_NUMPY_LOCATION = re.compile(r" at row \d+, (column \d+)\.$")


def _parse_coords(coords: list[str]) -> np.ndarray:
    return np.loadtxt(coords, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)


def _parse_rows(path: Path, linenos: list[int], coords: list[str], dim: int) -> np.ndarray:
    """Parse queued coordinate strings, one row each, checking finiteness.

    Raises EmbeddingFormatError naming the first offending line in file
    order: a row that does not parse, or failing that a non-finite one.
    """
    try:
        # loadtxt skips an empty string silently, so a chunk holding one goes
        # to the row-by-row pass, which rejects it
        rows = _parse_coords(coords) if all(coords) else None
    except ValueError:
        rows = None
    if rows is None or rows.shape != (len(coords), dim):
        # name the line: re-parse one row at a time with the same parser
        for lineno, text in zip(linenos, coords):
            try:
                row = _parse_coords([text]) if text else None
            except ValueError as exc:
                msg = _NUMPY_LOCATION.sub(r" at \1", str(exc))
                raise EmbeddingFormatError(f"{path}:{lineno}: {msg}") from None
            if row is None or row.shape != (1, dim):
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: could not convert string {text!r} to float64"
                )
            if not np.all(np.isfinite(row)):
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite coordinate")
        raise EmbeddingFormatError(
            f"{path}:{linenos[0]}: lines {linenos[0]}-{linenos[-1]} parse one by one"
            f" but not as {len(coords)} rows of {dim} coordinates"
        )
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise EmbeddingFormatError(f"{path}:{lineno}: non-finite coordinate")
    return rows


def _row_bound(path: Path, limit: int | None) -> int:
    """Rows that loading `path` can keep, counted over its raw bytes at C
    speed: one per '\\n', plus a last line without one, capped at `limit`.
    UTF-8 never puts that byte inside a character. Anything but a regular
    file is read once only, so it counts 0."""
    if not path.is_file():
        return 0
    ends, last = 0, b""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(_COUNT_BYTES), b""):
            ends += chunk.count(b"\n")
            if limit is not None and ends >= limit:
                return limit
            last = chunk
    if last and not last.endswith(b"\n"):
        ends += 1
    return ends if limit is None else min(ends, limit)


def load_embeddings(
    path: str | Path,
    limit: int | None = None,
    word_filter: set[str] | None = None,
) -> EmbeddingSet:
    """Read an embedding file, keeping the first `limit` accepted rows.

    Each line must be ``token v1 v2 ... vd`` with single-space separators and
    a consistent dimensionality. When `word_filter` is given, only listed
    tokens are kept (they still count towards `limit` only if kept), but
    every row read is validated. File order is preserved, and no line after
    the `limit`-th kept row is parsed.

    Coordinates are parsed by numpy's ``loadtxt`` in chunks of
    `_PARSE_CHUNK` rows, so the file is streamed, never read whole. A first
    pass counts its lines, and each chunk's rows go straight into one matrix
    of that many rows, so loading holds the matrix and one chunk rather than
    the matrix twice, and leaves no matrix-sized run of freed chunks behind.
    Rows beyond the count (a stream, or lines ended by '\\r' alone) grow the
    matrix by doubling; fewer rows than counted cost one copy at the end.

    Raises EmbeddingFormatError on malformed lines, duplicate tokens, or an
    empty result. The error names the first offending line in file order;
    within one line a wrong field count comes first, then an unparsable
    coordinate, then a non-finite one, then a duplicate token.
    """
    if limit is not None:
        require("limit", limit)
    path = Path(path)
    bound = _row_bound(path, limit)
    if word_filter is not None:
        bound = min(bound, len(word_filter))
    words: list[str] = []
    vectors: np.ndarray | None = None
    filled = 0
    seen: set[str] = set()
    dim: int | None = None
    # rows read but not yet parsed: line number, coordinate text, kept
    linenos: list[int] = []
    coords: list[str] = []
    kept: list[bool] = []

    def flush() -> None:
        nonlocal vectors, filled
        if coords:
            rows = _parse_rows(path, linenos, coords, dim)
            if not all(kept):
                rows = rows[np.asarray(kept)]
            need = filled + len(rows)
            if vectors is None or need > len(vectors):
                grown = np.empty((max(bound, 2 * filled, need), dim))
                if filled:
                    grown[:filled] = vectors[:filled]
                vectors = grown
            vectors[filled:need] = rows
            filled = need
            linenos.clear()
            coords.clear()
            kept.clear()

    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.count(" ") + 1
            if fields < 2:
                flush()
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected 'token v1 ... vd', got {fields} fields"
                )
            if dim is None:
                dim = fields - 1
            elif fields - 1 != dim:
                flush()
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} coordinates, got {fields - 1}"
                )
            token, _, text = line.partition(" ")
            linenos.append(lineno)
            coords.append(text)
            if token in seen:
                kept.append(False)
                flush()
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: duplicate token {token!r}"
                )
            seen.add(token)
            keep = word_filter is None or token in word_filter
            kept.append(keep)
            if keep:
                words.append(token)
            if len(coords) >= _PARSE_CHUNK:
                flush()
            if limit is not None and len(words) >= limit:
                break
    flush()
    if not words:
        raise EmbeddingFormatError(f"{path}: no embeddings loaded")
    if filled < len(vectors):
        vectors = vectors[:filled].copy()
    return EmbeddingSet(tuple(words), vectors)


# Veltkamp's splitter for float64: x*(2**27 + 1) splits x into two halves of
# at most 26 significant bits each, whose pairwise products are exact
_SPLITTER = 2.0**27 + 1.0
# below this every half-integer is a float64, so rint sees the exact halves
_HALF_EXACT = 2.0**52


def _split(x):
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def _scaled_integers(a: np.ndarray, precision: int) -> np.ndarray | None:
    """Round each exact ``a * 10**precision`` to an integer, ties to even.

    `a` is a 1-d array of non-negative floats. The result is float64 holding
    integers, or None when some product reaches 2**52, where the float
    product no longer decides the rounding.

    The float product P = fl(a * 10**p) can differ from the exact one, but
    rounding is monotone and every half below 2**52 is a float, so P is a
    half whenever the exact product is, and rint(P) is right wherever P is
    not a half. Where it is, Dekker's exact product error (TwoProduct) says
    on which side of the half the exact product lies; a zero error is a
    true tie and keeps rint's half-even.
    """
    scale = 10.0**precision
    with np.errstate(over="ignore"):
        prod = a * scale
    if not prod.max(initial=0.0) < _HALF_EXACT:
        return None
    n = np.rint(prod)
    half = np.flatnonzero(np.abs(prod - n) == 0.5)
    if half.size:
        p = prod[half]
        a_hi, a_lo = _split(a[half])
        s_hi, s_lo = _split(scale)
        err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
        n[half] = np.where(err > 0, p + 0.5, np.where(err < 0, p - 0.5, n[half]))
    return n


def _put_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the ASCII digits of non-negative integers into `out`'s columns.

    `out` is a (len(values), width) uint8 view wide enough for every value;
    shorter values are zero-padded on the left.
    """
    if values.max(initial=0) < 2**31:
        values = values.astype(np.int32)  # divides ~4x faster than int64
    for col in range(out.shape[1] - 1, -1, -1):
        quotient = values // 10  # divmod is several times slower than //
        digit = values - quotient * 10
        digit += ord("0")  # on the 1-d digits: a strided 2-d add is slower
        out[:, col] = digit
        values = quotient


def _fixed_point_rows(rows: np.ndarray, precision: int) -> list[str] | None:
    """Each row as ``f"{v:.{precision}f}"`` of its coordinates, space-joined.

    Built with whole-array operations: one fixed-width field per coordinate
    (sign, integer digits, point, fraction digits, separator) in a byte
    matrix, from which one boolean mask drops the unused sign bytes and
    leading zeros. Returns None when some |v| * 10**precision reaches 2**52.
    """
    dim = rows.shape[1]
    values = rows.ravel()
    scaled = _scaled_integers(np.abs(values), precision)
    if scaled is None:
        return None
    frac = scaled.astype(np.int64)
    del scaled
    whole = frac // 10**precision
    frac -= whole * 10**precision
    int_width = len(str(int(whole.max(initial=0))))
    fields = np.empty((values.size, int_width + precision + 3), dtype=np.uint8)
    fields[:, 0] = ord("-")
    _put_digits(whole, fields[:, 1 : int_width + 1])
    fields[:, int_width + 1] = ord(".")
    _put_digits(frac, fields[:, int_width + 2 : -1])
    del whole, frac  # the mask and the text copies below hold ~6 MB more
    fields[:, -1] = ord(" ")
    fields[dim - 1 :: dim, -1] = ord("\n")
    keep = np.ones(fields.shape, dtype=bool)
    # -0.0 and negatives that round to zero print a sign, as Python does
    keep[:, 0] = np.signbit(values)
    # drop leading zeros of the integer part, keeping its last digit
    np.logical_or.accumulate(fields[:, 1:int_width] != ord("0"), axis=1,
                             out=keep[:, 1:int_width])
    return fields[keep].tobytes().decode("ascii").splitlines()


def _percent_rows(rows: np.ndarray, precision: int):
    # one %-format per row; the fallback for magnitudes >= 2**52 / 10**precision
    fmt = " ".join([f"%.{precision}f"] * rows.shape[1])
    return (fmt % tuple(row.tolist()) for row in rows)


def save_embeddings(emb: EmbeddingSet, path: str | Path, precision: int = 6) -> None:
    """Write `emb` in the text format read by :func:`load_embeddings`.

    `precision` is the number of decimal places; the round trip then agrees
    to within 10**(-precision+1) per coordinate. Each coordinate is written
    byte for byte as ``f"{v:.{precision}f}"`` would write it. Values of 17
    or more write exact round-trip decimals (shortest ``repr``) instead.

    Rows are formatted `_PARSE_CHUNK` at a time with whole-array numpy
    operations (see :func:`_fixed_point_rows`); a chunk holding a magnitude
    of 2**52 / 10**precision or more is formatted one row at a time by
    Python's own ``%``-format instead.
    """
    require("precision", precision)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, emb.n, _PARSE_CHUNK):
            rows = emb.vectors[start : start + _PARSE_CHUNK]
            if precision >= 17:
                # .tolist() per row keeps the Python floats of one row alive
                texts = (" ".join(map(repr, row.tolist())) for row in rows)
            else:
                texts = _fixed_point_rows(rows, precision)
                if texts is None:
                    texts = _percent_rows(rows, precision)
            words = emb.words[start : start + _PARSE_CHUNK]
            fh.writelines(f"{word} {text}\n" for word, text in zip(words, texts))

