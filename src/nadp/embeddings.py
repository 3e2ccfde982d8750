"""Loading and saving of plain-text word embeddings.

The on-disk format is the single-space-separated text format used by
pretrained GloVe releases: one word per line, token first, then the
coordinates. Coordinates are held in float64 throughout; the noise
calibration downstream needs the headroom.

Both directions run on up to two worker threads. Loading reads blocks of
whole lines on the workers, which parse them with whole-array numpy calls
that release the GIL (:func:`_parse_block`), or failing that line by line,
while the caller's thread checks and keeps the rows in file order. Saving
formats chunks of rows into finished line bytes on the workers while the
caller's thread writes them in order. The loaded bits and the saved bytes
depend neither on the number of workers nor on where blocks and chunks end.
"""

from __future__ import annotations

import itertools
import os
import re
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
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
        index = dict(zip(self.words, range(len(self.words))))
        if len(index) != len(self.words):
            seen = set()
            for w in self.words:
                if w in seen:
                    raise ValueError(f"duplicate token {w!r}")
                seen.add(w)
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


# rows formatted per chunk when saving (loading parses whole blocks); bounds
# the text and working arrays held at once. Saving has up to _MAX_WORKERS + 1
# chunks in flight, and the worker threads' heaps keep what they held: on
# perfbench's release (10k x 300, precision 6) 512-row chunks raised the
# peak RSS to 208 MB, against 187-189 MB with 64-128 rows.
_PARSE_CHUNK = 128

# bytes read per call from an embedding file, when counting its lines and
# when loading it: a block of whole lines is about this size, one worker
# reads and parses each, and at most _MAX_WORKERS + 1 blocks are in flight
_COUNT_BYTES = 2**18

# threads that parse blocks or format chunks at once; beyond two is unmeasured
_MAX_WORKERS = 2


def _workers() -> int:
    """Worker threads for loading and saving: at most _MAX_WORKERS, and no
    more than the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


# what a call past the last item returns
_END = object()


@contextmanager
def _in_order(fn, items):
    """Yield an iterator of fn(item) over `items`, in order.

    With more than one worker, each call on the thread pool draws its own
    item from `items`, under a lock, and the caller's thread only waits for
    the results, with at most one call per worker beyond the one it waits
    for; with one worker fn runs in-line. What drawing an item allocates (a
    block read from a file) thus stays in a worker's heap: with blocks read
    on the caller's thread, perfbench privacy's peak RSS rose by about
    10 MB more in 3 of 23 runs; read on the workers, in 0 of 18.
    Leaving the block cancels the calls not yet started.
    """
    workers = _workers()
    if workers == 1:
        yield map(fn, items)
        return
    import threading
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    lock = threading.Lock()
    drawn = itertools.count()

    # fn must not raise: calls draw items as they start, so an error could overtake earlier items
    def call():
        with lock:
            seq, item = next(drawn), next(items, _END)
        return seq, (_END if item is _END else fn(item))

    def ordered():
        pending = deque(pool.submit(call) for _ in range(workers + 1))
        done = {}
        for seq in itertools.count():
            while seq not in done:
                key, result = pending.popleft().result()
                done[key] = result
                pending.append(pool.submit(call))
            result = done.pop(seq)
            if result is _END:
                return
            yield result

    pool = ThreadPoolExecutor(workers)
    try:
        yield ordered()
    finally:
        pool.shutdown(cancel_futures=True)


# numpy's parse error ends "at row R, column C."; a one-row parse always
# reports row 0, so only the column is kept beside the file's line number
_NUMPY_LOCATION = re.compile(r" at row \d+, (column \d+)\.$")

_parse_coords = partial(np.loadtxt, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)


def _parse_rows(coords: list[str], dim: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Parse coordinate strings of `dim` numbers each, a row per string, by
    one ``loadtxt`` call: the rows before the first string that does not
    parse or is not finite, and that string's index and message, or None."""
    try:
        # loadtxt skips an empty string silently, so a list holding one goes
        # to the row-by-row pass, which rejects it
        rows = _parse_coords(coords) if coords and all(coords) else None
    except ValueError:
        rows = None
    bad = None
    if rows is None or rows.shape != (len(coords), dim):
        # find the string: parse one at a time with the same parser
        rows = np.empty((len(coords), dim))
        for i, text in enumerate(coords):
            try:
                row = _parse_coords([text]) if text else None
            except ValueError as exc:
                bad = i, _NUMPY_LOCATION.sub(r" at \1", str(exc))
                break
            if row is None or row.shape != (1, dim):
                bad = i, f"could not convert string {text!r} to float64"
                break
            rows[i] = row
        if bad is not None:
            rows = rows[: bad[0]]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        rows, bad = rows[:i], (i, "non-finite coordinate")
    return rows, bad


# ASCII '0' bytes on each side of a block, so that the 8-byte windows of its
# first and last coordinates stay inside the buffer
_PAD = 8
_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # eight ASCII '0'
_HIGH_BITS = _U64(0x8080808080808080)
# a byte below 0x80 gains its high bit from this addend only if it is above 9
_ABOVE_NINE = _U64(0x7676767676767676)
_LOW_BYTES = _U64(0x000000FF000000FF)
_ALL = _U64((1 << 64) - 1)
_SPACE, _POINT, _NEWLINE = (ord(c) for c in " .\n")


def _eight_digits(d: np.ndarray) -> np.ndarray:
    """Replace words of eight digit values 0-9, the first in memory most
    significant, by their values, with three multiplies (Lemire 2021).
    Products wrap mod 2**64, as the method expects."""
    t = d >> _U64(8)
    d *= _U64(10)
    d += t
    t = d >> _U64(16)
    t &= _LOW_BYTES
    t *= _U64(1 + (10000 << 32))
    d &= _LOW_BYTES
    d *= _U64(100 + (1000000 << 32))
    d += t
    d >>= _U64(32)
    return d


def _marks_by_line(marks: np.ndarray, kinds: np.ndarray, n: int) -> np.ndarray | None:
    """`marks` as n rows of ' ', '.' once per coordinate, then '\\n', or None."""
    width = marks.size // n
    if width < 3 or width % 2 == 0 or marks.size != n * width:
        return None
    pattern = np.full(width, _POINT, dtype=np.uint8)
    pattern[0::2] = _SPACE
    pattern[-1] = _NEWLINE
    if not np.all(kinds.reshape(n, width) == pattern):
        return None
    return marks.reshape(n, width)


def _parse_block(block: bytes) -> tuple[list[str], np.ndarray] | None:
    """The tokens and coordinates of a block of whole lines, or None.

    Takes only blocks in which every line is a token and then the same
    number d >= 1 of ' '-separated coordinates, each matching
    ``-?[0-9]{0,7}\\.[0-9]{1,8}``, with no '\\r' and valid UTF-8 tokens.
    Such a coordinate has at most 15 significant digits, so it is the
    integer of its digits over 10**8, both exact in float64, and one
    correctly rounded division gives the float nearest the decimal, the
    same bits as ``float()`` (Clinger 1990). The digits are read eight at a
    time from unaligned little-endian words. Whole-array numpy calls do
    all the work on the coordinates, and they release the GIL. Never
    raises on bad input: any block it does not take returns None.
    """
    if b"\r" in block or not block.endswith(b"\n"):
        return None
    a = np.empty(len(block) + 2 * _PAD, dtype=np.uint8)
    a[:_PAD] = a[-_PAD:] = ord("0")
    a[_PAD:-_PAD] = np.frombuffer(block, dtype=np.uint8)
    # every space, point and line end; a taken line has the kinds
    # [points of the token], then ' ', '.' once per coordinate, then '\n'
    marks = np.flatnonzero((a == _SPACE) | (a == _POINT) | (a == _NEWLINE))
    kinds = a[marks]
    n = int(np.count_nonzero(kinds == _NEWLINE))
    lines = _marks_by_line(marks, kinds, n)
    if lines is None:
        # drop the points of tokens: no space comes between them and the
        # line end before them (or the block start)
        spaces = np.cumsum(kinds == _SPACE)
        token = kinds == _POINT
        token &= spaces == np.maximum.accumulate(np.where(kinds == _NEWLINE, spaces, 0))
        lines = _marks_by_line(marks[~token], kinds[~token], n)
        if lines is None:
            return None
    # coordinate j of a line runs from after the space lines[2j] to before
    # the next mark after its point lines[2j + 1]
    points = lines[:, 1::2]
    first = lines[:, 0:-1:2] + 1
    negative = a[first] == ord("-")
    whole = points - first  # digits before the point, with the sign
    del first
    whole -= negative
    cut = points + 9  # 8 less the digits after the point
    cut -= lines[:, 2::2]
    whole, cut = whole.view(np.uint64), cut.view(np.uint64)
    if np.any(whole > 7) or np.any(cut > 7):
        return None
    # each coordinate's eight bytes before its point and eight after, as
    # little-endian words; XOR with '0' turns digits into their values, and
    # the masks zero the bytes outside the coordinate
    words = np.ndarray((a.size - 7,), dtype="<u8", buffer=a, strides=(1,))
    high = words[points - 8]
    high ^= _ZEROS
    whole <<= _U64(3)
    high &= ~(_ALL >> whole)
    del whole
    low = words[points + 1]
    low ^= _ZEROS
    cut <<= _U64(3)
    low &= _ALL >> cut
    del cut, words, a
    bad = high + _ABOVE_NINE
    bad |= high
    bad |= low
    bad |= low + _ABOVE_NINE
    bad &= _HIGH_BITS
    if bad.any():
        return None
    del bad
    # the fraction's digits padded with zeros to eight: (whole * 10**8 +
    # fraction) is the coordinate's magnitude times 10**8, below 10**15
    high = _eight_digits(high)
    high *= _U64(10**8)
    high += _eight_digits(low)
    del low
    rows = high.astype(np.float64)
    del high
    rows.view(np.uint64)[...] |= negative.astype(np.uint64) << _U64(63)
    rows /= 1e8
    starts = np.concatenate(([0], lines[:-1, -1] + 1 - _PAD)).tolist()
    spans = zip(starts, (lines[:, 0] - _PAD).tolist())
    try:
        tokens = b"\n".join([block[s:e] for s, e in spans]).decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    return tokens, rows


@dataclass(frozen=True)
class _Parsed:
    """A block of whole lines as a worker parsed it: its line count; the
    line offset in the block, token and coordinates of each row before its
    first bad line; and that line's offset and message, or None."""

    lines: int
    offsets: list[int] | range
    tokens: list[str]
    rows: np.ndarray
    error: tuple[int, str] | None


def _parse(block: bytes) -> _Parsed:
    """Parse a block of whole lines by :func:`_parse_block`, or failing that
    one line at a time: the loader's worker function, the line parser.

    The line parser splits lines at '\\n', '\\r\\n' or '\\r', and a blank one
    holds no row. Its rows stop before the first line that is not UTF-8, has
    fewer than two fields or another coordinate count than the block's first
    row, or holds a coordinate that does not parse or is not finite (see
    :func:`_parse_rows`). Never raises on bad input: that line is the error.
    """
    parsed = _parse_block(block)
    if parsed is not None:
        tokens, rows = parsed
        return _Parsed(len(tokens), range(len(tokens)), tokens, rows, None)
    lines = block.splitlines()
    offsets, tokens, coords = [], [], []
    dim, error = 0, None
    for offset, raw in enumerate(lines):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            error = offset, str(exc)
            break
        if not line:
            continue
        fields = line.count(" ") + 1
        if fields < 2:
            error = offset, f"expected 'token v1 ... vd', got {fields} fields"
            break
        if not dim:
            dim = fields - 1
        elif fields - 1 != dim:
            error = offset, f"expected {dim} coordinates, got {fields - 1}"
            break
        token, _, text = line.partition(" ")
        offsets.append(offset)
        tokens.append(token)
        coords.append(text)
    rows, bad = _parse_rows(coords, dim)
    if bad is not None:
        i, message = bad
        error = offsets[i], message
        del offsets[i:], tokens[i:]
    return _Parsed(len(lines), offsets, tokens, rows, error)


def _blocks(fh) -> Iterator[bytes]:
    """A binary file's bytes in blocks of whole lines of about _COUNT_BYTES
    each, ended by '\\n' or '\\r' alone; a last line without an ending gets
    '\\n'. A line longer than a block is read whole."""
    rest = b""
    for chunk in iter(lambda: fh.read(_COUNT_BYTES), b""):
        chunk = rest + chunk
        # a '\r' last in the chunk may be the start of '\r\n'
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield chunk[:cut]
        rest = chunk[cut:]
    if rest:
        yield rest + b"\n"


def _row_bound(path: Path, limit: int | None) -> int:
    """Rows that loading `path` can keep, counted over its raw bytes by one
    numpy comparison per chunk: one per '\\n', plus a last line without
    one, capped at `limit`. UTF-8 never puts that byte inside a character.
    Anything but a regular file is read once only, so it counts 0."""
    if not path.is_file():
        return 0
    ends, last = 0, b""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(_COUNT_BYTES), b""):
            # about three times bytes.count's speed
            ends += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == _NEWLINE))
            if limit is not None and ends >= limit:
                return limit
            last = chunk
    if last and not last.endswith(b"\n"):
        ends += 1
    return ends if limit is None else min(ends, limit)


class _Loader:
    """The rows `load_embeddings` has kept so far, in file order."""

    def __init__(self, path: Path, limit: int | None, word_filter: set[str] | None):
        self.path = path
        self.limit = limit
        self.word_filter = word_filter
        self.bound = _row_bound(path, limit)
        if word_filter is not None:
            self.bound = min(self.bound, len(word_filter))
        self.words: list[str] = []
        self.seen: set[str] = set()
        self.dim: int | None = None
        self.vectors: np.ndarray | None = None
        self.filled = 0

    def full(self) -> bool:
        return self.limit is not None and len(self.words) >= self.limit

    def _put(self, rows: np.ndarray, kept: list[bool]) -> None:
        """Append the kept rows to one matrix, sized by the line count and
        grown by doubling past it."""
        if not all(kept):
            rows = rows[np.asarray(kept, dtype=bool)]
        need = self.filled + len(rows)
        if self.vectors is None or need > len(self.vectors):
            grown = np.empty((max(self.bound, 2 * self.filled, need), self.dim))
            if self.filled:
                grown[: self.filled] = self.vectors[: self.filled]
            self.vectors = grown
        self.vectors[self.filled : need] = rows
        self.filled = need

    def take(self, lineno: int, block: _Parsed) -> None:
        """Check and keep the rows of a parsed block whose first line is
        `lineno`, up to the limit, then raise the block's error, if any."""

        def error(offset: int, message: str) -> EmbeddingFormatError:
            return EmbeddingFormatError(f"{self.path}:{lineno + offset}: {message}")

        tokens, rows = block.tokens, block.rows
        if tokens and self.dim is None:
            self.dim = rows.shape[1]
        elif tokens and rows.shape[1] != self.dim:
            # every row of a block has this count, so the first is at fault
            raise error(block.offsets[0], f"expected {self.dim} coordinates, got {rows.shape[1]}")
        kept = []
        for offset, token in zip(block.offsets, tokens):
            if token in self.seen:
                raise error(offset, f"duplicate token {token!r}")
            self.seen.add(token)
            keep = self.word_filter is None or token in self.word_filter
            kept.append(keep)
            if keep:
                self.words.append(token)
                if self.full():
                    break
        if kept:
            self._put(rows[: len(kept)], kept)
        if block.error is not None and not self.full():
            raise error(*block.error)


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
    the `limit`-th kept row can raise.

    The file is streamed in blocks of whole lines of about `_COUNT_BYTES`,
    read and parsed on up to `_MAX_WORKERS` threads (:func:`_parse`) while
    this one checks and keeps the rows of earlier blocks. A block of plain
    fixed-point coordinates takes :func:`_parse_block`'s whole-array path;
    any other block (exponents, long mantissas, '+', '\\r', blank lines, a
    wrong field count, bytes that are not UTF-8) is read line by line, its
    coordinates by one numpy ``loadtxt`` call. Both give the bits of
    ``float()``. A first pass counts the file's lines, and every block's
    rows go straight into one matrix of that many rows, so loading holds the
    matrix and a few blocks rather than the matrix twice. Rows beyond the
    count (a stream, or lines ended by '\\r' alone) grow the matrix by
    doubling; fewer rows than counted cost one copy at the end.

    Raises EmbeddingFormatError on malformed lines, duplicate tokens, or an
    empty result. The error names the first offending line in file order;
    within one line bytes that are not UTF-8 come first, then a wrong field
    count, then an unparsable coordinate, then a non-finite one, then a
    duplicate token.
    """
    if limit is not None:
        require("limit", limit)
    path = Path(path)
    loader = _Loader(path, limit, word_filter)
    lineno = 1
    with path.open("rb") as fh, _in_order(_parse, _blocks(fh)) as blocks:
        for block in blocks:
            loader.take(lineno, block)
            if loader.full():
                break
            lineno += block.lines
    if not loader.words:
        raise EmbeddingFormatError(f"{path}: no embeddings loaded")
    vectors = loader.vectors
    if loader.filled < len(vectors):
        vectors = vectors[: loader.filled].copy()
    return EmbeddingSet(tuple(loader.words), vectors)


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
    """Write the ASCII digits of non-negative integers along `out`'s last axis.

    `out` is a uint8 view of shape ``values.shape + (width,)``, wide enough
    for every value; shorter values are zero-padded on the left.
    """
    if values.max(initial=0) < 2**31:
        values = values.astype(np.int32)  # divides ~4x faster than int64
    for col in range(out.shape[-1] - 1, -1, -1):
        quotient = values // 10  # divmod is several times slower than //
        digit = values - quotient * 10
        digit += ord("0")  # on the digits alone: a strided add is slower
        out[..., col] = digit
        values = quotient


def _fixed_point_lines(words: tuple[str, ...], rows: np.ndarray, precision: int) -> bytes | None:
    """The UTF-8 lines ``word v1 ... vd``, each coordinate written as
    ``f"{v:.{precision}f}"``.

    Built with whole-array operations in one byte matrix of a row per line:
    a fixed-width field for the word and its space, then one per coordinate
    (sign, integer digits, point, fraction digits, separator), from which
    one boolean mask drops the word's padding, unused sign bytes and
    leading zeros. Returns None when some |v| * 10**precision reaches 2**52.
    """
    n, dim = rows.shape
    scaled = _scaled_integers(np.abs(rows.ravel()), precision)
    if scaled is None:
        return None
    frac = scaled.astype(np.int64).reshape(n, dim)
    del scaled
    whole = frac // 10**precision
    frac -= whole * 10**precision
    int_width = len(str(int(whole.max(initial=0))))
    width = int_width + precision + 3
    heads = [word.encode("utf-8") + b" " for word in words]
    head = max(map(len, heads))
    lines = np.empty((n, head + dim * width), dtype=np.uint8)
    keep = np.ones(lines.shape, dtype=bool)
    lines[:, :head] = np.frombuffer(
        b"".join(h.ljust(head) for h in heads), dtype=np.uint8
    ).reshape(n, head)
    keep[:, :head] = np.arange(head) < np.array(list(map(len, heads)))[:, None]
    # views of each line's coordinate fields, (n, dim, width)
    fields = lines[:, head:].reshape(n, dim, width)
    kept = keep[:, head:].reshape(n, dim, width)
    fields[..., 0] = ord("-")
    # -0.0 and negatives that round to zero print a sign, as Python does
    kept[..., 0] = np.signbit(rows)
    _put_digits(whole, fields[..., 1 : int_width + 1])
    # drop leading zeros of the integer part, keeping its last digit
    for col in range(1, int_width):
        kept[..., col] = whole >= 10 ** (int_width - col)
    fields[..., int_width + 1] = ord(".")
    _put_digits(frac, fields[..., int_width + 2 : -1])
    del whole, frac  # the masked copy below holds as much again
    fields[..., -1] = ord(" ")
    fields[:, -1, -1] = ord("\n")
    # compress copies the kept runs faster than a boolean index, but through
    # an 8-byte index per kept byte: 16 lines at a time bound that to ~0.4 MB
    flat, mask, step = lines.ravel(), keep.ravel(), 16 * lines.shape[1]
    return b"".join(
        flat[s : s + step].compress(mask[s : s + step]).tobytes()
        for s in range(0, flat.size, step)
    )


def _percent_rows(rows: np.ndarray, precision: int):
    # one %-format per row, the shortest repr from precision 17 on; below it
    # the fallback for magnitudes >= 2**52 / 10**precision. .tolist() per row
    # keeps the Python floats of one row alive
    spec = "%r" if precision >= 17 else f"%.{precision}f"
    fmt = " ".join([spec] * rows.shape[1])
    return (fmt % tuple(row.tolist()) for row in rows)


def _chunk_lines(emb: EmbeddingSet, precision: int, start: int) -> bytes:
    """The UTF-8 lines of the `_PARSE_CHUNK` rows from `start`."""
    rows = emb.vectors[start : start + _PARSE_CHUNK]
    words = emb.words[start : start + _PARSE_CHUNK]
    lines = None if precision >= 17 else _fixed_point_lines(words, rows, precision)
    if lines is not None:
        return lines
    texts = _percent_rows(rows, precision)
    return "".join([f"{word} {text}\n" for word, text in zip(words, texts)]).encode("utf-8")


def save_embeddings(emb: EmbeddingSet, path: str | Path, precision: int = 6) -> None:
    """Write `emb` in the text format read by :func:`load_embeddings`.

    `precision` is the number of decimal places; the round trip then agrees
    to within 10**(-precision+1) per coordinate. Each coordinate is written
    byte for byte as ``f"{v:.{precision}f}"`` would write it. Values of 17
    or more write exact round-trip decimals (shortest ``repr``) instead.

    Raises ValueError, before the file is opened, for a token holding a
    space, '\\n' or '\\r', which would not read back as one token.

    Chunks of `_PARSE_CHUNK` rows are formatted as finished line bytes on
    up to `_MAX_WORKERS` threads, with whole-array numpy operations (see
    :func:`_fixed_point_lines`), while this thread writes earlier chunks
    in order; a chunk holding a magnitude of 2**52 / 10**precision or more
    is formatted one row at a time by Python's own ``%``-format instead.
    """
    require("precision", precision)
    bad = next((w for w in emb.words if " " in w or "\n" in w or "\r" in w), None)
    if bad is not None:
        raise ValueError(
            f"token {bad!r} holds a space or a line break, so it would not read back"
        )
    path = Path(path)
    starts = range(0, emb.n, _PARSE_CHUNK)
    with path.open("wb") as fh, _in_order(partial(_chunk_lines, emb, precision), starts) as chunks:
        for lines in chunks:
            fh.write(lines)
