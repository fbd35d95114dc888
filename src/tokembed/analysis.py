"""Nearest-neighbor token queries and embedding export.

A token index holds a corpus's admitted tokens as columns: each row's
sentence id and position, and all rows' token embeddings in one (N, d′)
array, beside the sentences and tags they came from.  A row's token, context
and snippet are built only when the row is written or reported.  Neighbor
search is an exact linear scan (corpora here are small enough that
approximate structures would be overkill) under euclidean or cosine distance.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .encoder import corpus_windows
from .features import word_types
from .serialize import open_text

METRICS = ("euclidean", "cosine")

# Index rows per distance computation: the float64 copies of a block stay a
# few MB, where the whole index's would set the process's peak memory.
DISTANCE_BLOCK = 1024

# Coordinates per block of the TSV writer (32 rows of 256): the export's
# memory is a few of a block's buffers, whatever the number of rows.
EXPORT_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """Admitted tokens of a corpus: row r is token ``position[r]`` of
    ``sentences[sentence[r]]`` and its embedding is ``codes[r]``.  The
    sentences and their gold ``tags`` (or None) are the caller's lists; a
    context reaches ``w_prime`` tokens to each side."""

    sentence: np.ndarray
    position: np.ndarray
    codes: np.ndarray
    sentences: list
    tags: list | None
    w_prime: int

    def __len__(self):
        return len(self.sentence)

    def find(self, sentence, position):
        """The row of token ``position`` of sentence ``sentence``, or None."""
        rows = np.flatnonzero((self.sentence == sentence) & (self.position == position))
        return int(rows[0]) if len(rows) else None

    def fields(self, start, stop):
        """(sentence_id, position, token, left, right, tag) of the rows
        ``start`` to ``stop`` - 1, the tag None without tags."""
        w, out = self.w_prime, []
        for si, j in zip(self.sentence[start:stop].tolist(), self.position[start:stop].tolist()):
            tokens = self.sentences[si]
            out.append((si, j, tokens[j], " ".join(tokens[max(0, j - w):j]),
                        " ".join(tokens[j + 1:j + 1 + w]),
                        None if self.tags is None else self.tags[si][j]))
        return out

    def snippet(self, row):
        """Window text of ``row`` with the target marked: "[ left <token> right ]"."""
        _, _, token, left, right, _ = self.fields(row, row + 1)[0]
        return " ".join(part for part in ("[", left, f"<{token}>", right, "]") if part)


def index_corpus(model, table, sentences, type_filter=None, tags=None):
    """The ``TokenIndex`` of the tokens whose string is in ``type_filter`` (or
    all), in corpus order.

    ``tags`` optionally supplies a gold tag sequence per sentence, aligned
    with ``sentences``.  The admitted tokens' windows are encoded in one
    ``model.encode`` call.
    """
    types, of = word_types(sentences)
    keep = np.array([type_filter is None or t in type_filter for t in types], dtype=bool)[of]
    lengths = np.array([len(tokens) for tokens in sentences], dtype=np.int64)
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(len(of)) - (np.cumsum(lengths) - lengths)[sentence]
    codes = model.encode(table, corpus_windows(table, sentences, model.w_prime)[keep])
    return TokenIndex(sentence[keep], position[keep], codes, sentences, tags, model.w_prime)


def _normalized(M):
    norms = np.linalg.norm(M, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return M / safe


def distances(query_embedding, M, metric="euclidean"):
    """Distances from one embedding to the rows of ``M``.

    Cosine distance is computed as half the squared distance of the
    normalized vectors, which equals 1 - cos and is exactly zero for
    identical inputs; zero vectors keep their zero direction.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    q = np.asarray(query_embedding, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if metric == "euclidean":
        return np.linalg.norm(M - q, axis=1)
    d = _normalized(M) - _normalized(q)
    return 0.5 * (d * d).sum(axis=1)


def nearest_neighbors(query, codes, k=4, metric="euclidean", exclude=None):
    """The ``k`` rows of ``codes`` closest to the embedding ``query``, as
    (row, distance) pairs, without the row ``exclude`` (None excludes none).

    Distance ties break by row order.  If fewer than ``k`` rows remain, all
    are returned, sorted.
    """
    if k < 1:
        raise ValueError(f"-k must be at least 1, got {k}")
    if not len(codes):
        raise ValueError("empty index")
    dists = np.concatenate([distances(query, codes[s:s + DISTANCE_BLOCK], metric)
                            for s in range(0, len(codes), DISTANCE_BLOCK)])
    order = np.argsort(dists, kind="stable")[:k + 1]
    return [(int(row), float(dists[row])) for row in order if row != exclude][:k]


def export_embeddings_tsv(index, path):
    """Write a ``TokenIndex`` as a TSV suitable for external projection tools.

    Columns: sentence_id, position, token, left_context, right_context, tag
    (empty when absent), then the embedding coordinates, each written as
    ``"%.8g" % float(v)`` writes it.  Rows are formatted a block at a time.
    """
    dim = index.codes.shape[1]
    header = ["sentence_id", "position", "token", "left_context",
              "right_context", "tag"] + [f"e{k}" for k in range(dim)]
    per_block = max(1, EXPORT_BLOCK // max(dim, 1))
    with open(path, "wb") as fh:
        fh.write(("\t".join(header) + "\n").encode("utf-8"))
        for s in range(0, len(index), per_block):
            lines = _format_coordinates(index.codes[s:s + per_block])
            fh.write(b"".join(
                ("%s\t%s\t%s\t%s\t%s\t%s" % (*fields[:5], fields[5] or "")).encode("utf-8")
                + line + b"\n"
                for fields, line in zip(index.fields(s, s + per_block), lines)))


@functools.cache
def _digit_words():
    """Lookup tables of ASCII words for ``_format_coordinates``: 4 bytes read
    as one uint32, unused bytes 0.

    In order: the whole part's high 4 digits with leading zeros blanked (0
    all blank); its low 4 digits with leading zeros but the units digit
    blanked, then plain; "." and the first 3 fraction digits with trailing
    zeros blanked (0 all blank, the point too), then plain; 4 later fraction
    digits with trailing zeros blanked (0 all blank), then plain.
    """
    digits = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    ascii = (ord("0") + digits).astype(np.uint8)
    nonzero = digits > 0
    lead = np.logical_or.accumulate(nonzero, axis=1)
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    dot = ascii[:1000].copy()
    dot[:, 0] = ord(".")
    column = np.arange(4)
    dot_kept = (trail[:1000] | (column == 0)) & nonzero[:1000].any(axis=1, keepdims=True)

    def words(chars, keep):
        return np.where(keep, chars, 0).astype(np.uint8).view(np.uint32).ravel()

    return (words(ascii, lead),
            np.concatenate([words(ascii, lead | (column == 3)), words(ascii, True)]),
            np.concatenate([words(dot, dot_kept), words(dot, True)]),
            np.concatenate([words(ascii, trail), words(ascii, True)]))


def _word(text):
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


_TAB_WORD, _NEWLINE_WORD = _word(b"\t"), _word(b"\n")
_MINUS_BITS = _word(b"\t-") ^ _TAB_WORD
# 1e-4 .. 1e8, the ends of the fixed range's decades, as parsed literals: the
# nearest float64 of each power, and no float32 lies between a power of ten
# and its nearest float64.
_DECADE_ENDS = np.array([float(f"1e{k}") for k in range(-4, 9)])
# the decade of 2**k for the binary exponents k = -14 .. 26 of the range
_POW2_DECADES = np.searchsorted(_DECADE_ENDS, 2.0 ** np.arange(-14, 27), side="right")
_SCALES = np.array([float(f"1e{k}") for k in range(12, -1, -1)])  # 10**(12 - e)


def _format_coordinates(rows):
    """The coordinates of each row of the 2-D array ``rows``, each preceded by
    a tab, as ``"%.8g" % float(v)`` formats them: one bytes object per row.

    A value v that is exactly a float32 with 1e-4 <= |v| < 1e8 prints in
    fixed notation with 8 significant digits.  Its decade e (10**(e - 5) <=
    |v| < 10**(e - 4)) follows from its binary exponent and one exact
    comparison with a power of ten, and |v| * 10**(12 - e) is exact in
    float64 (24 significand bits times 5**11 < 2**26), so ``np.rint`` gives
    the correctly rounded digits, ties to even, as the formatter does.  A
    carry to 10**8 needs no care: the whole and fraction parts come from the
    rounded value, and a float32 below 1e8 is at most 99999992, so it never
    reaches 1e8.  The parts go through the tables of ``_digit_words``.
    Every other value, and every float64 value that is not a float32, is
    formatted on its own.
    """
    hi_words, lo_words, dot_words, frac_words = _digit_words()
    with np.errstate(over="ignore", invalid="ignore"):  # the casts of nan and of huge values
        x = rows.astype(np.float64)
        fast = x == x.astype(np.float32)
    a = np.abs(x)
    fast &= (a >= 1e-4) & (a < 1e8)
    a = np.where(fast, a, 1.0)
    e = _POW2_DECADES[(a.view(np.int64) >> 52) - (1023 - 14)]
    e += a >= _DECADE_ENDS[e]  # [2**k, 2**(k + 1)) holds at most one power of ten
    scale = _SCALES[e]
    rounded = np.rint(a * scale)
    # the whole part (< 1e8) and the fraction's first 11 digits, each an
    # integer below 2**53, so every step below is exact
    whole = np.floor(rounded / scale)
    fraction = (rounded - whole * scale) * (1e11 / scale)
    hi = np.floor(whole / 1e4)
    f1 = np.floor(fraction / 1e8)
    rest = fraction - f1 * 1e8
    f2 = np.floor(rest / 1e4)
    hi, lo, f1, f2, f3 = (v.astype(np.intp) for v in
                          (hi, whole - hi * 1e4, f1, f2, rest - f2 * 1e4))
    dim = x.shape[1]
    buf = np.empty((len(rows), 6 * dim + 1), np.uint32)
    buf[:, -1] = _NEWLINE_WORD
    words = buf[:, :-1].reshape(len(rows), dim, 6)  # a view: the rows' words
    words[..., 0] = _TAB_WORD | (x < 0) * _MINUS_BITS
    words[..., 1] = hi_words[hi]
    words[..., 2] = lo_words[lo + 10000 * (hi > 0)]
    words[..., 3] = dot_words[f1 + 1000 * (rest > 0)]
    words[..., 4] = frac_words[f2 + 10000 * (f3 > 0)]
    words[..., 5] = frac_words[f3]
    slow = ~fast
    words[slow] = np.array(["\t%.8g" % v for v in x[slow].tolist()],
                           dtype="S24").view(np.uint32).reshape(-1, 6)
    return buf.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def load_embeddings_tsv(path):
    """Reload an exported TSV: each row's (sentence_id, position, token, left,
    right, tag), as ``TokenIndex.fields`` gives them, and the (N, dim) float32
    embeddings."""
    rows, coords = [], []
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        dim = len(header) - 6
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong column count")
            try:
                sentence_id, position = int(parts[0]), int(parts[1])
                coords.append(np.array([float(x) for x in parts[6:]], dtype=np.float32))
            except ValueError:
                raise _field_error(path, lineno, header, parts) from None
            if len(coords[-1]) != dim:
                raise ValueError(f"{path}:{lineno}: wrong embedding width")
            rows.append((sentence_id, position, *parts[2:5], parts[5] or None))
    return rows, np.array(coords, dtype=np.float32).reshape(len(rows), max(dim, 0))


def _field_error(path, lineno, header, parts):
    """The error naming the first numeric field of a TSV row that does not
    parse: the two ids as integers, then the coordinates as floats."""
    for k in [0, 1] + list(range(6, len(parts))):
        kind, what = (int, "an integer") if k < 2 else (float, "a number")
        try:
            kind(parts[k])
        except ValueError:
            return ValueError(f"{path}:{lineno}: field {header[k]!r} is not {what}: "
                              f"{parts[k]!r}")
