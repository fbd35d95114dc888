"""Deterministic feature extraction for the tagger and parser.

Three families live here:

* ``word_features``: a 10-bit indicator vector over surface-shape rules for a
  single token (at-mentions, hashtags, retweet marker, URLs, digits, currency,
  punctuation classes).  Rules are checked in order and only the first match
  fires.
* ``pair_features``: 10 real features describing a candidate dependency arc
  (relative positions, distance buckets, direction, root attachment).
* ``extended_features``: the large sparse stack built from external resources
  (Brown cluster prefixes, a tag dictionary, name lists, character n-grams,
  capitalization).

``word_features`` and ``extended_features`` depend on words only, so the
corpus forms compute one row per distinct token string and gather them per
token: ``word_feature_matrix`` over one corpus (``word_types``), and
``StringRows`` over every corpus a tagger reads, keeping the rows.
"""

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .serialize import open_text, read_tsv, tsv_int

# The 32 ASCII punctuation characters, frozen explicitly.
PUNCTUATION = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
ASCII_DIGITS = frozenset("0123456789")

# URLs are recognized by a scheme or leading "www." prefix, case-insensitive.
URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)

ELLIPSIS = "…"

WORD_FEATURE_COUNT = 10
PAIR_FEATURE_COUNT = 10


def is_ellipsis(x):
    """An ellipsis token: two or more dots, or the single-character form."""
    return x == ELLIPSIS or (len(x) >= 2 and set(x) == {"."})


def _all_punctuation(x):
    return all(c in PUNCTUATION for c in x)


def word_feature_rule(x):
    """Index of the first matching rule, or None.

    Rule order (first match wins):
      0  starts with @ and longer than one character
      1  starts with # and longer than one character
      2  lowercases to "rt"
      3  matches the URL pattern
      4  consists only of ASCII digits
      5  contains $
      6  is exactly ":"
      7  is an ellipsis
      8  single punctuation character other than ":" or "$"
      9  multi-character punctuation that is not an ellipsis
    """
    if not x:
        raise ValueError("empty token")
    if x[0] == "@" and len(x) > 1:
        return 0
    if x[0] == "#" and len(x) > 1:
        return 1
    if x.lower() == "rt":
        return 2
    if URL_RE.fullmatch(x):
        return 3
    if all(c in ASCII_DIGITS for c in x):
        return 4
    if "$" in x:
        return 5
    if x == ":":
        return 6
    if is_ellipsis(x):
        return 7
    if len(x) == 1 and x in PUNCTUATION and x not in (":", "$"):
        return 8
    if len(x) > 1 and _all_punctuation(x) and not is_ellipsis(x):
        return 9
    return None


def word_features(x):
    """10-dim binary vector for a token; at most one bit is set."""
    v = np.zeros(WORD_FEATURE_COUNT, dtype=np.float32)
    rule = word_feature_rule(x)
    if rule is not None:
        v[rule] = 1.0
    return v


def word_types(sentences):
    """The distinct token strings of ``sentences`` in order of first
    occurrence, and the index among them of every token's string, flat in
    corpus order.  Strings, not table ids, key the rows: out-of-vocabulary
    tokens share one id but not their features."""
    index = {}
    of = np.fromiter((index.setdefault(t, len(index)) for toks in sentences for t in toks),
                     dtype=np.int64)
    return list(index), of


def windows(ids, lengths, offsets, bos_id, eos_id):
    """(N, len(offsets)) ids at ``offsets`` from each of the N ids of a flat
    corpus of sentences of ``lengths`` ids; a position outside the id's own
    sentence reads ``bos_id`` before it and ``eos_id`` after it.  Every window
    and neighbour gather states sentence bounds here, one column at a time,
    with no (N, len(offsets)) array of positions."""
    n = len(ids)
    r = max(map(abs, offsets), default=0)
    ids = np.pad(np.asarray(ids, dtype=np.int64), r)
    sentence = np.pad(np.repeat(np.arange(len(lengths)), lengths), r, constant_values=-1)
    out = np.empty((n, len(offsets)), dtype=np.int64)
    for k, o in enumerate(offsets):
        near = slice(r + o, r + o + n)
        out[:, k] = ids[near]
        out[sentence[near] != sentence[r:r + n], k] = bos_id if o < 0 else eos_id
    return out


def word_feature_matrix(sentences, out):
    """Write the ``word_features`` of every token of ``sentences``, in corpus
    order, into the (N, ``WORD_FEATURE_COUNT``) array ``out``."""
    types, of = word_types(sentences)
    rows = np.array([word_features(t) for t in types],
                    dtype=np.float32).reshape(len(types), WORD_FEATURE_COUNT)
    out[:] = rows[of]


# Upper edges of the arc-distance buckets: 1, 2, [3..5], [6..10], 11+.
_DISTANCE_EDGES = np.array([1, 2, 5, 10])


def pair_features(i, j, n):
    """Features for a candidate arc with child position ``i`` (1..n) and
    parent position ``j`` (0..n, 0 = the wall/root symbol).

    Layout: i/n, j/n, five distance-bucket indicators, i<j, i>j, wall flag.
    A wall arc zeroes everything except the first and last entries.
    """
    if not 1 <= i <= n:
        raise ValueError(f"child index {i} out of range 1..{n}")
    if not 0 <= j <= n:
        raise ValueError(f"parent index {j} out of range 0..{n}")
    if i == j:
        raise ValueError("a token cannot be its own parent")
    return pair_feature_matrix([i], [j], n)[0]


def pair_feature_matrix(children, parents, n):
    """``pair_features`` for many arcs at once: one float64 row per
    (child, parent) pair, for already validated positions."""
    child = np.asarray(children, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    out = np.zeros((len(child), PAIR_FEATURE_COUNT), dtype=np.float64)
    out[:, 0] = child / n
    out[:, 9] = parent == 0
    arc = np.flatnonzero(parent)
    child, parent = child[arc], parent[arc]
    out[arc, 1] = parent / n
    out[arc, 2 + np.searchsorted(_DISTANCE_EDGES, np.abs(child - parent))] = 1.0
    out[arc, 7] = child < parent
    out[arc, 8] = child > parent
    return out


BROWN_PREFIX_LENGTHS = (2, 4, 6, 8)
TAG_DICT_TOP_K = 3
NGRAM_ORDERS = (2, 3)


@dataclass
class ResourceBundle:
    """External resources backing the extended feature stack.

    ``brown_clusters`` maps words to bit-string paths; ``tag_dictionary`` maps
    words to tag-count dicts; ``name_lists`` is an ordered list of word sets;
    ``char_ngrams`` maps each indexed bi/trigram to its dense feature slot.
    Derived indexes (prefix vocabularies, the dictionary tagset) are built at
    construction and the bundle is immutable afterwards.
    """

    brown_clusters: dict = field(default_factory=dict)
    tag_dictionary: dict = field(default_factory=dict)
    name_lists: list = field(default_factory=list)
    char_ngrams: dict = field(default_factory=dict)

    def __post_init__(self):
        self.prefix_index = {}
        for length in BROWN_PREFIX_LENGTHS:
            prefixes = sorted({p[:length] for p in self.brown_clusters.values()})
            self.prefix_index[length] = {p: k for k, p in enumerate(prefixes)}
        self.dict_tags = sorted({t for counts in self.tag_dictionary.values()
                                 for t in counts})
        self._tag_pos = {t: k for k, t in enumerate(self.dict_tags)}
        if self.char_ngrams:
            slots = sorted(self.char_ngrams.values())
            if slots != list(range(len(slots))):
                raise ValueError("char n-gram slots must be dense 0..G-1")

    def word_block_width(self):
        return (sum(len(self.prefix_index[k]) for k in BROWN_PREFIX_LENGTHS)
                + TAG_DICT_TOP_K * len(self.dict_tags)
                + WORD_FEATURE_COUNT + 1)

    def top_tags(self, word):
        counts = self.tag_dictionary.get(word)
        if not counts:
            return []
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], self._tag_pos[kv[0]]))
        return [t for t, _ in ranked[:TAG_DICT_TOP_K]]


def extended_feature_width(resources):
    return (3 * resources.word_block_width()
            + len(resources.name_lists)
            + len(resources.char_ngrams))


def _word_block(word, res):
    width = res.word_block_width()
    out = np.zeros(width, dtype=np.float32)
    if word is None:
        return out
    k = 0
    path = res.brown_clusters.get(word)
    for length in BROWN_PREFIX_LENGTHS:
        index = res.prefix_index[length]
        if path is not None:
            slot = index.get(path[:length])
            if slot is not None:
                out[k + slot] = 1.0
        k += len(index)
    T = len(res.dict_tags)
    for rank, tag in enumerate(res.top_tags(word)):
        out[k + rank * T + res._tag_pos[tag]] = 1.0
    k += TAG_DICT_TOP_K * T
    out[k:k + WORD_FEATURE_COUNT] = word_features(word)
    k += WORD_FEATURE_COUNT
    if word[:1].isupper():
        out[k] = 1.0
    return out


def extended_features(tokens, j, resources):
    """Extended stack for the token at position ``j``.

    Per-word blocks (Brown prefixes, top-3 dictionary tags, the 10-bit shape
    vector, a capitalization bit) are emitted for the center word and its
    immediate left and right neighbors, in that order; missing neighbors and
    words absent from a resource contribute all-zero blocks.  Name-list
    membership bits and character n-gram counts cover the center word only.
    """
    if not 0 <= j < len(tokens):
        raise ValueError(f"position {j} out of range")
    parts = []
    for pos in (j, j - 1, j + 1):
        word = tokens[pos] if 0 <= pos < len(tokens) else None
        parts.append(_word_block(word, resources))
    return np.concatenate(parts + [_center_block(tokens[j], resources)])


def _center_block(center, res):
    """Name-list membership bits, then character n-gram counts."""
    out = np.zeros(len(res.name_lists) + len(res.char_ngrams), dtype=np.float32)
    for k, names in enumerate(res.name_lists):
        if center in names:
            out[k] = 1.0
    grams = out[len(res.name_lists):]
    for order in NGRAM_ORDERS:
        for k in range(len(center) - order + 1):
            slot = res.char_ngrams.get(center[k:k + order])
            if slot is not None:
                grams[slot] += 1.0
    return out


class StringRows:
    """The per-string rows of the tagger's input, one per distinct token
    string seen, each built once: the ``word_features`` bits when ``shape``
    is set, then with ``resources`` the ``extended_features`` word block and
    center block.  The three blocks are kept as ``shapes``, ``words`` and
    ``centers``, one row each per string.

    Row 0 is all zero and stands for a missing neighbour; strings take rows
    1, 2, ... in order of first occurrence, so the table grows with the
    distinct strings seen, not with the tokens."""

    def __init__(self, shape, resources=None):
        widths = (WORD_FEATURE_COUNT if shape else 0,
                  resources.word_block_width() if resources else 0,
                  len(resources.name_lists) + len(resources.char_ngrams) if resources else 0)
        self.resources = resources
        self.index = {}
        self.shapes, self.words, self.centers = (np.zeros((1, w), np.float32) for w in widths)

    def ids(self, sentences):
        """(N, 3) row ids of the N tokens of ``sentences``, in corpus order:
        the token's string, its left neighbour's and its right neighbour's,
        row 0 past a sentence bound.  Rows of strings not seen before are
        built first."""
        index = self.index
        seen = len(index)
        of = np.fromiter((index.setdefault(t, len(index) + 1) for toks in sentences for t in toks),
                         dtype=np.int64)
        if len(index) > seen:
            self._build(list(itertools.islice(index, seen, None)))
        return windows(of, [len(toks) for toks in sentences], (0, -1, 1), 0, 0)

    def _build(self, strings):
        res = self.resources
        blocks = (self.shapes, self.words, self.centers)
        shapes, words, centers = (np.zeros((len(strings), b.shape[1]), np.float32)
                                  for b in blocks)
        for k, word in enumerate(strings):
            if shapes.shape[1]:
                shapes[k] = word_features(word)
            if res is not None:
                words[k] = _word_block(word, res)
                centers[k] = _center_block(word, res)
        self.shapes, self.words, self.centers = (
            np.concatenate(pair) for pair in zip(blocks, (shapes, words, centers)))


def build_char_ngram_index(sentences, min_count=3):
    """Slot assignment for bi/trigrams seen at least ``min_count`` times.

    ``sentences`` is an iterable of token lists; n-grams are taken from the
    raw tokens without boundary markers.  Slots follow sorted n-gram order.
    """
    counts = {}
    for toks in sentences:
        for tok in toks:
            for order in NGRAM_ORDERS:
                for k in range(len(tok) - order + 1):
                    g = tok[k:k + order]
                    counts[g] = counts.get(g, 0) + 1
    kept = sorted(g for g, c in counts.items() if c >= min_count)
    return {g: k for k, g in enumerate(kept)}


def load_brown_clusters(path):
    """Lines of "bitstring<TAB>word<TAB>count", one line per word."""
    out, first_line = {}, {}
    for block in read_tsv(path, 3):
        for row in block:
            tsv_int(path, row, 3)  # unused, but the format says it is an integer
            lineno, (bits, word, _) = row
            if word in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate word {word!r} "
                                 f"(first at line {first_line[word]})")
            first_line[word] = lineno
            out[word] = bits
    return out


def load_tag_dictionary(path):
    """Lines of "word<TAB>tag<TAB>count", the count non-negative."""
    out = {}
    for block in read_tsv(path, 3):
        for row in block:
            word, tag, _ = row[1]
            count = tsv_int(path, row, 3)
            if count < 0:
                raise ValueError(f"{path}:{row[0]}: field 3 is a negative count: {count}")
            entry = out.setdefault(word, {})
            entry[tag] = entry.get(tag, 0) + count
    return out


def load_name_list(path):
    """One word per line."""
    with open_text(path) as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def save_char_ngram_index(index, path):
    with open(path, "w", encoding="utf-8") as fh:
        for g, slot in sorted(index.items(), key=lambda kv: kv[1]):
            fh.write(f"{g}\t{slot}\n")


def load_char_ngram_index(path):
    """Lines of "ngram<TAB>slot": G distinct n-grams on the G slots 0..G-1."""
    rows = [row for block in read_tsv(path, 2) for row in block]
    first_line = {}
    for row in rows:
        lineno, slot = row[0], tsv_int(path, row, 2)
        for key in (f"n-gram {row[1][0]!r}", f"slot {slot}"):
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate {key} "
                                 f"(first at line {first_line[key]})")
            first_line[key] = lineno
        if not 0 <= slot < len(rows):
            raise ValueError(f"{path}:{lineno}: slot {slot} outside 0..{len(rows) - 1}: "
                             "char n-gram slots must be dense")
    return {fields[0]: int(fields[1]) for _, fields in rows}
