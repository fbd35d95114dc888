"""Vocabulary management, fixed type-embedding storage, and word2vec-text IO,
plus what every model built over a table shares: context windows of ids, the
anchored trainable copy of the table, and the set-up and persistence common
to the tagger and the parser.

Type embeddings are one vector per word type, pretrained elsewhere and kept
fixed here.  Three reserved symbols are appended after the corpus entries:
start-of-sequence, end-of-sequence, and unknown.  Their rows are all-zero and
are never trained anywhere in the package.
"""

from dataclasses import asdict, fields

import numpy as np

from .features import WORD_FEATURE_COUNT, word_features
from .nn import RowGrad, anchored_l2
from .serialize import (check_config, check_sizes, load_model, restore_params,
                        save_model)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)


class Vocabulary:
    """Dense word -> id mapping, reserved symbols at the top of the id range."""

    def __init__(self, corpus_words):
        words = list(corpus_words)
        seen = set()
        for w in words:
            if w in seen:
                raise ValueError(f"duplicate word {w!r}")
            if w in RESERVED:
                raise ValueError(f"word {w!r} collides with a reserved symbol")
            seen.add(w)
        self.words = words + list(RESERVED)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.bos_id = len(words)
        self.eos_id = len(words) + 1
        self.unk_id = len(words) + 2

    def __len__(self):
        return len(self.words)

    @property
    def corpus_words(self):
        return self.words[:-3]

    def id_of(self, word):
        """Exact-match lookup; anything out of vocabulary maps to the unknown id."""
        return self.index.get(word, self.unk_id)

    def to_ids(self, tokens):
        return np.array([self.id_of(t) for t in tokens], dtype=np.int64)


def windows(ids, offsets, bos_id, eos_id):
    """(n, len(offsets)) matrix whose row ``j`` holds the ids at positions
    ``j + offset`` of a sentence of ``n`` ids; positions before its start
    read ``bos_id`` and positions past its end ``eos_id``."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    pos = np.arange(n)[:, None] + np.asarray(offsets, dtype=np.int64)[None, :]
    out = ids[np.clip(pos, 0, max(n - 1, 0))]
    out[pos < 0] = bos_id
    out[pos >= n] = eos_id
    return out


class EmbeddingTable:
    """Vocabulary plus a |V| x d float32 matrix of type vectors.

    Immutable after construction by convention; components that adapt type
    embeddings work on their own copy.  Reserved rows are forced to zero.
    """

    def __init__(self, vocab, vectors):
        vectors = np.array(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(vocab):
            raise ValueError(
                f"need one row per vocabulary entry: {vectors.shape} vs |V|={len(vocab)}"
            )
        vectors[[vocab.bos_id, vocab.eos_id, vocab.unk_id]] = 0.0
        self.vocab = vocab
        self.vectors = vectors

    @property
    def dim(self):
        return self.vectors.shape[1]


class AdaptedEmbeddings:
    """Trainable copy of a table's type vectors, pulled toward the pretrained
    values (the anchor) by ``anchor_weight * sum((vectors - anchor)^2)``.

    Reserved rows never receive gradient.  Only *active* rows ever change:
    the rows that differ from the anchor when the first gradient is taken,
    plus every row a window has touched since; a row stays active once added.
    Any other row has zero deviation, zero gradient and zero momentum, so a
    dense update would leave it as it is, and ``gradient`` covers the active
    rows only.  Per-row arithmetic is that of the dense update, so the
    parameters are bit-identical; only the summation order of the reported
    penalty differs.
    """

    def __init__(self, table, anchor_weight, dtype=np.float32):
        self.anchor = table.vectors.astype(dtype)
        # Adding +0.0 turns -0.0 into +0.0, as the first dense step would on
        # every row; rows the update never reaches must match it too.
        self.vectors = self.anchor + 0.0
        self.anchor_weight = anchor_weight
        vocab = table.vocab
        self.reserved = np.array([vocab.bos_id, vocab.eos_id, vocab.unk_id])
        self.rows = None   # active rows, in the order they were added
        self._slot = None  # row -> its index in ``rows``, -1 while inactive

    def _activate(self, new):
        self._slot[new] = np.arange(len(self.rows), len(self.rows) + len(new))
        self.rows = np.concatenate([self.rows, new])

    def gradient(self, window_grads):
        """Anchored penalty and its gradient as a ``RowGrad`` over the active
        rows.  ``window_grads`` holds (ids, grad) pairs, ``grad`` shaped like
        ``ids`` plus the embedding dimension; they are summed per row in the
        order ``np.add.at`` on the whole table would use."""
        if self._slot is None:
            self._slot = np.full(len(self.vectors), -1, dtype=np.int64)
            self.rows = np.empty(0, dtype=np.int64)
            moved = (self.vectors != self.anchor).any(axis=1)
            self._activate(np.flatnonzero(moved))
        for ids, _ in window_grads:
            self._activate(np.unique(ids[self._slot[ids] < 0]))
        rows = self.rows
        values = np.zeros((len(rows), self.vectors.shape[1]), self.vectors.dtype)
        for ids, grad in window_grads:
            np.add.at(values, self._slot[ids], grad)
        penalty, anchor_grad = anchored_l2(self.vectors[rows], self.anchor[rows],
                                           self.anchor_weight)
        values += anchor_grad
        reserved = self._slot[self.reserved]
        values[reserved[reserved >= 0]] = 0.0
        return penalty, RowGrad(rows, values)


_ENCODER_FIELDS = {"arch": str, "token_dim": int, "w_prime": int}


def _fingerprint(encoders):
    """What a model file records of the frozen encoders it was trained with."""
    return [{name: getattr(e, name) for name in _ENCODER_FIELDS} for e in encoders]


class Predictor:
    """Base of the tagger and the parser: a network ``self.net``, built by the
    subclass, over the type embeddings of ``table`` (an ``AdaptedEmbeddings``
    copy with ``config.update_embeddings``) and frozen ``encoders``.

    A subclass sets its model ``kind``, which is also the header key of its
    ``config_class`` dataclass, and any further header fields: their kinds in
    ``header_fields`` (see ``serialize.check_config``), values in ``header()``.
    """

    kind = None
    config_class = None
    header_fields = {}

    def __init__(self, config, table, encoders, dtype):
        for enc in encoders:
            if enc.dim != table.dim:
                raise ValueError(
                    f"encoder dim {enc.dim} does not match table dim {table.dim}")
        self.config = config
        self.table = table
        self.encoders = tuple(encoders)
        self.adapted = (AdaptedEmbeddings(table, config.anchor_weight, dtype)
                        if config.update_embeddings else None)
        self.embeddings = table.vectors if self.adapted is None else self.adapted.vectors

    def token_features(self, tokens, ids):
        """(n, width) frozen block of a sentence of ``n`` tokens and their
        vocabulary ``ids``: each encoder's token embeddings, then the
        word-shape bits when ``config.word_features`` is on."""
        blocks = [enc.encode_sentence(self.table, ids) for enc in self.encoders]
        if self.config.word_features:
            # np.array rather than np.stack, which refuses a 0-token sentence
            blocks.append(np.array([word_features(t) for t in tokens], dtype=np.float32)
                          .reshape(len(tokens), WORD_FEATURE_COUNT))
        if not blocks:
            return np.zeros((len(tokens), 0), dtype=np.float32)
        return np.concatenate(blocks, axis=1)

    def params(self):
        out = {f"net.{k}": v for k, v in self.net.params().items()}
        if self.adapted is not None:
            out["embeddings"] = self.embeddings
        return out

    def header(self):
        """Values of the subclass's ``header_fields``."""
        return {}

    @classmethod
    def input_width(cls, config, dim, token_dim, header):
        """Width of the network's input rows, the columns of ``net.0.W``, for
        ``config`` over a ``dim``-wide table and encoders whose token
        embeddings are ``token_dim`` wide in all; ``header`` holds the values
        of the subclass's ``header_fields``."""
        raise NotImplementedError

    def save(self, path):
        cfg = {self.kind: asdict(self.config), "dim": self.table.dim,
               "vocab_size": len(self.table.vocab),
               "encoders": _fingerprint(self.encoders), **self.header()}
        save_model(path, self.kind, cfg, self.params())

    @classmethod
    def load(cls, path, table, encoders=(), **context):
        """The model saved at ``path``, which must have been trained over
        ``table`` and ``encoders``; ``context`` goes on to ``from_header``."""
        kind, cfg, tensors = load_model(path)
        if kind != cls.kind:
            raise ValueError(f"{path}: not a {cls.kind} model (kind={kind!r})")
        config_fields = {f.name: f.type for f in fields(cls.config_class)}
        check_config(path, cfg, {cls.kind: config_fields, "dim": int, "vocab_size": int,
                                 "encoders": [_ENCODER_FIELDS], **cls.header_fields})
        try:
            config = cls.config_class(**cfg[cls.kind])
        except ValueError as e:
            raise ValueError(f"{path}: config.{cls.kind}: {e}") from None
        if cfg["dim"] != table.dim or cfg["vocab_size"] != len(table.vocab):
            raise ValueError(f"{path}: embedding table does not match the model")
        width = cls.input_width(config, cfg["dim"],
                                sum(e["token_dim"] for e in cfg["encoders"]), cfg)
        check_sizes(path, tensors, {
            f"config.{cls.kind}.hidden": ("net.0.b", (config.hidden,)),
            f"config.{cls.kind}.window": ("net.0.W", (config.hidden, width))})
        given = _fingerprint(encoders)
        if cfg["encoders"] != given:
            raise ValueError(
                f"{path}: encoder set {given} does not match stored {cfg['encoders']}")
        model = cls.from_header(path, config, cfg, table, encoders, **context)
        restore_params(model.params(), tensors, path)
        return model

    @classmethod
    def from_header(cls, path, config, header, table, encoders):
        """An untrained model of the shape a checked header describes."""
        return cls(config, table, encoders)


def load_word2vec_text(path):
    """Read a text-format embedding file.

    Expected layout: a header line "<count> <dim>" followed by ``count`` lines
    of "<word> <dim floats>", fields separated by any whitespace.  Reserved
    symbols are appended automatically.  Malformed headers, wrong float
    counts, duplicate words, count mismatches and non-finite values are
    rejected with the offending line number.  Files with single spaces
    between fields are parsed in blocks; any other file, and any file the
    blocks reject, is read line by line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: malformed header {lines[0]!r}, expected '<count> <dim>'")
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: malformed header {lines[0]!r}, expected two integers") from None
    if count < 0 or dim <= 0:
        raise ValueError(f"{path}:1: nonsensical header values {count} {dim}")
    entries = lines[1:]
    words, vectors = (_read_entries_bulk(entries, count, dim)
                      or _read_entries(path, entries, count, dim))
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        # Entry k sits on line k + 2; values beyond float32 range read as inf.
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite value for word {words[bad[0]]!r}")
    return EmbeddingTable(Vocabulary(words), vectors)


_BULK_LINES = 1024  # entry lines per np.loadtxt call; bounds its float64 copy


def _read_entries_bulk(entries, count, dim):
    """Words and float32 vectors of the entry lines when every line is
    "<word> <dim floats>" separated by single spaces and the words are
    valid: no whitespace in a word, no duplicate or reserved word, exactly
    ``count`` lines.  Returns None for any other input, which
    ``_read_entries`` then reads or reports.  An accepted line holds the
    same tokens as ``line.split()``, and ``np.loadtxt`` parses ASCII floats
    as ``float()`` does, so the result is that of ``_read_entries``.
    """
    if len(entries) != count:
        return None
    words = []
    vectors = np.zeros((count + len(RESERVED), dim), dtype=np.float32)
    for start in range(0, count, _BULK_LINES):
        pairs = [line.split(" ", 1) for line in entries[start:start + _BULK_LINES]]
        # np.loadtxt skips an empty line, so an empty rest would shift rows
        if any(len(p) != 2 or not p[1] for p in pairs):
            return None
        block_words = [p[0] for p in pairs]
        if " ".join(block_words).split() != block_words:
            return None
        try:
            block = np.loadtxt([p[1] for p in pairs], dtype=np.float64, delimiter=" ",
                               comments=None, ndmin=2)
        except ValueError:
            return None
        if block.shape != (len(pairs), dim):
            return None
        with np.errstate(over="ignore"):  # the non-finite check names the word
            vectors[start:start + len(pairs)] = block
        words += block_words
    if len(set(words)) != count or not set(RESERVED).isdisjoint(words):
        return None
    return words, vectors


def _read_entries(path, entries, count, dim):
    """Words and float32 vectors of the entry lines, read one line at a time
    with any whitespace between fields; a malformed line raises a
    ``ValueError`` naming the path, the line number and the word."""
    words = []
    first_line = {}
    vectors = np.zeros((count + len(RESERVED), dim), dtype=np.float32)
    for lineno, line in enumerate(entries, start=2):
        parts = line.split()
        if not parts:
            raise ValueError(f"{path}:{lineno}: blank line inside the entry block")
        word = parts[0]
        if len(parts) - 1 != dim:
            raise ValueError(
                f"{path}:{lineno}: word {word!r} has {len(parts) - 1} values, expected {dim}"
            )
        if word in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate word {word!r} (first at line {first_line[word]})"
            )
        if word in RESERVED:
            raise ValueError(f"{path}:{lineno}: word {word!r} collides with a reserved symbol")
        if len(words) >= count:
            raise ValueError(f"{path}:{lineno}: more entries than the declared count {count}")
        try:
            row = [float(t) for t in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable float for word {word!r}") from None
        with np.errstate(over="ignore"):  # the non-finite check names the word
            vectors[len(words)] = row
        first_line[word] = lineno
        words.append(word)
    if len(words) != count:
        raise ValueError(f"{path}: header declares {count} entries, file has {len(words)}")
    return words, vectors


def save_word2vec_text(table, path):
    """Write the corpus entries (reserved rows excluded) with 6 significant digits."""
    words = table.vocab.corpus_words
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {table.dim}\n")
        for i, w in enumerate(words):
            coords = " ".join(f"{x:.6g}" for x in table.vectors[i])
            fh.write(f"{w} {coords}\n")


def load_corpus(path):
    """Read an unlabeled corpus: one sentence per line, space-separated tokens."""
    sentences = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences


def save_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        for toks in sentences:
            fh.write(" ".join(toks) + "\n")
