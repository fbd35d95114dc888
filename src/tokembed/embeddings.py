"""Vocabulary management, fixed type-embedding storage, and word2vec-text IO,
plus what every model built over a table shares: the anchored trainable rows
of the table, and the set-up, input composition and persistence common to the
tagger and the parser.

Type embeddings are one vector per word type, pretrained elsewhere and kept
fixed here.  Three reserved symbols are appended after the corpus entries:
start-of-sequence, end-of-sequence, and unknown.  Their rows are all-zero and
are never trained anywhere in the package.
"""

import hashlib
import itertools
import os
import stat
import tempfile
import zlib
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import corpus_windows
from .features import WORD_FEATURE_COUNT, StringRows
from .nn import MLP, anchored_l2
from .serialize import (check_config, check_sizes, load_model, open_text,
                        restore_params, save_model)

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


class EmbeddingTable:
    """Vocabulary plus a |V| x d float32 matrix of type vectors.

    Immutable after construction by convention; components that adapt type
    embeddings keep their own rows.  Reserved rows are forced to zero.  The
    table holds a copy of ``vectors``, or with ``copy=False`` the array itself
    when it is already float32, as a loader that owns the array hands it over.
    """

    def __init__(self, vocab, vectors, *, copy=True):
        vectors = (np.array if copy else np.asarray)(vectors, dtype=np.float32)
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
    """Trainable type vectors of the table rows that training reaches, pulled
    toward the pretrained values (the anchor) by ``anchor_weight *
    sum((vectors - anchor)^2)``; in the table's dtype the anchor is the table.

    ``vectors`` holds row k's values for row ``rows[k]``, one dense parameter
    over the rows ``add_rows`` reached, never a reserved one.  Any other row
    reads as ``anchor + 0.0``, as a dense update of the whole table would
    leave it: its first step turns -0.0 into +0.0 and changes nothing else.
    """

    def __init__(self, table, anchor_weight, dtype=np.float32):
        self.anchor = table.vectors.astype(dtype, copy=False)  # never written
        self.anchor_weight = anchor_weight
        self.rows = np.empty(0, dtype=np.int64)
        self.vectors = np.empty((0, table.dim), dtype)
        # row -> its index in ``rows``; -1 while not reached, -2 if reserved
        self._slot = np.full(len(self.anchor), -1, dtype=np.int64)
        self._slot[[table.vocab.bos_id, table.vocab.eos_id, table.vocab.unk_id]] = -2

    def add_rows(self, ids):
        """Reach the rows of ``ids`` not reached or reserved, each at ``anchor
        + 0.0``.  It replaces ``vectors``, so it comes before training."""
        new = np.unique(ids[self._slot[ids] == -1])
        self._slot[new] = np.arange(len(self.rows), len(self.rows) + len(new))
        self.rows = np.concatenate([self.rows, new])
        self.vectors = np.concatenate([self.vectors, self.anchor[new] + 0.0])

    def lookup(self, ids):
        """The vectors of the rows ``ids``, shaped like ``ids`` plus the dimension."""
        slot = self._slot[ids]
        out = self.vectors[np.maximum(slot, 0)] if len(self.rows) else self.anchor[ids]
        out[slot < 0] = self.anchor[ids[slot < 0]] + 0.0
        return out

    def full(self):
        """The whole table: ``anchor + 0.0`` with the reached rows' values."""
        out = self.anchor + 0.0
        out[self.rows] = self.vectors
        return out

    def restore(self, full):
        """Reach the rows of a whole table ``full`` whose bits differ from
        ``anchor + 0.0``'s, at its values, so ``full()`` gives its bits back."""
        bits = f"u{full.dtype.itemsize}"
        plain = self.anchor + 0.0
        self.add_rows(np.flatnonzero((full.view(bits) != plain.view(bits)).any(axis=1)))
        self.vectors[...] = full[self.rows]

    def gradient(self, window_grads):
        """The anchored penalty, and the gradient shaped like ``vectors``: the
        (ids, grad) pairs of ``window_grads``, ``grad`` shaped like ``ids`` plus
        the dimension, summed per row in ``np.add.at`` order, plus the penalty's.
        Reserved ids are dropped; a row not reached raises ``ValueError``."""
        values = np.zeros_like(self.vectors)
        for ids, grad in window_grads:
            slot = self._slot[ids]
            if (slot == -1).any():
                raise ValueError(f"gradient on row {ids[slot == -1][0]}, which was not reached")
            np.add.at(values, slot[slot >= 0], grad[slot >= 0])
        penalty, anchor_grad = anchored_l2(self.vectors, self.anchor[self.rows],
                                           self.anchor_weight)
        values += anchor_grad
        return penalty, values


_ENCODER_FIELDS = {"arch": str, "token_dim": int, "w_prime": int}


def _fingerprint(encoders):
    """What a model file records of the frozen encoders it was trained with."""
    return [{name: getattr(e, name) for name in _ENCODER_FIELDS} for e in encoders]


class TokenInputs(NamedTuple):
    """What a predictor keeps of N tokens: the (N, ``win_len``) type-window
    ids, the (N, ``widths[1]``) token embeddings and the (N, 3) ``StringRows``
    ids of each token's string and of its left and right neighbours'."""

    wins: np.ndarray
    codes: np.ndarray
    rows: np.ndarray

    def take(self, sel):
        """The inputs of the tokens ``sel``."""
        return TokenInputs(*(a[sel] for a in self))

    @staticmethod
    def join(parts):
        """The inputs of every token of ``parts``, in order."""
        return TokenInputs(*map(np.concatenate, zip(*parts)))


class Predictor:
    """Base of the tagger and the parser: a network ``self.net`` over the type
    embeddings of ``table`` (trained ones in ``AdaptedEmbeddings`` with
    ``config.update_embeddings``) and frozen ``encoders``.  Both read one
    *position row* per token, whose block widths only ``position_widths``
    states, followed by the extended stack when ``resources`` are given.
    ``features`` keeps a corpus's ``TokenInputs`` and ``compose`` turns them
    into input rows: it is the only code that writes one.

    A subclass sets its model ``kind``, which is also the header key of its
    ``config_class`` dataclass, and any further header fields: their kinds in
    ``header_fields`` (see ``serialize.check_config``), values in ``header()``.
    """

    kind = None
    config_class = None
    header_fields = {}

    def __init__(self, config, table, encoders, n_out, rng, dtype, resources=None):
        for enc in encoders:
            if enc.dim != table.dim:
                raise ValueError(f"encoder dim {enc.dim} does not match table dim {table.dim}")
        self.config = config
        self.table = table
        self.encoders = tuple(encoders)
        self.adapted = (AdaptedEmbeddings(table, config.anchor_weight, dtype)
                        if config.update_embeddings else None)
        # the type window and every encoder read their columns of one window
        # per token of this radius
        self.radius = max(config.window, 0, *(e.w_prime for e in self.encoders))
        self._cols = self.radius + np.array(self.offsets(config), dtype=np.int64)
        self.win_len = len(self._cols)
        token_dim = sum(e.token_dim for e in self.encoders)
        self.widths = self.position_widths(config, table.dim, token_dim)
        self.input_dim = self.input_width(config, table.dim, token_dim, self.header())
        if self.input_dim == 0:
            raise ValueError(f"{self.kind} input is empty: no embeddings, encoders, or features")
        self.net = MLP([self.input_dim, config.hidden, config.hidden, n_out],
                       ["relu", "relu", "linear"], rng, dtype)
        self.strings = StringRows(config.word_features, resources)

    @staticmethod
    def offsets(config):
        """The type window's offsets from its token, in column order."""
        raise NotImplementedError

    @classmethod
    def position_widths(cls, config, dim, token_dim):
        """Widths of a position row's blocks: the type embeddings at ``offsets``,
        each encoder's token embedding and the word-shape bits."""
        return (len(cls.offsets(config)) * dim, token_dim,
                WORD_FEATURE_COUNT if config.word_features else 0)

    def type_rows(self, wins, out):
        """Write the type embeddings of the window ids ``wins`` into the
        (N, ``widths[0]``) array ``out``."""
        out[:] = (self.table.vectors[wins] if self.adapted is None
                  else self.adapted.lookup(wins)).reshape(len(wins), self.widths[0])

    def token_codes(self, wins):
        """(N, ``widths[1]``) token embeddings of the N tokens whose
        ``encoder.corpus_windows`` of radius ``self.radius`` are ``wins``, from
        one ``encode`` per encoder of its 2w'+1 center columns."""
        r = self.radius
        out = np.empty((len(wins), self.widths[1]),
                       dtype=np.result_type(np.float32, *(e.dtype for e in self.encoders)))
        k = 0
        for enc in self.encoders:
            enc.encode(self.table, wins[:, r - enc.w_prime:r + enc.w_prime + 1],
                       out[:, k:k + enc.token_dim])
            k += enc.token_dim
        return out

    # -- input composition ------------------------------------------------

    def const_features(self, sentences, wins):
        """What the tokens of ``sentences`` keep that does not depend on
        trainable state: the ``token_codes`` of their windows ``wins``, and
        their ``StringRows`` ids, which build the rows of strings not seen
        before."""
        return self.token_codes(wins), self.strings.ids(sentences)

    def features(self, sentences):
        """The ``TokenInputs`` of every token of ``sentences``, in corpus
        order, from one window per token; ``compose`` makes them the network
        input."""
        wins = corpus_windows(self.table, sentences, self.radius)
        return TokenInputs(wins[:, self._cols], *self.const_features(sentences, wins))

    def compose(self, inputs):
        """The input rows of the tokens ``inputs``, in the network's dtype:
        their type embeddings and token embeddings, then from the string rows
        the word-shape bits of the center, and with resources the word blocks
        of the center and its left and right neighbours and the center block."""
        wins, codes, rows = inputs
        strings = self.strings
        a, b, c = np.cumsum(self.widths)
        d = c + 3 * strings.words.shape[1]
        X = np.empty((len(wins), d + strings.centers.shape[1]),
                     dtype=self.net.layers[0].W.dtype)
        self.type_rows(wins, X[:, :a])
        X[:, a:b] = codes
        X[:, b:c] = strings.shapes[rows[:, 0]]
        X[:, c:d] = strings.words[rows].reshape(len(rows), d - c)
        X[:, d:] = strings.centers[rows[:, 0]]
        return X

    @staticmethod
    def _sentence_blocks(sentences, rows, limit):
        """Lists of whole sentences in order, each closed once its sentences
        have ``limit`` rows between them, a sentence counting ``rows(sent)``,
        so a block has fewer than ``limit`` rows plus those of its last
        sentence."""
        block, total = [], 0
        for sent in sentences:
            block.append(sent)
            total += rows(sent)
            if total >= limit:
                yield block
                block, total = [], 0
        if block:
            yield block

    def params(self):
        out = {f"net.{k}": v for k, v in self.net.params().items()}
        if self.adapted is not None:
            out["embeddings"] = self.adapted.vectors
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
        tensors = self.params()
        if self.adapted is not None:  # the file holds the whole table
            tensors["embeddings"] = self.adapted.full()
        save_model(path, self.kind, cfg, tensors)

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
        for field, size, what in (("vocab_size", len(table.vocab), "{} entries"),
                                  ("dim", table.dim, "dim {}")):
            if cfg[field] != size:
                raise ValueError(f"{path}: config.{field} {cfg[field]} does not match "
                                 f"the embedding table's {what.format(size)}")
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
        params = model.params()
        if model.adapted is not None:  # the file holds the whole table
            params["embeddings"] = model.adapted.full()
        restore_params(params, tensors, path)
        if model.adapted is not None:
            del tensors  # free the file's arrays before restore's temporaries
            full = params["embeddings"]
            for sym in RESERVED:  # never trained, so a saved table holds them at +0.0
                row = full[table.vocab.id_of(sym)]
                if (row != 0).any() or np.signbit(row).any():
                    raise ValueError(f"{path}: tensor 'embeddings': reserved row {sym!r} "
                                     "is not +0.0")
            model.adapted.restore(full)
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
    rejected with the offending line number.  The lines are read as a
    stream and their values by ``np.loadtxt``, a block of lines at a time,
    so a float is an ASCII spelling that ``float()`` accepts, without ``_``.
    """
    with open_text(path) as fh:
        # per physical line, str.splitlines gives the lines of the whole text
        lines = itertools.chain.from_iterable(map(str.splitlines, fh))
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        head = header.split()
        if len(head) != 2:
            raise ValueError(f"{path}:1: malformed header {header!r}, expected '<count> <dim>'")
        try:
            count, dim = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"{path}:1: malformed header {header!r}, "
                             "expected two integers") from None
        if count < 0 or dim <= 0:
            raise ValueError(f"{path}:1: nonsensical header values {count} {dim}")
        if count == 0:
            raise ValueError(f"{path}:1: header declares no entries")
        words, vectors = _parse_entries(path, lines, count, dim)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        # Entry k sits on line k + 2; values beyond float32 range read as inf.
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite value for word {words[bad[0]]!r}")
    return EmbeddingTable(Vocabulary(words), vectors)


_BLOCK_LINES = 1024  # entry lines per np.loadtxt call; bounds its float64 copy


def _parse_entries(path, entries, count, dim):
    """Words and float32 vectors of the entry lines, ``_BLOCK_LINES`` lines
    per ``np.loadtxt`` call; a block with a fault raises ``_raise_line_fault``.
    The table stacks the blocks that loaded, so a header sizes nothing."""
    words = []
    seen = set()
    blocks = []
    while lines := list(itertools.islice(entries, _BLOCK_LINES)):
        pairs = [line.split(None, 1) for line in lines]
        seen.update(p[0] for p in pairs if p)
        n = len(words) + len(pairs)
        block = None
        # one rest per line: np.loadtxt would skip an empty one, shifting rows
        if (all(len(p) == 2 for p in pairs) and n <= count
                and len(seen) == n and seen.isdisjoint(RESERVED)):
            try:
                block = np.loadtxt([p[1] for p in pairs], dtype=np.float64,
                                   comments=None, ndmin=2)
            except ValueError:
                pass
        if block is None or block.shape != (len(pairs), dim):
            _raise_line_fault(path, lines, words, count, dim)
        with np.errstate(over="ignore"):  # the non-finite check names the word
            blocks.append(block.astype(np.float32))
        words += [p[0] for p in pairs]
    if len(words) != count:
        raise ValueError(f"{path}: header declares {count} entries, file has {len(words)}")
    return words, np.concatenate(blocks + [np.zeros((len(RESERVED), dim), np.float32)])


def _raise_line_fault(path, lines, words, count, dim):
    """Raise the error of the first faulty line of ``lines``, the entry lines
    after those that gave ``words``.  Each line is checked as its block was,
    so a block with no faulty line would have loaded."""
    first_line = {word: k + 2 for k, word in enumerate(words)}
    for lineno, line in enumerate(lines, start=len(words) + 2):
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
        if lineno - 2 >= count:
            raise ValueError(f"{path}:{lineno}: more entries than the declared count {count}")
        try:
            np.loadtxt([line.split(None, 1)[1]], dtype=np.float64, comments=None)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable float for word {word!r}") from None
        first_line[word] = lineno


TABLE_FORMAT = 1  # bumped whenever load_word2vec_text accepts or reads a table differently
TABLE_CACHE_ENTRIES = 8
_HASH_CHUNK = 1 << 16  # bytes per read while hashing: 64 KiB to 1 MiB hash a 17 MB table alike
_ENTRY_FIELDS = {"words": [str], "source_sha256": str, "format": int, "crc32": int}


def load_table(path):
    """``load_word2vec_text(path)``, parsed once per file content.

    The parsed table of a regular file is kept as a ``table`` container named
    by the SHA-256 of the file's bytes, in ``tokembed/tables`` under
    ``$XDG_CACHE_HOME`` (``~/.cache`` when that is unset).  An entry is read
    only if its kind, config, crc32 and values check out, and is rewritten
    from a parse otherwise.  Only a table that parses is written, and only if
    the file still hashes the same after the parse; the newest
    ``TABLE_CACHE_ENTRIES`` by mtime are kept, and a hit touches its entry.
    A cache that cannot be used falls back to the parse, silently.  A path
    that is not a regular file (a pipe, ``<(zcat ...)``) skips the cache,
    since hashing would consume it.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
        digest = _sha256(path) if regular else None
    except OSError:  # the parse reports it as it reports any input
        digest = None
    if digest is None:
        return load_word2vec_text(path)
    cache = _table_cache_dir()
    entry = cache / f"{digest}.tkem"
    try:
        table = _read_entry(entry, digest)
    except (OSError, ValueError):
        table = None
    if table is not None:
        try:
            os.utime(entry)
        except OSError:
            pass
        return table
    table = load_word2vec_text(path)
    try:
        _write_entry(cache, entry, path, digest, table)
    except OSError:
        pass
    return table


def _table_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "tokembed", "tables")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _read_entry(entry, digest):
    """The table a cache entry holds; ``ValueError`` if it is not the
    parsed table of the file of SHA-256 ``digest``."""
    kind, cfg, tensors = load_model(entry)
    check_config(entry, cfg, _ENTRY_FIELDS)
    vectors = tensors.get("vectors")
    if (kind != "table" or cfg["format"] != TABLE_FORMAT or cfg["source_sha256"] != digest
            or len(tensors) != 1 or vectors is None or vectors.dtype != np.float32
            or vectors.ndim != 2 or not vectors.shape[1]
            or zlib.crc32(vectors) != cfg["crc32"] or not np.isfinite(vectors).all()):
        raise ValueError(f"{entry}: not the parsed table {digest}")
    return EmbeddingTable(Vocabulary(cfg["words"]), vectors, copy=False)


def _write_entry(cache, entry, path, digest, table):
    """Write ``table`` as the cache ``entry`` of ``path`` if the file still
    has SHA-256 ``digest``: a temporary file in ``cache``, then a rename."""
    if _sha256(path) != digest:  # it changed while it was parsed
        return
    os.makedirs(cache, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        cfg = {"words": table.vocab.corpus_words, "source_sha256": digest,
               "format": TABLE_FORMAT, "crc32": zlib.crc32(table.vectors)}
        save_model(tmp, "table", cfg, {"vectors": table.vectors})
        os.replace(tmp, entry)
        others = [p for p in cache.glob("*.tkem") if p != entry]
        others.sort(key=lambda p: p.stat().st_mtime_ns, reverse=True)
        for old in others[TABLE_CACHE_ENTRIES - 1:]:
            old.unlink(missing_ok=True)
    finally:
        Path(tmp).unlink(missing_ok=True)


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
    with open_text(path) as fh:
        for line in fh:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences


def save_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        for toks in sentences:
            fh.write(" ".join(toks) + "\n")
