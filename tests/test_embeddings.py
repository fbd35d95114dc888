import math
import os
import threading
import tracemalloc
import warnings
from contextlib import ExitStack
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from tokembed import embeddings, encoder, parser, rng as rng_mod, tagger
from tokembed.analysis import index_corpus
from tokembed.embeddings import (BOS, EOS, TABLE_CACHE_ENTRIES, UNK, EmbeddingTable,
                                 Vocabulary, load_corpus, load_table,
                                 load_word2vec_text, save_corpus, save_word2vec_text)
from tokembed.features import windows
from tokembed.nn import FitConfig, SgdMomentum, anchored_l2
from tokembed.serialize import load_model, save_model
from tokembed.synthetic import toy_embedding_table


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def cache_files(home):
    """Names of the files in the table cache under ``home``."""
    return sorted(p.name for p in (home / "tokembed" / "tables").glob("*"))


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """A cache home of this test's own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def parse_refused(path):
    raise AssertionError(f"parsed {path}")


def test_load_basic(tmp_path):
    f = write(tmp_path / "e.txt", "2 3\na 1 0 0\nb 0 1 0\n")
    table = load_word2vec_text(f)
    assert len(table.vocab) == 5  # a, b + three reserved symbols
    assert table.dim == 3
    assert np.allclose(table.vectors[table.vocab.id_of("a")], [1, 0, 0])
    assert np.allclose(table.vectors[table.vocab.id_of("b")], [0, 1, 0])


def test_reserved_rows_zero(tmp_path):
    f = write(tmp_path / "e.txt", "1 2\na 5 5\n")
    table = load_word2vec_text(f)
    for sym in (BOS, EOS, UNK):
        assert np.array_equal(table.vectors[table.vocab.id_of(sym)],
                              np.zeros(2, dtype=np.float32))


def test_wrong_float_count_names_line(tmp_path):
    f = write(tmp_path / "e.txt", "2 3\na 1 0 0\nb 0 1\n")
    with pytest.raises(ValueError, match=r":3"):
        load_word2vec_text(f)


def test_malformed_header(tmp_path):
    f = write(tmp_path / "e.txt", "banana\na 1 0 0\n")
    with pytest.raises(ValueError, match="header"):
        load_word2vec_text(f)


def test_duplicate_word_rejected_with_position(tmp_path):
    f = write(tmp_path / "e.txt", "3 1\na 1\nb 2\na 3\n")
    with pytest.raises(ValueError, match=r":4.*duplicate"):
        load_word2vec_text(f)


def test_count_mismatch(tmp_path):
    f = write(tmp_path / "e.txt", "3 1\na 1\nb 2\n")
    with pytest.raises(ValueError, match="declares 3"):
        load_word2vec_text(f)


@pytest.mark.parametrize("text, message", [
    ("0 100000000000\n", ":1: header declares no entries"),
    ("0 100000000000\na 1 2\n", ":1: header declares no entries"),
    ("2 100000000000\na 1 2\nb 3 4\n", ":2: word 'a' has 2 values, expected 100000000000"),
    ("2 100000000000\n", ": header declares 2 entries, file has 0"),
    ("100000000000 2\na 1 2\n", ": header declares 100000000000 entries, file has 1"),
])
def test_huge_header_dim_sizes_nothing(tmp_path, no_large_arrays, text, message):
    f = write(tmp_path / "e.txt", text)
    with pytest.raises(ValueError) as e:
        load_word2vec_text(f)
    assert str(e.value) == f + message


def test_reserved_symbol_in_file_rejected(tmp_path):
    f = write(tmp_path / "e.txt", f"1 1\n{UNK} 1\n")
    with pytest.raises(ValueError, match="reserved"):
        load_word2vec_text(f)


def test_bad_float_named(tmp_path):
    f = write(tmp_path / "e.txt", "1 2\na 1 oops\n")
    with pytest.raises(ValueError, match=r":2"):
        load_word2vec_text(f)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
def test_non_finite_value_named(tmp_path, value):
    # 1e39 is finite as text but overflows the float32 table
    f = write(tmp_path / "e.txt", f"3 2\na 1 2\nb 3 {value}\nc 5 6\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        for load in (load_word2vec_text, load_table):
            with pytest.raises(ValueError, match=r":3: non-finite value for word 'b'"):
                load(f)
    assert cache_files(tmp_path / "cache") == []


@pytest.mark.parametrize("sep", [" ", "\t"])
def test_float32_overflow_warns_nothing(tmp_path, sep):
    f = write(tmp_path / "e.txt", f"2 2\na{sep}1{sep}2\nb{sep}1e39{sep}3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r":3: non-finite value for word 'b'"):
            load_word2vec_text(f)


def load_outcome(path, load=load_word2vec_text):
    """What ``load(path)`` gives: the error message, or the words and the
    bits of the vectors."""
    try:
        table = load(path)
    except ValueError as e:
        return str(e)
    return table.vocab.words, table.vectors.tobytes()


CLEAN = {"words": ["a", "b", "c", "\xe9t\xe9"],
         "values": ["1", "-0", "0.5", "+.5", "3.", "1e-3", "2E+2", "1.5e-50"],
         "seps": [" "], "ends": ["\n"], "edges": [""], "shifts": [0]}
ODD = {"words": CLEAN["words"] + ["w\xa0x", "c\td", "d\u2003", "e\x1f", UNK],
       "values": CLEAN["values"] + ["nan", "-inf", "Infinity", "1e39", "1_000",
                                    "\u0661", "0x1p3", "abc", "1\x00"],
       "seps": [" "] * 4 + ["  ", "\t", " \t", "\xa0", "\u3000"],
       "ends": ["\n"] * 4 + ["\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028"],
       "edges": ["", "", " ", "\t"], "shifts": [0] * 6 + [-1, 1]}


@st.composite
def word2vec_texts(draw):
    """Embedding files, half of them single-spaced and well formed; the
    others may also hold odd separators, line breaks and spellings, wrong
    counts, duplicate or reserved words and blank lines."""
    pool = draw(st.sampled_from([CLEAN, ODD]))
    dim = draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(pool["values"]),
                       st.floats(width=32).map(repr),
                       st.floats(width=32).map(lambda x: f"{x:.6g}"))
    words = draw(st.lists(st.sampled_from(pool["words"])
                          | st.from_regex(r"[a-z]{1,3}", fullmatch=True),
                          max_size=6, unique=pool is CLEAN))
    lines = []
    for word in words:
        if pool is ODD and draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        line = draw(st.sampled_from(pool["edges"])) + word
        for _ in range(dim + draw(st.sampled_from(pool["shifts"]))):
            line += draw(st.sampled_from(pool["seps"])) + draw(values)
        lines.append(line + draw(st.sampled_from(pool["edges"])))
    count = len(lines) + draw(st.sampled_from(pool["shifts"]))
    lines.insert(0, f"{count} {dim}")
    return "".join(line + draw(st.sampled_from(pool["ends"])) for line in lines)


def reference_outcome(path):
    """``load_outcome`` of a reader that takes ``path`` line by line: the
    fields of ``line.split()``, each value through ``float()``.  A value must
    also be ASCII without ``_``, as ``np.loadtxt`` requires; ``float()``
    alone takes ``1_000`` and non-ASCII digits such as ``\u0661``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return f"{path}: empty file"
    head = lines[0].split()
    if len(head) != 2:
        return f"{path}:1: malformed header {lines[0]!r}, expected '<count> <dim>'"
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        return f"{path}:1: malformed header {lines[0]!r}, expected two integers"
    if count < 0 or dim <= 0:
        return f"{path}:1: nonsensical header values {count} {dim}"
    if count == 0:
        return f"{path}:1: header declares no entries"
    words, first_line, rows = [], {}, []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            return f"{path}:{lineno}: blank line inside the entry block"
        word = parts[0]
        if len(parts) - 1 != dim:
            return f"{path}:{lineno}: word {word!r} has {len(parts) - 1} values, expected {dim}"
        if word in first_line:
            return (f"{path}:{lineno}: duplicate word {word!r} "
                    f"(first at line {first_line[word]})")
        if word in (BOS, EOS, UNK):
            return f"{path}:{lineno}: word {word!r} collides with a reserved symbol"
        if len(words) >= count:
            return f"{path}:{lineno}: more entries than the declared count {count}"
        try:
            if not all(t.isascii() and "_" not in t for t in parts[1:]):
                raise ValueError
            row = [float(t) for t in parts[1:]]
        except ValueError:
            return f"{path}:{lineno}: unparseable float for word {word!r}"
        first_line[word] = lineno
        words.append(word)
        rows.append(row)
    if len(words) != count:
        return f"{path}: header declares {count} entries, file has {len(words)}"
    with np.errstate(over="ignore"):
        vectors = np.array(rows + [[0.0] * dim] * 3, dtype=np.float32).reshape(-1, dim)
    for k, row in enumerate(vectors[:count]):
        if not np.isfinite(row).all():
            return f"{path}:{k + 2}: non-finite value for word {words[k]!r}"
    return words + [BOS, EOS, UNK], vectors.tobytes()


@given(word2vec_texts())
@example("3 2\na 1 2\nb -0 1e-3\nc nan 4\n")
@example("2 1\na 1\r\nb 2\x0c")
@example("2 1\na\xa0x 1\nb 2\n")
@example("1 1\na \n")
@example("2 1\na 1\nb 2\nc 3\n")
@example(f"2 1\na 1\n{UNK} 2\n")
@example("3 1\na 1\nb 2\nc 1_000\n")
@example("2 1\na\t\u0661\nb 2\n")
@example("3 1\na 1\nb 2\nc 3\nb 4\n")
@example("3 1\na 1\nb 2\nc x\nb 4\n")
@example("3 1\na 1\nb 2\x0cc 3\n")
@example("2 3\r\n\xe9t\xe9\t-0.0\t1e-45\t3.4028235e38\r\n"
         "\u0444\u0438\t-1.1754942e-38\t-3.4028234663852886e38\t0\r\n")
def test_reader_matches_line_by_line_reference(tmp_path_factory, text):
    # two-line blocks, so that lines of one file fall in several blocks; the
    # table cache gives the same cold and warm, and holds only a table that loads
    root = tmp_path_factory.mktemp("w2v")
    path = root / "e.txt"
    path.write_text(text, encoding="utf-8", newline="")
    want = reference_outcome(str(path))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(embeddings, "_BLOCK_LINES", 2)
        mp.setenv("XDG_CACHE_HOME", str(root / "cache"))
        assert load_outcome(str(path)) == want
        assert load_outcome(str(path), load_table) == want
        entries = cache_files(root / "cache")
        assert len(entries) == (0 if isinstance(want, str) else 1)
        if entries:  # the warm load reads the entry alone
            mp.setattr(embeddings, "load_word2vec_text", parse_refused)
        assert load_outcome(str(path), load_table) == want


def test_loader_peak_memory_is_below_the_file_size_and_a_half(tmp_path, monkeypatch):
    # the text is read line by line: at no point are the whole text and its
    # lines held, which alone would take twice the file's size
    path = tmp_path / "e.txt"
    save_word2vec_text(toy_embedding_table([f"w{k}" for k in range(2000)], 100,
                                           np.random.default_rng(3)), path)
    monkeypatch.setattr(embeddings, "_BLOCK_LINES", 64)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load_table(str(path))
    peaks = []
    for load in (load_word2vec_text, load_table):  # a parse, then a cache hit
        tracemalloc.start()
        try:
            table = load(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(table.vocab) == 2003
    parse, hit = peaks
    assert parse < 1.5 * path.stat().st_size
    assert hit <= parse  # the entry is read into its array, with no second copy


@pytest.mark.parametrize("seps", [[" "], ["\t"], [" ", "\t", "  ", " \t ", "\xa0", "\u3000"]],
                         ids=["spaces", "tabs", "mixed"])
def test_any_whitespace_is_read_in_blocks(tmp_path, monkeypatch, seps):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(7, 4)).astype(np.float32)
    text = "7 4\n"
    for k in range(7):
        values = [repr(float(x)) for x in rows[k]]
        text += f"w{k}" + "".join(seps[(k + i) % len(seps)] + v
                                  for i, v in enumerate(values)) + "\n"
    f = write(tmp_path / "e.txt", text)

    def line_by_line(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(embeddings, "_raise_line_fault", line_by_line)
    monkeypatch.setattr(embeddings, "_BLOCK_LINES", 3)
    table = load_word2vec_text(f)
    assert table.vocab.corpus_words == [f"w{k}" for k in range(7)]
    assert table.vectors[:7].tobytes() == rows.tobytes()


def _truncated(entry):
    entry.write_bytes(entry.read_bytes()[:100])


def _flipped(entry):
    data = bytearray(entry.read_bytes())
    data[-5] ^= 0x01  # a payload byte: the crc32 no longer matches
    entry.write_bytes(bytes(data))


def _resaved(change):
    def rewrite(entry):
        kind, cfg, tensors = load_model(str(entry))
        save_model(entry, *change(kind, cfg), tensors)
    return rewrite


@pytest.mark.parametrize("corrupt", [
    _truncated, _flipped,
    _resaved(lambda kind, cfg: (kind, {**cfg, "source_sha256": "0" * 64})),
    _resaved(lambda kind, cfg: ("tagger", cfg)),
    _resaved(lambda kind, cfg: (kind, {**cfg, "format": embeddings.TABLE_FORMAT + 1})),
    lambda entry: entry.write_bytes(b"garbage"),
], ids=["truncated", "flipped", "foreign-source", "wrong-kind", "old-format", "garbage"])
def test_a_faulty_entry_is_parsed_and_rewritten(tmp_path, cache_home, corrupt):
    f = write(tmp_path / "e.txt", "3 2\na 1 2\nb -0 1e-45\nc 5 6\n")
    load_table(f)
    entry, = (cache_home / "tokembed" / "tables").iterdir()
    valid = entry.read_bytes()
    corrupt(entry)
    assert load_outcome(f, load_table) == load_outcome(f)
    assert cache_files(cache_home) == [entry.name]
    assert entry.read_bytes() == valid


def test_a_pipe_is_parsed_and_never_cached(tmp_path, cache_home, monkeypatch):
    text = "2 2\na 1 2\nb 3 4\n"
    fifo = tmp_path / "e.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    monkeypatch.setattr(embeddings, "_sha256", parse_refused)  # hashing would drain it
    outcome = load_outcome(str(fifo), load_table)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == load_outcome(write(tmp_path / "e.txt", text))
    assert cache_files(cache_home) == []


def test_a_table_that_changes_while_parsed_is_not_cached(tmp_path, cache_home, monkeypatch):
    f = write(tmp_path / "e.txt", "2 1\na 1\nb 2\n")
    parse = load_word2vec_text

    def parse_then_edit(path):
        table = parse(path)
        write(tmp_path / "e.txt", "2 1\na 1\nb 3\n")
        return table

    monkeypatch.setattr(embeddings, "load_word2vec_text", parse_then_edit)
    assert load_table(f).vectors[1, 0] == 2.0
    assert cache_files(cache_home) == []


def test_a_failed_write_leaves_no_file(tmp_path, cache_home, monkeypatch):
    def disk_full(path, *args):
        with open(path, "wb") as fh:
            fh.write(b"TKEM")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(embeddings, "save_model", disk_full)
    f = write(tmp_path / "e.txt", "2 1\na 1\nb 2\n")
    assert load_outcome(f, load_table) == load_outcome(f)
    assert cache_files(cache_home) == []


def test_the_cache_keeps_the_newest_entries(tmp_path, cache_home):
    tables = cache_home / "tokembed" / "tables"
    names = []
    for k in range(TABLE_CACHE_ENTRIES + 1):
        load_table(write(tmp_path / f"e{k}.txt", f"1 1\nw{k} 1\n"))
        new, = set(cache_files(cache_home)) - set(names)
        names.append(new)
        if k < TABLE_CACHE_ENTRIES:  # distinct mtimes, long ago, in load order
            os.utime(tables / new, (1e9 + k, 1e9 + k))
        if k == TABLE_CACHE_ENTRIES - 1:  # a hit makes the oldest the newest
            load_table(str(tmp_path / "e0.txt"))
    assert cache_files(cache_home) == sorted(names[:1] + names[2:])


def test_lookup_oov_is_unk_row(tmp_path):
    f = write(tmp_path / "e.txt", "1 3\na 1 2 3\n")
    table = load_word2vec_text(f)
    assert table.vocab.id_of("zzz") == table.vocab.unk_id
    assert np.array_equal(table.vectors[table.vocab.unk_id], np.zeros(3, dtype=np.float32))


def test_lookup_deterministic(tmp_path):
    f = write(tmp_path / "e.txt", "1 3\na 1 2 3\n")
    table = load_word2vec_text(f)
    assert table.vocab.id_of("a") == table.vocab.id_of("a") == 0
    assert np.array_equal(table.vocab.to_ids(["a", "zzz", "a"]), [0, 3, 0])


def test_all_words_match_file_rows(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(7, 4))
    body = "".join(
        f"w{k} " + " ".join(f"{x:.6g}" for x in rows[k]) + "\n" for k in range(7)
    )
    f = write(tmp_path / "e.txt", f"7 4\n{body}")
    table = load_word2vec_text(f)
    for k in range(7):
        assert np.allclose(table.vectors[table.vocab.id_of(f"w{k}")], rows[k], atol=1e-5)


def test_round_trip_within_tolerance(tmp_path):
    rng = np.random.default_rng(11)
    vocab = Vocabulary([f"w{k}" for k in range(9)])
    vectors = np.zeros((len(vocab), 5), dtype=np.float32)
    vectors[:9] = rng.normal(0, 1, size=(9, 5))
    table = EmbeddingTable(vocab, vectors)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_word2vec_text(table, p1)
    t2 = load_word2vec_text(str(p1))
    assert np.allclose(t2.vectors, table.vectors, atol=1e-5)
    save_word2vec_text(t2, p2)
    t3 = load_word2vec_text(str(p2))
    assert np.allclose(t3.vectors, table.vectors, atol=1e-5)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(["a", "a"])


# -- context windows -------------------------------------------------------------


def reference_window(ids, j, offsets, bos_id, eos_id):
    """Window of position ``j``, one position at a time."""
    out = []
    for o in offsets:
        p = j + o
        out.append(bos_id if p < 0 else eos_id if p >= len(ids) else ids[p])
    return out


@given(st.lists(st.lists(st.integers(0, 99), max_size=7), max_size=4),
       st.lists(st.integers(-3, 3), unique=True, max_size=5))
@example([], [-1, 0, 1])
@example([[]], [-1, 0, 1])
@example([[7]], [])
@example([[7]], [-2, -1, 1, 2])
@example([[1, 2, 3], [], [4], [5, 6]], [-3, -2, -1, 0, 1, 2, 3])
@example([[4], [5], [6]], [-3, -1, 1, 3])
def test_windows_match_per_position_reference(sentences, offsets):
    # one flat corpus of sentences, empty and one-token ones among them;
    # offsets with and without the center, and none at all: every row is
    # the window over its own sentence alone
    ids = np.array([i for sent in sentences for i in sent], dtype=np.int64)
    wins = windows(ids, [len(sent) for sent in sentences], offsets, 100, 101)
    assert wins.shape == (len(ids), len(offsets))
    assert wins.dtype == np.int64
    rows = iter(wins.tolist())
    for sent in sentences:
        for j in range(len(sent)):
            assert next(rows) == reference_window(sent, j, offsets, 100, 101)


def test_corpus_round_trip(tmp_path):
    sents = [["a", "b"], ["c"], ["d", "e", "f"]]
    save_corpus(sents, tmp_path / "c.txt")
    assert load_corpus(str(tmp_path / "c.txt")) == sents


def test_corpus_skips_blank_lines(tmp_path):
    write(tmp_path / "c.txt", "a b\n\n\nc\n")
    assert load_corpus(str(tmp_path / "c.txt")) == [["a", "b"], ["c"]]


# -- anchored update of the reached rows -----------------------------------------


class DenseAnchored:
    """The dense anchored update, written out: a trainable copy of the whole
    table, a |V|-row gradient filled by np.add.at, the penalty over the whole
    table, reserved rows zeroed.  SgdMomentum steps every row."""

    def __init__(self, table, weight):
        self.vectors = table.vectors.copy()
        self.anchor = table.vectors.copy()
        self.weight = weight
        vocab = table.vocab
        self.reserved = [vocab.bos_id, vocab.eos_id, vocab.unk_id]

    def gradient(self, window_grads):
        grad = np.zeros_like(self.vectors)
        for ids, g in window_grads:
            np.add.at(grad, ids, g)
        penalty, anchor_grad = anchored_l2(self.vectors, self.anchor, self.weight)
        grad += anchor_grad
        grad[self.reserved] = 0.0
        return penalty, grad

    def lookup(self, ids):
        return self.vectors[ids]


def test_anchor_is_the_table_in_its_dtype():
    rng = rng_mod.stream(76, "data")
    words = [f"u{k}" for k in range(6)]
    table = toy_embedding_table(words, 4, rng)
    before = table.vectors.copy()
    single = embeddings.AdaptedEmbeddings(table, 0.05)
    assert np.shares_memory(single.anchor, table.vectors)
    assert not np.shares_memory(single.vectors, table.vectors)
    assert single.vectors.shape == (0, 4)
    double = embeddings.AdaptedEmbeddings(table, 0.05, np.float64)
    assert double.anchor.dtype == np.float64
    assert not np.shares_memory(double.anchor, table.vectors)
    # training moves the trainable copy only
    model = tagger.Tagger(tagger.TaggerConfig(window=1, hidden=6, update_embeddings=True),
                          ["A", "B", "C"], table, rng=rng_mod.stream(76, "init"))
    assert np.shares_memory(model.adapted.anchor, table.vectors)
    corpus = [(list(rng.choice(words, size=4)), rng.integers(0, 3, size=4))
              for _ in range(6)]
    cfg = FitConfig(epochs=2, batch_size=2, learning_rate=0.1, momentum=0.9, seed=76)
    tagger.train_tagger(model, corpus[:4], corpus[4:], cfg)
    assert np.array_equal(table.vectors, before)
    assert not np.array_equal(model.adapted.full(), before)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_embedding_update_without_a_type_window_does_not_load(tmp_path, kind):
    # a file whose config asks for an embedding update that no type window
    # could receive, as older versions saved it
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(77, "data"))
    encoders = corpus_encoders()[:1]
    if kind == "tagger":
        config = tagger.TaggerConfig(window=0, omit_center=True, hidden=4)
        model = tagger.Tagger(config, ["A"], table, encoders)
    else:
        config = parser.ParserConfig(window=-1, hidden=4)
        model = parser.Parser(config, table, encoders)
    config.update_embeddings = True
    path = tmp_path / "model.bin"
    model.save(path)
    with pytest.raises(ValueError) as err:
        type(model).load(path, table, encoders)
    assert str(err.value).startswith(
        f"{path}: config.{kind}: update_embeddings needs a type window, and window ")


def _tagger_setup(table, words, rng):
    cfg = tagger.TaggerConfig(window=1, hidden=6, update_embeddings=True,
                              anchor_weight=0.05)
    sents = [(list(rng.choice(words, size=4)) + ["oov"], rng.integers(0, 3, size=5))
             for _ in range(6)]

    def build():
        return tagger.Tagger(cfg, ["A", "B", "C"], table, rng=rng_mod.stream(71, "init"))

    def batches(model):
        inputs = model.features([toks for toks, _ in sents])
        golds = np.concatenate([g for _, g in sents])
        return [(inputs.take(slice(k, k + 7)), golds[k:k + 7])
                for k in range(0, len(golds), 7)]

    return build, batches, tagger.batch_loss_and_grads, lambda batch: batch[0].wins


def _parser_setup(table, words, rng):
    cfg = parser.ParserConfig(window=1, hidden=6, update_embeddings=True,
                              anchor_weight=0.05)
    sents = [parser.DepSentence(list(rng.choice(words, size=3)) + ["oov"],
                                [0, 1, 2, 3], [True] * 4) for _ in range(6)]

    def build():
        return parser.Parser(cfg, table, rng=rng_mod.stream(72, "init"))

    def batches(model):
        caches = model._caches(sents)
        return [(caches[k:k + 2],) for k in range(0, len(caches), 2)]

    def window_ids(batch):
        return np.concatenate([c.inputs.wins for c in batch[0]])

    return build, batches, parser.batch_loss_and_grads, window_ids


@pytest.mark.parametrize("setup", [_tagger_setup, _parser_setup])
def test_sparse_anchored_steps_match_dense_rule(setup):
    # Rows 0-5 appear in sentences, row 6 is moved off its anchor before
    # training and row 9 is never reached; -0.0 sits in a used and an unused
    # row.  Windows hold <s>, </s> and <unk>.  After every step the whole
    # table the reached rows compose must be bitwise that of the dense rule.
    rng = rng_mod.stream(70, "data")
    words = [f"u{k}" for k in range(12)]
    table = toy_embedding_table(words, 4, rng)
    table.vectors[2, 1] = table.vectors[9, 3] = -0.0
    build, batches, loss_and_grads, window_ids = setup(table, words[:6], rng)
    vocab = table.vocab
    reserved = {vocab.bos_id, vocab.eos_id, vocab.unk_id}

    model, ref = build(), build()
    ref.adapted = DenseAnchored(table, 0.05)
    assert np.signbit(ref.adapted.vectors[9, 3])
    ids = set(np.concatenate([window_ids(b).ravel() for b in batches(model)]).tolist())
    assert reserved <= ids
    model.adapted.add_rows(np.array(sorted(ids | {6})))
    rows = model.adapted.rows.tolist()
    assert sorted(rows) == sorted((ids | {6}) - reserved)
    assert 9 not in rows
    model.adapted.vectors[rows.index(6)] += 0.25
    ref.adapted.vectors[6] += 0.25
    opt = SgdMomentum(model.params(), 0.1, 0.9)
    ref_opt = SgdMomentum(ref.params(), 0.1, 0.9)
    for _ in range(3):
        for batch, ref_batch in zip(batches(model), batches(ref)):
            _, grads = loss_and_grads(model, *batch)
            _, ref_grads = loss_and_grads(ref, *ref_batch)
            assert grads["embeddings"].shape == (len(rows), 4)
            opt.step(grads)
            ref_opt.step(ref_grads)
            assert np.array_equal(model.adapted.full().view(np.uint32),
                                  ref.adapted.vectors.view(np.uint32))
            for name, value in ref.params().items():
                if name != "embeddings":
                    assert np.array_equal(model.params()[name], value), name
    assert model.adapted.rows.tolist() == rows
    assert not np.signbit(model.adapted.full()[9, 3])


def test_gradient_on_a_row_not_reached_raises():
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(78, "data"))
    table.vectors[2, 0] = -0.0
    adapted = embeddings.AdaptedEmbeddings(table, 0.05)
    vocab = table.vocab
    # lookups read a row not reached as the table's + 0.0, with no row reached too
    looked = np.array([[1, 2], [vocab.unk_id, 3]])
    want = table.vectors[looked] + 0.0
    assert np.array_equal(adapted.lookup(looked).view(np.uint32), want.view(np.uint32))
    adapted.add_rows(np.array([[1, vocab.bos_id], [3, vocab.unk_id]]))
    assert adapted.rows.tolist() == [1, 3]
    adapted.vectors += 1.0
    want[0, 0] += 1.0
    want[1, 1] += 1.0
    assert np.array_equal(adapted.lookup(looked).view(np.uint32), want.view(np.uint32))
    assert not np.signbit(adapted.lookup(looked)[0, 1, 0])
    # reserved ids are dropped
    ids = np.array([[1, vocab.eos_id], [vocab.unk_id, 3]])
    _, grad = adapted.gradient([(ids, np.ones((2, 2, 4), np.float32))])
    assert np.array_equal(grad, 1.0 + anchored_l2(adapted.vectors, table.vectors[[1, 3]], 0.05)[1])
    with pytest.raises(ValueError, match="gradient on row 2, which was not reached"):
        adapted.gradient([(np.array([[1, 2]]), np.ones((1, 2, 4), np.float32))])


def test_optimizer_rejects_a_gradient_of_the_whole_table():
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(79, "data"))
    model = tagger.Tagger(tagger.TaggerConfig(window=1, hidden=6, update_embeddings=True),
                          ["A"], table, rng=rng_mod.stream(79, "init"))
    model.adapted.add_rows(np.arange(3))
    params = model.params()
    opt = SgdMomentum(params, 0.1, 0.9)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["embeddings"] = np.zeros_like(table.vectors)
    with pytest.raises(ValueError, match="parameter 'embeddings' of shape \\(3, 4\\)"):
        opt.step(grads)


def test_whole_table_round_trips_with_a_negative_zero_in_a_row_not_reached(tmp_path):
    rng = rng_mod.stream(80, "data")
    words = [f"u{k}" for k in range(8)]
    table = toy_embedding_table(words, 4, rng)
    table.vectors[7, 2] = -0.0  # u7 is in no sentence
    model = tagger.Tagger(tagger.TaggerConfig(window=1, hidden=6, update_embeddings=True),
                          ["A", "B"], table, rng=rng_mod.stream(80, "init"))
    corpus = [(list(rng.choice(words[:6], size=4)), rng.integers(0, 2, size=4))
              for _ in range(6)]
    cfg = FitConfig(epochs=2, batch_size=2, learning_rate=0.1, momentum=0.9, seed=80)
    tagger.train_tagger(model, corpus[:4], corpus[4:], cfg)
    assert 7 not in model.adapted.rows
    path, again = tmp_path / "tagger.bin", tmp_path / "again.bin"
    model.save(path)
    stored = load_model(path)[2]["embeddings"]
    whole = model.adapted.full()
    assert np.array_equal(stored.view(np.uint32), whole.view(np.uint32))
    assert stored[7, 2] == 0.0 and not np.signbit(stored[7, 2])
    loaded = tagger.Tagger.load(path, table)
    assert set(loaded.adapted.rows.tolist()) <= set(model.adapted.rows.tolist())
    assert np.array_equal(loaded.adapted.full().view(np.uint32), whole.view(np.uint32))
    tokens = [toks for toks, _ in corpus]
    assert list(map(list, loaded.predict_corpus(tokens))) == list(
        map(list, model.predict_corpus(tokens)))
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


FINITE_FLOAT32_BITS = st.integers(0, 2 ** 32 - 1).filter(lambda u: u >> 23 & 0xFF != 0xFF)
RESAVE_WORDS = [f"u{k}" for k in range(6)]


@given(kind=st.sampled_from(["tagger", "parser"]),
       rows=st.lists(st.sampled_from(["table", "bits", "flipped"]), min_size=6, max_size=6),
       bits=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
# rows that differ from the table only in the sign of a zero: the table
# holds +0.0 in u1 and -0.0 in u2, and a saved table holds both at +0.0
@example(kind="tagger", rows=["table", "flipped", "flipped", "table", "table", "table"],
         bits=[0], seed=0)
def test_every_loaded_predictor_file_resaves_to_its_own_bytes(tmp_path_factory, kind, rows,
                                                              bits, seed):
    # files as save writes them, with every tensor's bits drawn: arbitrary
    # finite float32 patterns in the network, the drawn ones first, and each
    # word row of the stored table either the table's + 0.0, drawn bits, or
    # the table's + 0.0 with the sign of each zero flipped
    table = toy_embedding_table(RESAVE_WORDS, 4, rng_mod.stream(83, "data"))
    table.vectors[table.vocab.id_of("u1"), 0] = 0.0
    table.vectors[table.vocab.id_of("u2"), 1] = -0.0
    if kind == "tagger":
        model = tagger.Tagger(tagger.TaggerConfig(window=1, hidden=3, update_embeddings=True),
                              ["A", "B"], table)
    else:
        model = parser.Parser(parser.ParserConfig(window=1, hidden=3, update_embeddings=True),
                              table)
    path = tmp_path_factory.mktemp("resave") / "model.bin"
    model.save(path)
    _, config, tensors = load_model(path)
    r = np.random.default_rng(seed)

    def drawn(shape):
        raw = r.integers(0, 2 ** 32, size=shape, dtype=np.uint32)
        raw[(raw >> 23 & 0xFF) == 0xFF] &= ~np.uint32(1 << 30)
        raw.reshape(-1)[:len(bits)] = bits[:raw.size]
        return raw.view(np.float32)

    for name, arr in tensors.items():
        if name != "embeddings":
            tensors[name] = drawn(arr.shape)
    full = tensors["embeddings"]
    for word, how in zip(RESAVE_WORDS, rows):
        row = table.vocab.id_of(word)
        if how == "bits":
            full[row] = drawn(table.dim)
        elif how == "flipped":
            full[row] = np.where(full[row] == 0, -full[row], full[row])
    save_model(path, kind, config, tensors)
    loaded = type(model).load(path, table)
    loaded.save(path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


def test_training_memory_does_not_grow_with_rows_not_reached():
    # Only the rows training reaches are trainable: what an embedding update
    # builds and trains is the same for a table of 1k and of 51k unused rows,
    # but for the row -> slot map.  The tables are built outside the trace.
    rng = rng_mod.stream(81, "data")
    words = [f"u{k}" for k in range(20)]
    tagged = [(list(rng.choice(words, size=5)), rng.integers(0, 3, size=5))
              for _ in range(12)]
    deps = [parser.DepSentence(toks, [0, 1, 2, 3, 4], [True] * 5) for toks, _ in tagged]
    cfg = FitConfig(epochs=2, batch_size=4, learning_rate=0.05, momentum=0.9, seed=81)

    def peak(unused):
        table = toy_embedding_table(words + [f"x{k}" for k in range(unused)], 100,
                                    rng_mod.stream(82, "data"))
        tracemalloc.start()
        try:
            model = tagger.Tagger(tagger.TaggerConfig(window=1, hidden=16,
                                                      update_embeddings=True),
                                  ["A", "B", "C"], table, rng=rng_mod.stream(81, "init"))
            tagger.train_tagger(model, tagged[:9], tagged[9:], cfg)
            model = parser.Parser(parser.ParserConfig(window=1, hidden=16,
                                                      update_embeddings=True),
                                  table, rng=rng_mod.stream(81, "init"))
            parser.train_parser(model, deps[:9], deps[9:], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # one-time allocations of the first run
    small, large = peak(1_000), peak(51_000)
    assert large - small <= 40 * 50_000, (small, large)


# -- one corpus path from tokens to encoder features ---------------------------

# 3- and 4-token sentences, whose small forward passes may round otherwise,
# and one sentence longer than the patched block of 8 windows
CORPUS = [["u0", "u1", "u2"], ["u3", "u4", "oov", "u5"], [f"u{k % 6}" for k in range(11)],
          ["u5", "u0", "u2"], ["u1", "u1", "u4", "u3"], ["u2"]]


def corpus_encoders():
    return [encoder.FfnEncoder(4, 1, token_dim=3, hidden=6, rng=rng_mod.stream(73, "init")),
            encoder.Seq2SeqEncoder(4, 2, token_dim=2, rng=rng_mod.stream(74, "init"))]


def corpus_predictors(table, encoders):
    """A tagger and a parser whose type windows are wider than, or as wide
    as, the encoders' windows."""
    return [tagger.Tagger(tagger.TaggerConfig(window=3, hidden=4), ["A"], table, encoders),
            parser.Parser(parser.ParserConfig(window=0, hidden=4, word_features=False),
                          table, encoders)]


@pytest.mark.parametrize("which", [0, 1])
def test_token_codes_are_the_index_embeddings(monkeypatch, which):
    # one encoder, no word features: the rows a predictor trains on are the
    # rows ``embed`` exports, bit for bit
    monkeypatch.setattr(encoder, "ENCODE_BLOCK", 8)
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(75, "data"))
    enc = corpus_encoders()[which]
    want = index_corpus(enc, table, CORPUS).codes
    predictors = corpus_predictors(table, [enc])
    for model in predictors:
        got = model.features(CORPUS).codes
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    # the parser's training caches keep the rows of their selected tokens
    sents = [parser.DepSentence(toks, [-1] * len(toks), [k % 2 == 0 for k in range(len(toks))])
             for toks in CORPUS]
    fixed = np.concatenate([c.inputs.codes[1:] for c in predictors[1]._caches(sents)])
    selected = [flag for s in sents for flag in s.selected]
    assert np.array_equal(fixed.view(np.uint32), want[selected].view(np.uint32))


@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tagger_and_parser_compose_the_same_position_rows(window, dtype):
    # parser slot j + 1 holds token j of a fully selected sentence; a float64
    # model composes float64 rows over the float32 table and encoders
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(75, "data"))
    encoders = corpus_encoders()
    tag = tagger.Tagger(tagger.TaggerConfig(window=window, hidden=4, word_features=True),
                        ["A"], table, encoders, dtype=dtype)
    par = parser.Parser(parser.ParserConfig(window=window, hidden=4, word_features=True),
                        table, encoders, dtype=dtype)
    sents = [parser.DepSentence(toks, [-1] * len(toks), [True] * len(toks)) for toks in CORPUS]
    want = tag.compose(tag.features(CORPUS))
    got = [par.compose(c.inputs) for c in par._caches(sents)]
    assert all(rows.dtype == dtype for rows in [want, *got])
    assert want.shape[1] == sum(tag.widths) == sum(par.widths)
    assert np.array_equal(np.concatenate([rows[1:] for rows in got]), want)


def count_passes(encoders, log):
    """Patch each encoder's forward pass to append (encoder index, rows) to
    ``log``."""
    stack = ExitStack()
    for k, enc in enumerate(encoders):
        def counting(E, k=k, codes=enc._codes):
            log.append((k, len(E)))
            return codes(E)
        stack.enter_context(mock.patch.object(enc, "_codes", counting))
    return stack


def passes_per_encoder(log, n_encoders):
    return [[rows for k, rows in log if k == e] for e in range(n_encoders)]


@pytest.mark.parametrize("block", [4, 8, 256])
def test_tagger_features_encode_the_corpus_in_blocks(monkeypatch, block):
    monkeypatch.setattr(encoder, "ENCODE_BLOCK", block)
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(75, "data"))
    encoders = corpus_encoders()
    model = corpus_predictors(table, encoders)[0]
    n = sum(len(toks) for toks in CORPUS)
    log = []
    with count_passes(encoders, log):
        inputs = model.features(CORPUS)
    assert all(len(a) == n for a in inputs)
    for rows in passes_per_encoder(log, len(encoders)):
        assert sum(rows) == n
        assert len(rows) <= math.ceil(n / block)


@pytest.mark.parametrize("block", [4, 8, 256])
def test_parser_blocks_encode_their_sentences_in_blocks(monkeypatch, block):
    # the forward passes between two scoring passes are those of one block
    monkeypatch.setattr(encoder, "ENCODE_BLOCK", block)
    table = toy_embedding_table([f"u{k}" for k in range(6)], 4, rng_mod.stream(75, "data"))
    encoders = corpus_encoders()
    model = corpus_predictors(table, encoders)[1]
    sents = [parser.DepSentence(toks, [-1] * len(toks), [True] * len(toks))
             for toks in CORPUS * 12]
    log, blocks = [], []
    forward = model._forward

    def scoring(caches):
        blocks.append(passes_per_encoder(log, len(encoders)))
        log.clear()
        return forward(caches)

    with count_passes(encoders, log), mock.patch.object(model, "_forward", scoring):
        model.predict_heads(sents)
    assert not log and 1 < len(blocks) < len(sents)
    for per_encoder in blocks:
        n = sum(per_encoder[0])
        for rows in per_encoder:
            assert sum(rows) == n
            assert len(rows) <= math.ceil(n / block)
