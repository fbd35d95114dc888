import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from tokembed import embeddings, parser, rng as rng_mod, tagger
from tokembed.embeddings import (BOS, EOS, UNK, EmbeddingTable, Vocabulary,
                                 load_corpus, load_word2vec_text,
                                 save_corpus, save_word2vec_text, windows)
from tokembed.nn import RowGrad, SgdMomentum, anchored_l2
from tokembed.synthetic import toy_embedding_table


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    with pytest.raises(ValueError, match=r":3: non-finite value for word 'b'"):
        load_word2vec_text(f)


@pytest.mark.parametrize("sep", [" ", "\t"])  # read in bulk, then line by line
def test_float32_overflow_warns_nothing(tmp_path, sep):
    f = write(tmp_path / "e.txt", f"2 2\na{sep}1{sep}2\nb{sep}1e39{sep}3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r":3: non-finite value for word 'b'"):
            load_word2vec_text(f)


def load_outcome(path):
    """What loading ``path`` gives: the error message, or the words and the
    bits of the vectors."""
    try:
        table = load_word2vec_text(path)
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


@given(word2vec_texts())
@example("3 2\na 1 2\nb -0 1e-3\nc nan 4\n")
@example("2 1\na 1\r\nb 2\x0c")
@example("2 1\na\xa0x 1\nb 2\n")
@example("1 1\na \n")
@example("2 1\na 1\nb 2\nc 3\n")
def test_bulk_reader_matches_line_reader(tmp_path_factory, text):
    # two-line blocks, so that lines of one file fall in several blocks
    path = tmp_path_factory.mktemp("w2v") / "e.txt"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(embeddings, "_BULK_LINES", 2)
        got = load_outcome(str(path))
        mp.setattr(embeddings, "_read_entries_bulk", lambda *args: None)
        assert got == load_outcome(str(path))


def test_single_space_file_is_read_in_bulk(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(7, 4)).astype(np.float32)
    text = "".join(f"w{k} " + " ".join(repr(float(x)) for x in rows[k]) + "\n"
                   for k in range(7))
    f = write(tmp_path / "e.txt", f"7 4\n{text}")

    def line_reader(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(embeddings, "_read_entries", line_reader)
    monkeypatch.setattr(embeddings, "_BULK_LINES", 3)
    table = load_word2vec_text(f)
    assert table.vocab.corpus_words == [f"w{k}" for k in range(7)]
    assert table.vectors[:7].tobytes() == rows.tobytes()


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


@given(st.lists(st.integers(0, 99), max_size=7),
       st.lists(st.integers(-3, 3), unique=True, max_size=5))
@example([], [-1, 0, 1])
@example([7], [])
@example([7], [-2, -1, 1, 2])
def test_windows_match_per_position_reference(ids, offsets):
    # offsets with and without the center, none at all, and sentences of
    # length 0 and 1
    wins = windows(np.array(ids, dtype=np.int64), offsets, 100, 101)
    assert wins.shape == (len(ids), len(offsets))
    assert wins.dtype == np.int64
    for j in range(len(ids)):
        assert wins[j].tolist() == reference_window(ids, j, offsets, 100, 101)


def test_corpus_round_trip(tmp_path):
    sents = [["a", "b"], ["c"], ["d", "e", "f"]]
    save_corpus(sents, tmp_path / "c.txt")
    assert load_corpus(str(tmp_path / "c.txt")) == sents


def test_corpus_skips_blank_lines(tmp_path):
    write(tmp_path / "c.txt", "a b\n\n\nc\n")
    assert load_corpus(str(tmp_path / "c.txt")) == [["a", "b"], ["c"]]


# -- sparse anchored update ------------------------------------------------------


class DenseAnchored:
    """The dense anchored update, written out: a |V|-row gradient filled by
    np.add.at, the penalty over the whole table, reserved rows zeroed.  As a
    plain array the gradient makes SgdMomentum step every row."""

    def __init__(self, table, vectors, weight):
        self.vectors = vectors
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


def _tagger_setup(table, words, rng):
    cfg = tagger.TaggerConfig(window=1, hidden=6, update_embeddings=True,
                              anchor_weight=0.05)
    sents = [(list(rng.choice(words, size=4)) + ["oov"], rng.integers(0, 3, size=5))
             for _ in range(6)]

    def build():
        return tagger.Tagger(cfg, ["A", "B", "C"], table, rng=rng_mod.stream(71, "init"))

    def batches(model):
        wins, consts = model.features([toks for toks, _ in sents])
        golds = np.concatenate([g for _, g in sents])
        return [(wins[k:k + 7], consts[k:k + 7], golds[k:k + 7])
                for k in range(0, len(golds), 7)]

    return build, batches, tagger.batch_loss_and_grads, lambda batch: batch[0]


def _parser_setup(table, words, rng):
    cfg = parser.ParserConfig(window=1, hidden=6, update_embeddings=True,
                              anchor_weight=0.05)
    sents = [parser.DepSentence(list(rng.choice(words, size=3)) + ["oov"],
                                [0, 1, 2, 3], [True] * 4) for _ in range(6)]

    def build():
        return parser.Parser(cfg, table, rng=rng_mod.stream(72, "init"))

    def batches(model):
        caches = [model._cache_sentence(s) for s in sents]
        return [(caches[k:k + 2],) for k in range(0, len(caches), 2)]

    def window_ids(batch):
        return np.concatenate([c.wins for c in batch[0]])

    return build, batches, parser.batch_loss_and_grads, window_ids


@pytest.mark.parametrize("setup", [_tagger_setup, _parser_setup])
def test_sparse_anchored_steps_match_dense_rule(setup):
    # Rows 0-5 appear in sentences, row 6 is moved off its anchor before
    # training and row 9 is never reached; -0.0 sits in a used and an unused
    # row.  Windows hold <s>, </s> and <unk>.  After every step the sparse
    # path's table must be bitwise that of the dense rule.
    rng = rng_mod.stream(70, "data")
    words = [f"u{k}" for k in range(12)]
    table = toy_embedding_table(words, 4, rng)
    table.vectors[2, 1] = table.vectors[9, 3] = -0.0
    build, batches, loss_and_grads, window_ids = setup(table, words[:6], rng)

    model, ref = build(), build()
    ref.adapted = DenseAnchored(table, ref.embeddings, 0.05)
    ref.embeddings[...] = table.vectors
    assert np.signbit(ref.embeddings[9, 3])
    for m in (model, ref):
        m.embeddings[6] += 0.25
    opt = SgdMomentum(model.params(), 0.1, 0.9)
    ref_opt = SgdMomentum(ref.params(), 0.1, 0.9)
    active = {6}
    for _ in range(3):
        for batch, ref_batch in zip(batches(model), batches(ref)):
            _, grads = loss_and_grads(model, *batch)
            _, ref_grads = loss_and_grads(ref, *ref_batch)
            sparse = grads["embeddings"]
            active |= set(window_ids(batch).ravel().tolist())
            assert isinstance(sparse, RowGrad)
            assert sorted(sparse.rows.tolist()) == sorted(active)
            assert sparse.values.shape == (len(active), 4)
            opt.step(grads)
            ref_opt.step(ref_grads)
            assert np.array_equal(model.embeddings.view(np.uint32),
                                  ref.embeddings.view(np.uint32))
            for name, value in ref.params().items():
                assert np.array_equal(model.params()[name], value), name
    assert 9 not in active
    assert not np.signbit(model.embeddings[9, 3])
