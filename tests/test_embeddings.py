import numpy as np
import pytest

from tokembed.embeddings import (BOS, EOS, UNK, EmbeddingTable, Vocabulary,
                                 load_corpus, load_word2vec_text,
                                 save_corpus, save_word2vec_text)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_basic(tmp_path):
    f = write(tmp_path / "e.txt", "2 3\na 1 0 0\nb 0 1 0\n")
    table = load_word2vec_text(f)
    assert len(table.vocab) == 5  # a, b + three reserved symbols
    assert table.dim == 3
    assert np.allclose(table.lookup("a"), [1, 0, 0])
    assert np.allclose(table.lookup("b"), [0, 1, 0])


def test_reserved_rows_zero(tmp_path):
    f = write(tmp_path / "e.txt", "1 2\na 5 5\n")
    table = load_word2vec_text(f)
    for sym in (BOS, EOS, UNK):
        assert np.array_equal(table.lookup(sym), np.zeros(2, dtype=np.float32))


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


def test_lookup_oov_is_unk_row(tmp_path):
    f = write(tmp_path / "e.txt", "1 3\na 1 2 3\n")
    table = load_word2vec_text(f)
    assert np.array_equal(table.lookup("zzz"), table.vectors[table.vocab.unk_id])
    assert np.array_equal(table.lookup("zzz"), np.zeros(3, dtype=np.float32))


def test_lookup_deterministic(tmp_path):
    f = write(tmp_path / "e.txt", "1 3\na 1 2 3\n")
    table = load_word2vec_text(f)
    assert np.array_equal(table.lookup("a"), table.lookup("a"))


def test_all_words_match_file_rows(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(7, 4))
    body = "".join(
        f"w{k} " + " ".join(f"{x:.6g}" for x in rows[k]) + "\n" for k in range(7)
    )
    f = write(tmp_path / "e.txt", f"7 4\n{body}")
    table = load_word2vec_text(f)
    for k in range(7):
        assert np.allclose(table.lookup(f"w{k}"), rows[k], atol=1e-5)


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


def test_corpus_round_trip(tmp_path):
    sents = [["a", "b"], ["c"], ["d", "e", "f"]]
    save_corpus(sents, tmp_path / "c.txt")
    assert load_corpus(str(tmp_path / "c.txt")) == sents


def test_corpus_skips_blank_lines(tmp_path):
    write(tmp_path / "c.txt", "a b\n\n\nc\n")
    assert load_corpus(str(tmp_path / "c.txt")) == [["a", "b"], ["c"]]
