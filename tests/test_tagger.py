import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from tokembed import rng as rng_mod
from tokembed.encoder import FfnEncoder, Seq2SeqEncoder, corpus_windows
from tokembed.features import (ResourceBundle, extended_feature_width,
                               extended_features, word_features)
from tokembed.nn import FitConfig, TrainingDiverged
from tokembed.synthetic import toy_embedding_table
from tokembed.tagger import (Tagger, TaggerConfig, corpus_tag_ids,
                             load_tagged_corpus, load_tagset,
                             save_tagged_corpus, tagging_accuracy,
                             train_tagger)

TAGSET = ["T0", "T1", "T2", "T3", "T4"]


def big_table(seed=20, n_words=8, dim=100):
    rng = rng_mod.stream(seed, "data")
    return toy_embedding_table([f"w{k}" for k in range(n_words)], dim, rng)


# -- input composition --------------------------------------------------------


def input_rows(model, tokens):
    """The network input rows of one sentence, composed as training does."""
    return model.compose(model.features([tokens]))


def test_compose_width_window_only():
    table = big_table()
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table)
    assert model.input_dim == 300
    assert input_rows(model, ["w0", "w1", "w2"]).shape == (3, 300)


def test_compose_width_encoder_and_features():
    table = big_table()
    enc = FfnEncoder(100, 1, token_dim=256, hidden=8, rng=rng_mod.stream(0, "init"))
    model = Tagger(TaggerConfig(window=0, hidden=8, word_features=True),
                   TAGSET, table, encoders=[enc])
    assert model.input_dim == 100 + 256 + 10


def test_compose_width_omit_center():
    table = big_table()
    enc = FfnEncoder(100, 1, token_dim=256, hidden=8, rng=rng_mod.stream(0, "init"))
    model = Tagger(TaggerConfig(window=0, omit_center=True, hidden=8,
                                word_features=True), TAGSET, table, encoders=[enc])
    assert model.input_dim == 256 + 10


def test_compose_order_type_embeddings_first():
    table = big_table(dim=4)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)
    row = input_rows(model, ["w3"])[0]
    assert np.array_equal(row, table.vectors[table.vocab.id_of("w3")])


def test_compose_width_two_encoders():
    # a stack of token-embedding feature sets with different context radii
    table = big_table(dim=8)
    encs = [FfnEncoder(8, 1, token_dim=4, hidden=8, rng=rng_mod.stream(1, "init")),
            Seq2SeqEncoder(8, 3, token_dim=6, rng=rng_mod.stream(2, "init"))]
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table, encoders=encs)
    assert model.input_dim == 8 + 4 + 6
    assert input_rows(model, ["w0", "w1"]).shape == (2, 18)


def test_compose_width_extended_stack():
    table = big_table(dim=4)
    resources = ResourceBundle(
        brown_clusters={"w0": "0011", "w1": "110"},
        tag_dictionary={"w0": {"T0": 3, "T1": 1}},
        name_lists=[frozenset({"w2"})],
        char_ngrams={"w0": 0, "w1": 1},
    )
    model = Tagger(TaggerConfig(window=0, hidden=8, word_features=True,
                                extended=True), TAGSET, table,
                   resources=resources)
    assert model.input_dim == 4 + 10 + extended_feature_width(resources)
    rows = input_rows(model, ["w0", "w1", "w2"])
    assert rows.shape == (3, model.input_dim)
    assert np.array_equal(rows[1, 4:14], word_features("w1"))
    assert np.array_equal(rows[1, 14:], extended_features(["w0", "w1", "w2"], 1,
                                                          resources))


# Table words, their case variants and out-of-vocabulary strings: an unknown
# token shares the UNK id but not its case bit, n-grams or resource entries.
FEATURE_WORDS = ["the", "cat", "sat", "alice", "Paris", "ththe", "@bob", "12", ":", ".."]
_feature_token = st.one_of(
    st.sampled_from(FEATURE_WORDS),
    st.sampled_from(FEATURE_WORDS).map(str.upper),
    st.sampled_from(FEATURE_WORDS).map(str.capitalize),
    st.text(alphabet="theaTHE@#.:1$", min_size=1, max_size=4))


@given(st.lists(st.lists(_feature_token, min_size=1, max_size=6), max_size=6))
@example([])
@example([["cat"], ["cat", "CAT", "cat"], ["zz"], ["zz", "the"]])
def test_const_features_per_type_rows_equal_the_per_token_references(sentences):
    table = toy_embedding_table(["the", "cat", "sat", "alice"], 3,
                                rng_mod.stream(40, "data"))
    resources = ResourceBundle(
        brown_clusters={"the": "0010110101", "cat": "110010", "CAT": "1110", "sat": "1101"},
        tag_dictionary={"the": {"DT": 90, "NN": 2}, "Cat": {"NN": 5},
                        "cat": {"NN": 50, "VB": 50, "JJ": 10, "RB": 5}},
        name_lists=[frozenset({"alice", "Paris"}), frozenset({"zz", "PARIS"})],
        char_ngrams={"th": 0, "he": 1, "the": 2, "at": 3, "TH": 4})
    enc = FfnEncoder(3, 1, token_dim=2, hidden=4, rng=rng_mod.stream(41, "init"))
    model = Tagger(TaggerConfig(window=1, hidden=4, word_features=True, extended=True),
                   TAGSET, table, encoders=[enc], resources=resources)
    wins = corpus_windows(table, sentences, model.radius)
    out = model.compose(model.features(sentences))[:, model.widths[0]:]
    tokens = [(toks, j) for toks in sentences for j in range(len(toks))]
    width = 2 + 10 + extended_feature_width(resources)
    ref = np.concatenate([
        enc.encode(table, wins),
        np.array([word_features(toks[j]) for toks, j in tokens],
                 dtype=np.float32).reshape(len(tokens), 10),
        np.array([extended_features(toks, j, resources) for toks, j in tokens],
                 dtype=np.float32).reshape(len(tokens), width - 12)], axis=1)
    assert out.dtype == np.float32 and out.shape == (len(tokens), width)
    assert out.tobytes() == ref.tobytes()


ROW_WORDS = [f"w{k}" for k in range(8)] + ["W3", "@w", "12", "oov"]
ROW_RESOURCES = ResourceBundle(
    brown_clusters={w: format(k, "04b") for k, w in enumerate(ROW_WORDS[:8])},
    tag_dictionary={w: {"T0": 1, "T1": k} for k, w in enumerate(ROW_WORDS[:8])},
    name_lists=[frozenset(ROW_WORDS[:3])],
    char_ngrams={"w1": 0, "w2": 1, "w3": 2, "@w": 3})


def row_tagger(token_dim=2):
    enc = FfnEncoder(4, 1, token_dim=token_dim, hidden=4, rng=rng_mod.stream(43, "init"))
    return Tagger(TaggerConfig(window=1, hidden=4, word_features=True, extended=True),
                  TAGSET, big_table(dim=4), [enc], ROW_RESOURCES, rng_mod.stream(44, "init"))


def test_predict_corpus_builds_each_string_row_once(monkeypatch):
    # strings repeat across at least three tagging blocks; each string's word
    # block and center block are built once, in the block that first holds it
    from tokembed import features
    monkeypatch.setattr("tokembed.tagger.ENCODE_BLOCK", 6)
    rng = rng_mod.stream(42, "data")
    sentences = [[ROW_WORDS[int(k)] for k in rng.integers(0, len(ROW_WORDS), size=n)]
                 for n in (3, 4, 2, 5, 3, 4, 1, 6)]
    model = row_tagger()
    built, blocks = [], []
    for name in ("_word_block", "_center_block"):
        monkeypatch.setattr(features, name, lambda word, res, f=getattr(features, name):
                            built.append(word) or f(word, res))
    features_of = Tagger.features
    monkeypatch.setattr(Tagger, "features",
                        lambda self, sents: blocks.append(sents) or features_of(self, sents))
    got = list(model.tag_corpus(sentences))
    def strings(sents):
        return {t for toks in sents for t in toks}

    distinct = strings(sentences)
    assert len(blocks) >= 3 and all(strings(blocks[0]) & strings(b) for b in blocks[1:])
    assert sorted(built) == sorted(2 * list(distinct))
    assert len(model.strings.words) == len(distinct) + 1
    # the same tags as a fresh model per sentence, which builds its rows again
    for toks, tags in zip(sentences, got):
        assert row_tagger().tag_sentence(toks) == tags


def test_training_inputs_grow_by_the_codes_and_ids_per_token():
    # four times the training tokens over the same strings: the traced peak
    # grows by the token embeddings (256 float32) and a few int64 ids per
    # token, not by the word-shape and extended columns of its input row
    import tracemalloc
    rng = rng_mod.stream(45, "data")
    base = [([ROW_WORDS[int(k)] for k in rng.integers(0, len(ROW_WORDS), size=10)],
             rng.integers(0, len(TAGSET), size=10)) for _ in range(60)]
    cfg = FitConfig(epochs=1, batch_size=64, learning_rate=0.01, momentum=0.9, seed=46)

    def peak(copies):
        model = row_tagger(token_dim=256)
        tracemalloc.start()
        try:
            train_tagger(model, base * copies, base[:5], cfg)
            return tracemalloc.get_traced_memory()[1], model
        finally:
            tracemalloc.stop()

    (small, model), (large, _) = peak(1), peak(4)
    per_token = (large - small) / (3 * 600)
    # the per-string columns, kept per token, would add more than the margin
    assert (model.input_dim - sum(model.widths[:2])) * 4 > 4 * 16 * 8
    assert per_token <= 256 * 4 + 16 * 8, per_token


def test_empty_input_rejected():
    table = big_table()
    with pytest.raises(ValueError):
        Tagger(TaggerConfig(window=0, omit_center=True, hidden=8), TAGSET, table)


def test_extended_requires_resources():
    table = big_table()
    with pytest.raises(ValueError):
        Tagger(TaggerConfig(window=0, hidden=8, extended=True), TAGSET, table)


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        TaggerConfig(window=-1)


def test_encoder_dim_mismatch():
    table = big_table(dim=4)
    enc = FfnEncoder(100, 1, token_dim=8, hidden=8)
    with pytest.raises(ValueError):
        Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table, encoders=[enc])


# -- rule corpus: tag fully determined by the center type ------------------------


def rule_corpus(seed=21, n_words=30, n_sentences=500, n_val=60):
    rng = rng_mod.stream(seed, "data")
    words = [f"v{k}" for k in range(n_words)]
    tag_of = {w: k % len(TAGSET) for k, w in enumerate(words)}
    table = toy_embedding_table(words, 8, rng)

    def make(n):
        out = []
        for _ in range(n):
            toks = [words[rng.integers(n_words)]
                    for _ in range(int(rng.integers(3, 8)))]
            out.append((toks, np.array([tag_of[t] for t in toks])))
        return out

    return table, make(n_sentences), make(n_val)


def test_rule_corpus_training_and_heldout():
    table, train, val = rule_corpus()
    model = Tagger(TaggerConfig(window=0, hidden=32), TAGSET, table,
                   rng=rng_mod.stream(21, "init"))
    cfg = FitConfig(epochs=50, batch_size=32, learning_rate=0.05, momentum=0.9, seed=21,
                    patience=50)
    train_tagger(model, train, val, cfg)
    train_acc = tagging_accuracy([model.tag_ids(t) for t, _ in train],
                                 [g for _, g in train])
    held_acc = tagging_accuracy([model.tag_ids(t) for t, _ in val],
                                [g for _, g in val])
    assert train_acc >= 99.0
    assert held_acc >= 95.0


def test_zero_learning_rate_fixed_point():
    table, train, val = rule_corpus(n_sentences=20, n_val=5)
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(22, "init"))
    before = {k: v.copy() for k, v in model.params().items()}
    cfg = FitConfig(epochs=2, batch_size=8, learning_rate=0.0, momentum=0.9, seed=22)
    train_tagger(model, train, val, cfg)
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k


def test_empty_corpus_rejected():
    table, train, _ = rule_corpus(n_sentences=5, n_val=1)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)
    cfg = FitConfig(epochs=1, batch_size=64, learning_rate=0.1, momentum=0.9, seed=0)
    with pytest.raises(ValueError):
        train_tagger(model, train, [], cfg)
    with pytest.raises(ValueError):
        train_tagger(model, [], train, cfg)


def test_gold_tag_out_of_range_rejected():
    table, _, _ = rule_corpus(n_sentences=5, n_val=1)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)
    bad = [(["v0"], np.array([99]))]
    cfg = FitConfig(epochs=1, batch_size=64, learning_rate=0.1, momentum=0.9, seed=0)
    with pytest.raises(ValueError):
        train_tagger(model, bad, bad, cfg)


# -- structural invariants ----------------------------------------------------


def test_argmax_ties_break_to_lowest_id():
    table = big_table(dim=4)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)  # zero net
    assert list(model.tag_ids(["w0", "w1"])) == [0, 0]
    assert model.tag_sentence(["w0", "w1"]) == ["T0", "T0"]


def test_tagging_deterministic():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(23, "init"))
    toks = train[0][0]
    assert np.array_equal(model.tag_ids(toks), model.tag_ids(toks))


def test_prediction_locality():
    # editing a token outside the union of the type window and the encoder
    # window around position j cannot change the prediction at j
    table = big_table(seed=24, n_words=10, dim=6)
    enc = FfnEncoder(6, 1, token_dim=4, hidden=8, rng=rng_mod.stream(24, "init"))
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   encoders=[enc], rng=rng_mod.stream(25, "init"))
    toks = ["w0", "w1", "w2", "w3", "w4", "w5"]
    edited = list(toks)
    edited[5] = "w9"  # distance 3 from position 2 > max radius 1
    assert model.tag_ids(toks)[2] == model.tag_ids(edited)[2]


def test_frozen_encoder_parameters_untouched_by_training():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    enc = FfnEncoder(8, 1, token_dim=4, hidden=8, rng=rng_mod.stream(26, "init"))
    frozen = {k: v.copy() for k, v in enc.params().items()}
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table,
                   encoders=[enc], rng=rng_mod.stream(27, "init"))
    cfg = FitConfig(epochs=3, batch_size=8, learning_rate=0.05, momentum=0.9, seed=26)
    train_tagger(model, train, val, cfg)
    for k, v in enc.params().items():
        assert np.array_equal(v, frozen[k]), k


def test_table_untouched_when_not_updating():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    before = table.vectors.copy()
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(28, "init"))
    cfg = FitConfig(epochs=3, batch_size=8, learning_rate=0.05, momentum=0.9, seed=28)
    train_tagger(model, train, val, cfg)
    assert np.array_equal(table.vectors, before)


def test_updating_moves_embeddings_but_not_reserved_rows():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    vocab = table.vocab
    before = table.vectors.copy()
    model = Tagger(TaggerConfig(window=1, hidden=8, update_embeddings=True,
                                anchor_weight=0.01), TAGSET, table,
                   rng=rng_mod.stream(29, "init"))
    cfg = FitConfig(epochs=5, batch_size=8, learning_rate=0.05, momentum=0.9, seed=29)
    train_tagger(model, train, val, cfg)
    assert np.array_equal(table.vectors, before)  # the source table is untouched
    assert not np.array_equal(model.adapted.full(), before)  # the reached rows trained
    for rid in (vocab.bos_id, vocab.eos_id, vocab.unk_id):
        assert np.array_equal(model.adapted.full()[rid], np.zeros(8, np.float32))


def test_update_embeddings_gradients_match_finite_differences():
    # w=0 keeps the padding rows out of the inputs, so only real rows carry
    # gradient; reserved rows are excluded from probing (they are pinned)
    from tokembed.nn import gradient_check
    from tokembed.tagger import batch_loss_and_grads

    rng = rng_mod.stream(36, "data")
    words = [f"v{k}" for k in range(6)]
    table = toy_embedding_table(words, 3, rng)
    table.vectors = table.vectors.astype(np.float64)
    model = Tagger(TaggerConfig(window=0, hidden=4, update_embeddings=True,
                                anchor_weight=0.05), TAGSET, table,
                   rng=rng_mod.stream(36, "init"), dtype=np.float64)
    for v in model.net.params().values():
        v += rng.normal(scale=0.05, size=v.shape)  # keep relu off its kinks
    model.adapted.add_rows(np.arange(6))
    model.adapted.vectors += rng.normal(scale=0.1, size=(6, 3))  # off the anchor
    corpus = [([words[int(rng.integers(6))] for _ in range(4)],
               rng.integers(0, len(TAGSET), size=4)) for _ in range(3)]
    inputs = model.features([toks for toks, _ in corpus])
    golds = np.concatenate([g for _, g in corpus])

    params = model.params()  # rows 0-5 of the table: probes mutate the model
    assert params["embeddings"] is model.adapted.vectors

    def loss_and_grads():
        return batch_loss_and_grads(model, inputs, golds)

    report = gradient_check(loss_and_grads, params, eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_seq2seq_encoder_features_train():
    table, train, val = rule_corpus(n_sentences=60, n_val=10)
    enc = Seq2SeqEncoder(8, 1, token_dim=4, rng=rng_mod.stream(37, "init"))
    model = Tagger(TaggerConfig(window=0, hidden=16), TAGSET, table,
                   encoders=[enc], rng=rng_mod.stream(38, "init"))
    cfg = FitConfig(epochs=15, batch_size=16, learning_rate=0.05, momentum=0.9, seed=37,
                    patience=10)
    res = train_tagger(model, train, val, cfg)
    assert res.best >= 80.0


def test_dropout_training_still_learns():
    table, train, val = rule_corpus(n_sentences=100, n_val=20)
    model = Tagger(TaggerConfig(window=0, hidden=32, dropout_input=0.2,
                                dropout_hidden=0.4), TAGSET, table,
                   rng=rng_mod.stream(30, "init"))
    cfg = FitConfig(epochs=30, batch_size=32, learning_rate=0.05, momentum=0.9, seed=30,
                    patience=10)
    res = train_tagger(model, train, val, cfg)
    assert res.best >= 80.0


def test_divergence_raises():
    table, train, val = rule_corpus(n_sentences=20, n_val=5)
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(39, "init"))
    cfg = FitConfig(epochs=3, batch_size=8, learning_rate=1e30, momentum=0.9, seed=39)
    with pytest.raises(TrainingDiverged):
        train_tagger(model, train, val, cfg)


# -- accuracy metric -------------------------------------------------------------


def test_accuracy_identical():
    assert tagging_accuracy([[1, 2, 3]], [[1, 2, 3]]) == 100.0


def test_accuracy_three_quarters():
    assert tagging_accuracy([[1, 2, 3, 4]], [[1, 2, 3, 9]]) == 75.0


def test_accuracy_random_is_chance():
    rng = rng_mod.stream(31, "data")
    pred = [rng.integers(0, 25, size=100) for _ in range(100)]
    gold = [rng.integers(0, 25, size=100) for _ in range(100)]
    acc = tagging_accuracy(pred, gold)
    assert 3.0 <= acc <= 5.0


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="different sentence counts: 1 predicted, 2 gold"):
        tagging_accuracy([[1, 2]], [[1, 2], [3]])
    with pytest.raises(ValueError, match="sentence length mismatch"):
        tagging_accuracy([[1, 2]], [[1, 2, 3]])


# -- IO ---------------------------------------------------------------------------


def test_tagged_corpus_round_trip(tmp_path):
    sents = [(["a", "b"], ["T0", "T1"]), (["c"], ["T2"])]
    path = tmp_path / "c.tags"
    save_tagged_corpus(sents, path)
    assert load_tagged_corpus(str(path)) == sents


def test_tagset_loader(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("A\nB\nC\n", encoding="utf-8")
    assert load_tagset(str(path)) == ["A", "B", "C"]
    path.write_text("A\nA\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tagset(str(path))


def test_corpus_tag_ids_rejects_unknown_tag():
    with pytest.raises(ValueError, match="ZZZ"):
        corpus_tag_ids([(["a"], ["ZZZ"])], ["A", "B"])


def test_save_load_round_trip(tmp_path):
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    enc = FfnEncoder(8, 1, token_dim=4, hidden=8, rng=rng_mod.stream(33, "init"))
    model = Tagger(TaggerConfig(window=1, hidden=8, word_features=True),
                   TAGSET, table, encoders=[enc], rng=rng_mod.stream(34, "init"))
    cfg = FitConfig(epochs=2, batch_size=8, learning_rate=0.05, momentum=0.9, seed=33)
    train_tagger(model, train, val, cfg)
    path = tmp_path / "tagger.bin"
    model.save(path)
    loaded = Tagger.load(str(path), table, encoders=[enc])
    toks = train[0][0]
    assert np.array_equal(loaded.tag_ids(toks), model.tag_ids(toks))
    for k, v in model.params().items():
        assert np.array_equal(loaded.params()[k], v)


def test_load_extended_model_needs_the_same_resources(tmp_path):
    table = big_table(dim=4)
    resources = ResourceBundle(brown_clusters={"w0": "01"}, tag_dictionary={},
                               name_lists=[frozenset({"w1"})], char_ngrams={})
    model = Tagger(TaggerConfig(window=0, hidden=4, extended=True), TAGSET, table,
                   resources=resources)
    path = tmp_path / "tagger.bin"
    model.save(path)
    assert Tagger.load(str(path), table, resources=resources).tagset == TAGSET
    fewer = ResourceBundle(brown_clusters={"w0": "01"}, tag_dictionary={},
                           name_lists=[], char_ngrams={})
    for other in (None, fewer):
        with pytest.raises(ValueError, match="resource bundle"):
            Tagger.load(str(path), table, resources=other)


def test_load_rejects_wrong_encoders(tmp_path):
    table, train, val = rule_corpus(n_sentences=10, n_val=2)
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(35, "init"))
    path = tmp_path / "tagger.bin"
    model.save(path)
    enc = FfnEncoder(8, 1, token_dim=4, hidden=8)
    with pytest.raises(ValueError, match="encoder"):
        Tagger.load(str(path), table, encoders=[enc])
