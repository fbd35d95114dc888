import numpy as np
import pytest

from tokembed import rng as rng_mod
from tokembed.encoder import FfnEncoder, Seq2SeqEncoder
from tokembed.features import (ResourceBundle, extended_feature_width,
                               extended_features, word_features)
from tokembed.nn import TrainingDiverged
from tokembed.synthetic import toy_embedding_table
from tokembed.tagger import (Tagger, TaggerConfig, TaggerTrainConfig,
                             corpus_tag_ids, load_tagged_corpus, load_tagset,
                             save_tagged_corpus, tagging_accuracy,
                             train_tagger)

TAGSET = ["T0", "T1", "T2", "T3", "T4"]


def big_table(seed=20, n_words=8, dim=100):
    rng = rng_mod.stream(seed, "data")
    return toy_embedding_table([f"w{k}" for k in range(n_words)], dim, rng)


# -- input composition --------------------------------------------------------


def input_rows(model, tokens):
    """The network input rows of one sentence, composed as training does."""
    return model.inputs(*model.features([tokens]))


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
    cfg = TaggerTrainConfig(epochs=50, batch_size=32, learning_rate=0.05,
                            momentum=0.9, patience=50, seed=21)
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
    cfg = TaggerTrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=22)
    train_tagger(model, train, val, cfg)
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k


def test_empty_corpus_rejected():
    table, train, _ = rule_corpus(n_sentences=5, n_val=1)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)
    with pytest.raises(ValueError):
        train_tagger(model, train, [], TaggerTrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train_tagger(model, [], train, TaggerTrainConfig(epochs=1))


def test_gold_tag_out_of_range_rejected():
    table, _, _ = rule_corpus(n_sentences=5, n_val=1)
    model = Tagger(TaggerConfig(window=0, hidden=8), TAGSET, table)
    bad = [(["v0"], np.array([99]))]
    with pytest.raises(ValueError):
        train_tagger(model, bad, bad, TaggerTrainConfig(epochs=1))


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
    cfg = TaggerTrainConfig(epochs=3, batch_size=8, learning_rate=0.05, seed=26)
    train_tagger(model, train, val, cfg)
    for k, v in enc.params().items():
        assert np.array_equal(v, frozen[k]), k


def test_table_untouched_when_not_updating():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    before = table.vectors.copy()
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(28, "init"))
    cfg = TaggerTrainConfig(epochs=3, batch_size=8, learning_rate=0.05, seed=28)
    train_tagger(model, train, val, cfg)
    assert np.array_equal(table.vectors, before)


def test_updating_moves_embeddings_but_not_reserved_rows():
    table, train, val = rule_corpus(n_sentences=30, n_val=5)
    vocab = table.vocab
    before = table.vectors.copy()
    model = Tagger(TaggerConfig(window=1, hidden=8, update_embeddings=True,
                                anchor_weight=0.01), TAGSET, table,
                   rng=rng_mod.stream(29, "init"))
    cfg = TaggerTrainConfig(epochs=5, batch_size=8, learning_rate=0.05, seed=29)
    train_tagger(model, train, val, cfg)
    assert np.array_equal(table.vectors, before)  # the source table is untouched
    assert not np.array_equal(model.embeddings, before)  # the copy trained
    for rid in (vocab.bos_id, vocab.eos_id, vocab.unk_id):
        assert np.array_equal(model.embeddings[rid], np.zeros(8, np.float32))


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
    model.embeddings[:6] += rng.normal(scale=0.1, size=(6, 3))  # off the anchor
    corpus = [([words[int(rng.integers(6))] for _ in range(4)],
               rng.integers(0, len(TAGSET), size=4)) for _ in range(3)]
    wins, consts = model.features([toks for toks, _ in corpus])
    golds = np.concatenate([g for _, g in corpus])

    params = {k: v for k, v in model.params().items() if k != "embeddings"}
    params["embeddings"] = model.embeddings[:6]  # view: probes mutate the model

    def loss_and_grads():
        loss, grads = batch_loss_and_grads(model, wins, consts, golds)
        dense = np.zeros_like(model.embeddings)
        dense[grads["embeddings"].rows] = grads["embeddings"].values
        grads["embeddings"] = dense[:6]
        return loss, grads

    report = gradient_check(loss_and_grads, params, eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_seq2seq_encoder_features_train():
    table, train, val = rule_corpus(n_sentences=60, n_val=10)
    enc = Seq2SeqEncoder(8, 1, token_dim=4, rng=rng_mod.stream(37, "init"))
    model = Tagger(TaggerConfig(window=0, hidden=16), TAGSET, table,
                   encoders=[enc], rng=rng_mod.stream(38, "init"))
    cfg = TaggerTrainConfig(epochs=15, batch_size=16, learning_rate=0.05, seed=37)
    res = train_tagger(model, train, val, cfg)
    assert res.best_val_accuracy >= 80.0


def test_dropout_training_still_learns():
    table, train, val = rule_corpus(n_sentences=100, n_val=20)
    model = Tagger(TaggerConfig(window=0, hidden=32, dropout_input=0.2,
                                dropout_hidden=0.4), TAGSET, table,
                   rng=rng_mod.stream(30, "init"))
    cfg = TaggerTrainConfig(epochs=30, batch_size=32, learning_rate=0.05, seed=30)
    res = train_tagger(model, train, val, cfg)
    assert res.best_val_accuracy >= 80.0


def test_divergence_raises():
    table, train, val = rule_corpus(n_sentences=20, n_val=5)
    model = Tagger(TaggerConfig(window=1, hidden=8), TAGSET, table,
                   rng=rng_mod.stream(39, "init"))
    cfg = TaggerTrainConfig(epochs=3, batch_size=8, learning_rate=1e30, seed=39)
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
    cfg = TaggerTrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=33)
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
