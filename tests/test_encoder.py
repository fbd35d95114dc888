import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import rng as rng_mod
from tokembed.embeddings import windows
from tokembed.encoder import (EncoderTrainConfig, FfnEncoder, Seq2SeqEncoder,
                              WeightScheme, build_encoder, corpus_windows,
                              load_encoder, train_encoder, window_weights,
                              wre_loss, wre_value)
from tokembed.nn import TrainingDiverged, gradient_check
from tokembed.serialize import load_model, save_model
from tokembed.synthetic import template_corpus, toy_embedding_table


# -- windows -----------------------------------------------------------------


def ids_of(table, toks):
    return table.vocab.to_ids(toks)


def window_at(ids, j, w_prime, bos_id, eos_id):
    """The radius-``w_prime`` window of position ``j``, as an encoder reads it."""
    return windows(ids, np.arange(-w_prime, w_prime + 1), bos_id, eos_id)[j]


def test_extract_window_interior(abc_table):
    v = abc_table.vocab
    win = window_at(ids_of(abc_table, ["a", "b", "c"]), 1, 1, v.bos_id, v.eos_id)
    assert list(win) == [v.id_of("a"), v.id_of("b"), v.id_of("c")]


def test_extract_window_left_padding(abc_table):
    v = abc_table.vocab
    win = window_at(ids_of(abc_table, ["a", "b", "c"]), 0, 2, v.bos_id, v.eos_id)
    assert list(win) == [v.bos_id, v.bos_id, v.id_of("a"), v.id_of("b"), v.id_of("c")]


def test_extract_window_both_pads(abc_table):
    v = abc_table.vocab
    win = window_at(ids_of(abc_table, ["a"]), 0, 1, v.bos_id, v.eos_id)
    assert list(win) == [v.bos_id, v.id_of("a"), v.eos_id]


@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 7))
def test_extract_window_shape_and_center(n, w, j):
    j = min(j, n - 1)
    ids = np.arange(n)
    win = window_at(ids, j, w, 100, 101)
    assert len(win) == 2 * w + 1
    assert win[w] == ids[j]


# -- weighting schemes ---------------------------------------------------------


def test_uniform_weights():
    assert np.array_equal(window_weights(WeightScheme("uniform"), 2),
                          [1, 1, 1, 1, 1])


def test_focused_weights():
    assert np.array_equal(window_weights(WeightScheme("focused", 2.0), 1),
                          [1, 2, 1])
    assert np.array_equal(window_weights(WeightScheme("focused", 3.0), 2),
                          [1, 1, 3, 1, 1])


def test_tapered_weights():
    assert np.array_equal(window_weights(WeightScheme("tapered"), 3),
                          [1, 2, 3, 4, 3, 2, 1])
    assert np.array_equal(window_weights(WeightScheme("tapered"), 1), [3, 4, 3])
    assert np.array_equal(window_weights(WeightScheme("tapered"), 2),
                          [2, 3, 4, 3, 2])


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        WeightScheme("triangular")


@given(st.integers(1, 6))
def test_weights_strictly_positive(w):
    for scheme in (WeightScheme("uniform"), WeightScheme("focused", 2.0),
                   WeightScheme("tapered")):
        assert np.all(window_weights(scheme, w) > 0)


# -- feedforward encoder ---------------------------------------------------------


def test_ffn_encode_hand_case(abc_table):
    # effective single linear layer: identity relu hidden, then sum weights
    model = FfnEncoder(1, 1, token_dim=1, hidden=3)
    model.encoder.layers[0].W[:] = np.eye(3)
    model.encoder.layers[1].W[:] = [[1.0, 1.0, 1.0]]
    win = ids_of(abc_table, ["a", "b", "c"])  # embeddings 1, 2, 3
    assert np.allclose(model.encode(abc_table, win), [6.0])


def test_ffn_zero_parameters_encode_zero(toy_table):
    model = FfnEncoder(3, 1, token_dim=4, hidden=5)
    win = np.array([0, 1, 2])
    assert np.array_equal(model.encode(toy_table, win), np.zeros(4, np.float32))


def test_ffn_locality(toy_table):
    model = FfnEncoder(3, 1, token_dim=4, hidden=5, rng=rng_mod.stream(0, "init"))
    s1 = ids_of(toy_table, ["x0", "x1", "x2", "x3"])
    s2 = ids_of(toy_table, ["x5", "x1", "x2", "x3"])
    v = toy_table.vocab
    w1 = window_at(s1, 2, 1, v.bos_id, v.eos_id)
    w2 = window_at(s2, 2, 1, v.bos_id, v.eos_id)
    assert np.array_equal(model.encode(toy_table, w1), model.encode(toy_table, w2))


def test_ffn_table_dim_mismatch(toy_table):
    model = FfnEncoder(5, 1, token_dim=4, hidden=5)
    with pytest.raises(ValueError):
        model.encode(toy_table, np.array([0, 1, 2]))


# -- seq2seq encoder ----------------------------------------------------------


def test_seq2seq_zero_parameters_encode_zero(toy_table):
    model = Seq2SeqEncoder(3, 1, token_dim=4)
    assert np.array_equal(model.encode(toy_table, np.array([0, 1, 2])),
                          np.zeros(4, np.float32))


def test_seq2seq_single_step_equals_lstm_step(toy_table):
    model = Seq2SeqEncoder(3, 0, token_dim=4, rng=rng_mod.stream(1, "init"))
    win = np.array([2])
    code = model.encode(toy_table, win)
    h, _, _ = model.enc_cell.step(toy_table.vectors[2][None, :],
                                  *model.enc_cell.zero_state(1))
    assert np.allclose(code, h[0])


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
def test_encode_is_pure_function_of_window_ids(arch, toy_table):
    model = build_encoder(arch, 3, 1, token_dim=4, hidden=5,
                          rng=rng_mod.stream(2, "init"))
    win = np.array([4, 0, 3])
    assert np.array_equal(model.encode(toy_table, win),
                          model.encode(toy_table, win))
    assert np.array_equal(model.encode(toy_table, win),
                          model.encode(toy_table, win.copy()))


def test_seq2seq_order_sensitivity(toy_table):
    fwd = np.array([0, 1, 2])
    rev = fwd[::-1].copy()
    for seed in range(10):
        model = Seq2SeqEncoder(3, 1, token_dim=4, rng=rng_mod.stream(seed, "init"))
        a = model.encode(toy_table, fwd)
        b = model.encode(toy_table, rev)
        assert not np.allclose(a, b), f"seed {seed} produced order-invariant codes"


# -- weighted reconstruction error ------------------------------------------------


def test_wre_zero_at_perfect_reconstruction():
    targets = np.arange(6, dtype=np.float64).reshape(1, 3, 2)
    assert wre_value(targets.copy(), targets, [1, 2, 1]) == 0.0


def test_wre_hand_case():
    rec = np.zeros((1, 3, 1))
    targets = np.array([[[1.0], [2.0], [1.0]]])
    assert wre_value(rec, targets, [1, 2, 1]) == 10.0


# values rounded to 6 decimals keep any nonzero squared difference well above
# the underflow threshold, so "zero iff exact" is observable in float64
@given(st.lists(st.floats(-5, 5).map(lambda x: round(x, 6)),
                min_size=6, max_size=6),
       st.lists(st.floats(-5, 5).map(lambda x: round(x, 6)),
                min_size=6, max_size=6))
def test_wre_nonnegative_and_zero_iff_exact(rec_vals, tgt_vals):
    rec = np.array(rec_vals).reshape(1, 3, 2)
    tgt = np.array(tgt_vals).reshape(1, 3, 2)
    v = wre_value(rec, tgt, [1.0, 2.0, 1.0])
    assert v >= 0.0
    if np.array_equal(rec, tgt):
        assert v == 0.0
    if v == 0.0:
        assert np.array_equal(rec, tgt)


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
def test_wre_gradients_pass_check(arch):
    rng = rng_mod.stream(3, "init")
    table = toy_embedding_table([f"v{k}" for k in range(6)], 3, rng)
    table.vectors = table.vectors.astype(np.float64)
    model = build_encoder(arch, 3, 1, token_dim=4, hidden=5, rng=rng,
                          dtype=np.float64)
    windows = np.array([[0, 1, 2], [3, 4, 5]])
    weights = window_weights(WeightScheme("tapered"), 1)
    report = gradient_check(lambda: wre_loss(model, table, windows, weights),
                            model.params(), eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
def test_wre_weight_doubling_doubles_loss_and_grads(arch, toy_table):
    model = build_encoder(arch, 3, 1, token_dim=4, hidden=5,
                          rng=rng_mod.stream(4, "init"))
    windows = np.array([[0, 1, 2], [3, 4, 5]])
    w1 = window_weights(WeightScheme("focused", 2.0), 1)
    loss1, g1 = wre_loss(model, toy_table, windows, w1)
    loss2, g2 = wre_loss(model, toy_table, windows, 2.0 * w1)
    assert loss2 == 2.0 * loss1
    for k in g1:
        assert np.array_equal(g2[k], 2.0 * g1[k])


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
def test_encode_decode_compose_equals_wre(arch, toy_table):
    model = build_encoder(arch, 3, 1, token_dim=4, hidden=5,
                          rng=rng_mod.stream(5, "init"))
    windows = np.array([[0, 1, 2], [3, 4, 5]])
    weights = window_weights(WeightScheme("focused", 2.0), 1)
    codes = model.encode(toy_table, windows)
    rec = model.decode(codes)
    manual = wre_value(rec, toy_table.vectors[windows], weights)
    loss, _ = wre_loss(model, toy_table, windows, weights)
    assert abs(loss - manual) <= 1e-12


def test_decode_window_zero_decoder(toy_table):
    model = FfnEncoder(3, 1, token_dim=4, hidden=5, rng=rng_mod.stream(6, "init"))
    for layer in model.decoder.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    rec = model.decode(model.encode(toy_table, np.array([[0, 1, 2]])))
    assert rec.shape == (1, 3, 3)
    assert np.array_equal(rec, np.zeros_like(rec))


def test_wre_weight_length_mismatch(toy_table):
    model = FfnEncoder(3, 1, token_dim=4, hidden=5)
    with pytest.raises(ValueError):
        wre_loss(model, toy_table, np.array([[0, 1, 2]]), [1.0, 2.0])


# -- training loop ---------------------------------------------------------------


def corpus_fixture(seed=7, n=40):
    data_rng = rng_mod.stream(seed, "data")
    words, sentences = template_corpus(data_rng, n_sentences=n, vocab_size=12,
                                       n_templates=5, length=4)
    table = toy_embedding_table(words, 4, data_rng)
    return table, sentences[: n - 8], sentences[n - 8:]


def test_train_encoder_empty_validation_rejected():
    table, train, _ = corpus_fixture()
    model = FfnEncoder(4, 1, token_dim=3, hidden=8)
    with pytest.raises(ValueError):
        train_encoder(model, table, train, [], WeightScheme("focused", 2.0),
                      EncoderTrainConfig(epochs=1))


def test_train_encoder_zero_learning_rate_is_identity():
    table, train, val = corpus_fixture()
    model = FfnEncoder(4, 1, token_dim=3, hidden=8, rng=rng_mod.stream(8, "init"))
    before = {k: v.copy() for k, v in model.params().items()}
    cfg = EncoderTrainConfig(epochs=1, batch_size=8, learning_rate=0.0, seed=8)
    train_encoder(model, table, train, val, WeightScheme("focused", 2.0), cfg)
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k


def test_train_encoder_improves_and_selects_best():
    table, train, val = corpus_fixture()
    model = FfnEncoder(4, 1, token_dim=3, hidden=16, rng=rng_mod.stream(9, "init"))
    cfg = EncoderTrainConfig(epochs=10, batch_size=8, learning_rate=0.02,
                             momentum=0.9, val_every=5, seed=9)
    res = train_encoder(model, table, train, val, WeightScheme("focused", 2.0), cfg)
    assert res.best_val_wre < res.initial_val_wre
    # monotone selection: the returned best is <= every checkpoint
    assert all(res.best_val_wre <= wre + 1e-12 for _, wre in res.history)
    assert res.final_val_wre == pytest.approx(res.best_val_wre, rel=1e-6)


def test_train_encoder_divergence_raises():
    table, train, val = corpus_fixture()
    model = FfnEncoder(4, 1, token_dim=3, hidden=8, rng=rng_mod.stream(10, "init"))
    cfg = EncoderTrainConfig(epochs=3, batch_size=4, learning_rate=1e14, seed=10)
    with pytest.raises(TrainingDiverged):
        train_encoder(model, table, train, val, WeightScheme("focused", 2.0), cfg)


def test_corpus_windows_counts(toy_table):
    sents = [["x0", "x1"], ["x2"]]
    wins = corpus_windows(toy_table, sents, 1)
    assert wins.shape == (3, 3)


# -- serialization -----------------------------------------------------------------


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
def test_encoder_save_load_bit_exact(arch, toy_table, tmp_path):
    model = build_encoder(arch, 3, 2, token_dim=4, hidden=6,
                          rng=rng_mod.stream(11, "init"))
    scheme = WeightScheme("tapered")
    path = tmp_path / "enc.bin"
    model.save(path, scheme)
    loaded, loaded_scheme = load_encoder(str(path))
    assert loaded_scheme == scheme
    for k, v in model.params().items():
        assert np.array_equal(loaded.params()[k], v)
    win = np.array([0, 1, 2, 3, 4])
    assert np.array_equal(model.encode(toy_table, win),
                          loaded.encode(toy_table, win))


def test_build_encoder_unknown_arch():
    with pytest.raises(ValueError):
        build_encoder("transformer", 4, 1)


@pytest.mark.parametrize("arch, sizes", [
    ("ffn", {"dim": 0}), ("ffn", {"token_dim": -1}), ("ffn", {"hidden": 0}),
    ("seq2seq", {"dim": -3}), ("seq2seq", {"token_dim": 0}),
])
def test_build_encoder_rejects_non_positive_sizes(arch, sizes):
    args = {"dim": 3, "token_dim": 4, "hidden": 5, **sizes}
    (name, value), = sizes.items()
    with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
        build_encoder(arch, args["dim"], 1, args["token_dim"], args["hidden"])


@pytest.mark.parametrize("field, value, message", [
    ("token_dim", 10 ** 9, "config.token_dim: tensor 'enc.bi' has shape (4,)"),
    ("token_dim", -4, "config.token_dim: tensor 'enc.bi' has shape (4,)"),
    ("dim", 10 ** 9, "config.dim: tensor 'proj.b' has shape (3,)"),
])
def test_seq2seq_header_size_checked_against_tensors(tmp_path, field, value, message):
    path = tmp_path / "enc.bin"
    build_encoder("seq2seq", 3, 1, token_dim=4).save(path)
    kind, config, tensors = load_model(path)
    config[field] = value
    save_model(path, kind, config, tensors)
    with pytest.raises(ValueError) as err:
        load_encoder(str(path))
    assert str(err.value).startswith(f"{path}: {message}")
