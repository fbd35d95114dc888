"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is property- or oracle-based on
synthetic desk-scale data; no external corpora or resources are needed.
"""

import functools
import math
import time

import numpy as np
import pytest

from tokembed import rng as rng_mod
from tokembed.analysis import (export_embeddings_tsv, index_corpus,
                               load_embeddings_tsv, nearest_neighbors)
from tokembed.cli import main as cli_main
from tokembed.embeddings import (load_word2vec_text, save_corpus,
                                 save_word2vec_text)
from tokembed.encoder import (FfnEncoder, WeightScheme, build_encoder,
                              load_encoder, train_encoder, window_weights, wre_value)
from tokembed.features import pair_features, word_features
from tokembed.nn import MLP, FitConfig, gradient_check, softmax_logloss
from tokembed.parser import (DepSentence, Parser, ParserConfig, arc_loss,
                             attachment_f1, candidate_heads, save_dep_corpus,
                             train_parser)
from tokembed.synthetic import (SENSE_PIVOT, TAG_PIVOT, chain_dep_corpus,
                                pivot_tag_corpus, template_corpus,
                                toy_embedding_table, two_sense_corpus)
from tokembed.tagger import (Tagger, TaggerConfig, corpus_tag_ids,
                             save_tagged_corpus, train_tagger)

from test_features import CANONICAL, reference_pair_features


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num} ({name}): FAIL")
                raise
            print(f"CRITERION {num} ({name}): PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Gradient integrity: every loss family passes the finite-difference check
#    at relative tolerance 1e-4 (float64, eps=1e-5) over 20 random configs.
# ---------------------------------------------------------------------------


def _jitter(params, rng):
    """Nudge every parameter off zero so no relu preactivation sits exactly
    at its kink (zero biases make a fully dead layer feed an exact zero into
    the next, where the loss is not differentiable)."""
    for v in params.values():
        v += rng.normal(scale=0.05, size=v.shape)


def _check_encoder_wre(arch, seed):
    rng = rng_mod.stream(seed, "init")
    dims = rng_mod.stream(seed, "data")
    d = int(dims.integers(2, 5))
    d_tok = int(dims.integers(2, 5))
    hidden = int(dims.integers(3, 9))
    w_prime = int(dims.integers(1, 3))
    table = toy_embedding_table([f"v{k}" for k in range(8)], d, dims)
    table.vectors = table.vectors.astype(np.float64)
    model = build_encoder(arch, d, w_prime, token_dim=d_tok, hidden=hidden,
                          rng=rng, dtype=np.float64)
    _jitter(model.params(), dims)
    windows = dims.integers(0, 8, size=(2, 2 * w_prime + 1))
    weights = window_weights(WeightScheme("tapered"), w_prime)
    return gradient_check(lambda: model.loss_and_grads(table, windows, weights),
                          model.params(), eps=1e-5, tol=1e-4)


def _check_tagger_logloss(seed):
    rng = rng_mod.stream(seed, "init")
    dims = rng_mod.stream(seed, "data")
    d_in = int(dims.integers(2, 9))
    hidden = int(dims.integers(3, 9))
    classes = int(dims.integers(2, 9))
    net = MLP([d_in, hidden, hidden, classes], ["relu", "relu", "linear"],
              rng, np.float64)
    _jitter(net.params(), dims)
    X = dims.normal(size=(3, d_in))
    gold = dims.integers(0, classes, size=3)

    def loss_and_grads():
        logits, cache = net.forward(X)
        total = 0.0
        dlogits = np.zeros_like(logits)
        for b in range(3):
            loss, g = softmax_logloss(logits[b], int(gold[b]))
            total += loss
            dlogits[b] = g
        _, grads = net.backward(dlogits, cache)
        return total, grads

    return gradient_check(loss_and_grads, net.params(), eps=1e-5, tol=1e-4)


def _check_parser_arcloss(seed):
    rng = rng_mod.stream(seed, "init")
    dims = rng_mod.stream(seed, "data")
    d_in = int(dims.integers(2, 9))
    hidden = int(dims.integers(3, 9))
    n_cands = int(dims.integers(2, 7))
    net = MLP([d_in, hidden, hidden, 1], ["relu", "relu", "linear"],
              rng, np.float64)
    _jitter(net.params(), dims)
    X = dims.normal(size=(n_cands, d_in))
    gold = int(dims.integers(0, n_cands))

    def loss_and_grads():
        scores, cache = net.forward(X)
        loss, dsc = arc_loss(scores[:, 0], gold)
        _, grads = net.backward(dsc[:, None], cache)
        return loss, grads

    return gradient_check(loss_and_grads, net.params(), eps=1e-5, tol=1e-4)


@criterion(1, "gradient integrity")
def test_criterion_1_gradient_integrity():
    start = time.time()
    for seed in range(20):
        for arch in ("ffn", "seq2seq"):
            report = _check_encoder_wre(arch, seed)
            assert report.ok, (arch, seed, report.failures[:3])
        report = _check_tagger_logloss(seed)
        assert report.ok, ("tagger", seed, report.failures[:3])
        report = _check_parser_arcloss(seed)
        assert report.ok, ("parser", seed, report.failures[:3])
    assert time.time() - start < 120.0


# ---------------------------------------------------------------------------
# 2. Loss oracles
# ---------------------------------------------------------------------------


@criterion(2, "loss oracles")
def test_criterion_2_loss_oracles():
    # WRE vanishes at perfect reconstruction
    targets = np.random.default_rng(0).normal(size=(3, 5, 4))
    assert wre_value(targets.copy(), targets, np.ones(5)) == 0.0

    # uniform log loss over 25 classes
    loss, _ = softmax_logloss(np.zeros(25), 11)
    assert abs(loss - math.log(25)) < 1e-9

    # uniform arc loss over K candidates
    for k in (2, 3, 7, 12):
        loss, _ = arc_loss(np.zeros(k), k - 1)
        assert abs(loss - math.log(k)) < 1e-9

    # per-child constant shifts change neither the loss nor the argmax head
    rng = np.random.default_rng(1)
    for _ in range(20):
        scores = rng.normal(size=rng.integers(2, 9))
        gold = int(rng.integers(0, len(scores)))
        shift = float(rng.normal() * 50)
        l1, _ = arc_loss(scores, gold)
        l2, _ = arc_loss(scores + shift, gold)
        assert abs(l1 - l2) < 1e-9
        assert np.argmax(scores) == np.argmax(scores + shift)


# ---------------------------------------------------------------------------
# 3. Feature exactness
# ---------------------------------------------------------------------------


@criterion(3, "feature exactness")
def test_criterion_3_feature_exactness():
    assert len(CANONICAL) >= 200
    for token, expected in CANONICAL:
        want = np.zeros(10, dtype=np.float32)
        if expected is not None:
            want[expected] = 1.0
        assert np.array_equal(word_features(token), want), token
    for n in range(1, 9):
        for i in range(1, n + 1):
            for j in range(0, n + 1):
                if i == j:
                    continue
                assert np.array_equal(pair_features(i, j, n),
                                      reference_pair_features(i, j, n))


# ---------------------------------------------------------------------------
# 4. Encoder learning: reconstruction collapses on the template corpus
# ---------------------------------------------------------------------------


@criterion(4, "encoder learning")
def test_criterion_4_encoder_learning():
    start = time.time()
    seed = 7
    data_rng = rng_mod.stream(seed, "data")
    words, sentences = template_corpus(data_rng, n_sentences=120, vocab_size=20,
                                       n_templates=8, length=5)
    train, val = sentences[:100], sentences[100:]
    table = toy_embedding_table(words, 8, data_rng)
    model = FfnEncoder(8, 1, token_dim=4, hidden=64, rng=rng_mod.stream(seed, "init"))
    cfg = FitConfig(epochs=50, batch_size=16, learning_rate=0.02, momentum=0.9, seed=seed)
    res = train_encoder(model, table, train, val, WeightScheme("focused", 2.0), cfg)
    initial = res.history[0][2]
    assert res.best <= 0.10 * initial, (initial, res.best)
    assert time.time() - start < 300.0


# ---------------------------------------------------------------------------
# 5. Sense separation: pivot tokens from two disjoint context templates
#    cluster by template in embedding space
# ---------------------------------------------------------------------------


@criterion(5, "sense separation")
def test_criterion_5_sense_separation():
    seed = 11
    data_rng = rng_mod.stream(seed, "data")
    words, examples = two_sense_corpus(data_rng, n_per_sense=150, n_context=6,
                                       length=5)
    train_ex, held_ex = examples[:240], examples[240:]
    table = toy_embedding_table(words, 8, data_rng)
    model = FfnEncoder(8, 1, token_dim=8, hidden=32, rng=rng_mod.stream(seed, "init"))
    cfg = FitConfig(epochs=20, batch_size=16, learning_rate=0.02, momentum=0.9, seed=seed)
    train_sents = [toks for toks, _, _ in train_ex]
    train_encoder(model, table, train_sents, [toks for toks, _, _ in held_ex],
                  WeightScheme("focused", 2.0), cfg)

    index = index_corpus(model, table, train_sents, type_filter={SENSE_PIVOT})
    sense_of = [sense for _, sense, _ in train_ex]
    queries = index_corpus(model, table, [toks for toks, _, _ in held_ex],
                           type_filter={SENSE_PIVOT})

    one_nn_hits = 0
    shared = 0
    total = 0
    for q, (_, sense, _) in zip(queries.codes, held_ex):
        neighbors = nearest_neighbors(q, index.codes, k=4)
        one_nn_hits += sense_of[index.sentence[neighbors[0][0]]] == sense
        for row, _ in neighbors:
            total += 1
            shared += sense_of[index.sentence[row]] == sense
    assert 100.0 * one_nn_hits / len(queries) >= 95.0
    assert 100.0 * shared / total >= 95.0


# ---------------------------------------------------------------------------
# 6. Tagging gains from token embeddings: a center-word-only baseline sits at
#    chance on pivots whose tag lives in the left neighbor, while the same
#    tagger plus a w'=1 token embedding solves them
# ---------------------------------------------------------------------------


@criterion(6, "tagging gains from token embeddings")
def test_criterion_6_tagging_gains():
    seed = 13
    data_rng = rng_mod.stream(seed, "data")
    words, tagset, sentences, _ = pivot_tag_corpus(data_rng, n_sentences=400)
    table = toy_embedding_table(words, 8, data_rng)
    corpus = corpus_tag_ids(sentences, tagset)
    train, val = corpus[:300], corpus[300:]

    enc = FfnEncoder(8, 1, token_dim=8, hidden=32, rng=rng_mod.stream(seed, "init"))
    ecfg = FitConfig(epochs=10, batch_size=16, learning_rate=0.02, momentum=0.9,
                     seed=seed)
    train_encoder(enc, table, [t for t, _ in train], [t for t, _ in val],
                  WeightScheme("focused", 3.0), ecfg)

    def pivot_accuracy(model):
        hits = total = 0
        for toks, gold in val:
            pred = model.tag_ids(toks)
            for j, tok in enumerate(toks):
                if tok == TAG_PIVOT:
                    total += 1
                    hits += pred[j] == gold[j]
        return 100.0 * hits / total

    tcfg = FitConfig(epochs=40, batch_size=32, learning_rate=0.05, momentum=0.9,
                     seed=seed, patience=10)
    baseline = Tagger(TaggerConfig(window=0, hidden=32), tagset, table,
                      rng=rng_mod.stream(seed + 1, "init"))
    train_tagger(baseline, train, val, tcfg)
    token_tagger = Tagger(TaggerConfig(window=0, hidden=32), tagset, table,
                          encoders=[enc], rng=rng_mod.stream(seed + 2, "init"))
    train_tagger(token_tagger, train, val, tcfg)

    chance = 100.0 / len(("A", "B"))
    base_acc = pivot_accuracy(baseline)
    token_acc = pivot_accuracy(token_tagger)
    assert abs(base_acc - chance) <= 10.0, base_acc
    assert token_acc >= 95.0, token_acc


# ---------------------------------------------------------------------------
# 7. Parser oracles
# ---------------------------------------------------------------------------


@criterion(7, "parser oracles")
def test_criterion_7_parser_oracles():
    start = time.time()

    # predict_heads equals an exhaustive per-candidate scan, 100 random seeds
    table = toy_embedding_table([f"t{k}" for k in range(10)], 4,
                                rng_mod.stream(0, "data"))
    for seed in range(100):
        model = Parser(ParserConfig(window=1, hidden=6), table,
                       rng=rng_mod.stream(seed, "init"))
        rng = rng_mod.stream(seed, "data")
        n = int(rng.integers(1, 7))
        selected = [bool(rng.random() < 0.85) for _ in range(n)]
        if not any(selected):
            selected[0] = True
        heads = [-1 if not sel else 0 for sel in selected]
        sent = DepSentence([f"t{rng.integers(10)}" for _ in range(n)],
                           heads, selected)
        expected = [-1] * n
        for i in range(1, n + 1):
            if not selected[i - 1]:
                continue
            cands = candidate_heads(sent, i)
            scores = [model.arc_score(sent, i, j) for j in cands]
            best, best_score = cands[0], scores[0]
            for j, s in zip(cands[1:], scores[1:]):
                if s > best_score:
                    best, best_score = j, s
            expected[i - 1] = best
        assert model.predict_heads([sent])[0] == expected, seed

    # attachment F1 equals a brute-force set computation on random instances
    rng = rng_mod.stream(1, "data")
    for _ in range(50):
        def random_corpus():
            out = []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 6))
                selected = [bool(rng.random() < 0.8) for _ in range(n)]
                heads = []
                for k in range(n):
                    if not selected[k]:
                        heads.append(-1)
                        continue
                    options = [0] + [j for j in range(1, n + 1)
                                     if j != k + 1 and selected[j - 1]]
                    heads.append(int(options[rng.integers(len(options))]))
                out.append(DepSentence([f"t{k}" for k in range(n)], heads, selected))
            return out

        gold = random_corpus()
        pred = [DepSentence(
            s.tokens,
            [h if rng.random() < 0.7 else (-1 if not sel else 0)
             for h, sel in zip(s.heads, s.selected)],
            list(s.selected)) for s in gold]

        def arcs(sents):
            return {(si, k + 1, s.heads[k]) for si, s in enumerate(sents)
                    for k in range(len(s)) if s.selected[k] and s.heads[k] >= 0}

        p, r, f1 = attachment_f1(pred, gold)
        inter = arcs(pred) & arcs(gold)
        exp_p = 100 * len(inter) / len(arcs(pred)) if arcs(pred) else 0.0
        exp_r = 100 * len(inter) / len(arcs(gold)) if arcs(gold) else 0.0
        assert p == pytest.approx(exp_p) and r == pytest.approx(exp_r)

    # the positional-rule corpus trains to F1 >= 95 within 100 epochs
    seed = 17
    data_rng = rng_mod.stream(seed, "data")
    words, sents = chain_dep_corpus(data_rng, n_sentences=250, max_len=6)
    train, val = sents[:200], sents[200:]
    dep_table = toy_embedding_table(words, 8, data_rng)
    model = Parser(ParserConfig(window=0, hidden=32), dep_table,
                   rng=rng_mod.stream(seed, "init"))
    cfg = FitConfig(epochs=100, batch_size=8, learning_rate=0.05, momentum=0.9, seed=seed,
                    patience=100)
    train_parser(model, train, val, cfg)
    pred = [DepSentence(s.tokens, heads, list(s.selected))
            for s, heads in zip(train, model.predict_heads(train))]
    f1 = attachment_f1(pred, train)[2]
    assert f1 >= 95.0, f1
    assert time.time() - start < 600.0


# ---------------------------------------------------------------------------
# 8. Determinism: rerunning any training command with the same seed yields
#    bit-identical model files and metric JSON
# ---------------------------------------------------------------------------


def _cli(capsys, *argv):
    code = cli_main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@criterion(8, "determinism")
def test_criterion_8_determinism(tmp_path, capsys):
    root = tmp_path
    rng = rng_mod.stream(19, "data")
    words, tagset, sentences, _ = pivot_tag_corpus(rng, n_sentences=30)
    dep_words, dep_sents = chain_dep_corpus(rng, n_sentences=16, max_len=4)
    table = toy_embedding_table(words + dep_words, 6, rng)
    save_word2vec_text(table, root / "emb.txt")
    save_corpus([t for t, _ in sentences[:20]], root / "train.txt")
    save_corpus([t for t, _ in sentences[20:]], root / "val.txt")
    save_tagged_corpus(sentences[:20], root / "train.tags")
    save_tagged_corpus(sentences[20:], root / "val.tags")
    (root / "tagset.txt").write_text("\n".join(tagset) + "\n", encoding="utf-8")
    save_dep_corpus(dep_sents[:12], root / "train.dep")
    save_dep_corpus(dep_sents[12:], root / "val.dep")

    def two_runs(command, out_name, *extra):
        outs = []
        for run_id in (1, 2):
            out = root / f"{out_name}.{run_id}"
            stdout = _cli(capsys, command, "--embeddings", root / "emb.txt",
                          *extra, "--out", out, "--seed", 3)
            # the two runs write to different paths by construction; blank the
            # path echoes so everything else must match byte for byte
            stdout = stdout.replace(str(out), "OUT")
            outs.append((out.read_bytes(), stdout))
        assert outs[0][0] == outs[1][0], f"{command} model bytes differ"
        assert outs[0][1] == outs[1][1], f"{command} metric JSON differs"

    two_runs("train-encoder", "enc.bin",
             "--train", root / "train.txt", "--val", root / "val.txt",
             "--w-prime", 1, "--token-dim", 4, "--hidden", 8,
             "--epochs", 2, "--batch-size", 8, "--lr", 0.02)
    two_runs("train-tagger", "tagger.bin",
             "--train", root / "train.tags", "--val", root / "val.tags",
             "--tagset", root / "tagset.txt", "--window", 1, "--hidden", 8,
             "--epochs", 3, "--batch-size", 8, "--lr", 0.05,
             "--dropout-input", 0.2, "--dropout-hidden", 0.4)
    two_runs("train-parser", "parser.bin",
             "--train", root / "train.dep", "--val", root / "val.dep",
             "--window", 0, "--hidden", 8, "--epochs", 3,
             "--batch-size", 4, "--lr", 0.05)


# ---------------------------------------------------------------------------
# 9. IO round trips
# ---------------------------------------------------------------------------


@criterion(9, "io round trips")
def test_criterion_9_io_round_trips(tmp_path):
    rng = rng_mod.stream(23, "data")

    # word2vec text: save -> load within 1e-5 per coordinate
    table = toy_embedding_table([f"w{k}" for k in range(12)], 6, rng)
    save_word2vec_text(table, tmp_path / "emb.txt")
    reloaded = load_word2vec_text(str(tmp_path / "emb.txt"))
    assert np.allclose(reloaded.vectors, table.vectors, atol=1e-5)

    # model container: serialize -> deserialize bit-exact, stable bytes
    for arch in ("ffn", "seq2seq"):
        model = build_encoder(arch, 6, 1, token_dim=4, hidden=8,
                              rng=rng_mod.stream(23, "init"))
        p1 = tmp_path / f"{arch}.1.bin"
        p2 = tmp_path / f"{arch}.2.bin"
        model.save(p1, WeightScheme("focused", 3.0))
        loaded, scheme = load_encoder(str(p1))
        assert scheme == WeightScheme("focused", 3.0)
        for k, v in model.params().items():
            assert np.array_equal(loaded.params()[k], v), (arch, k)
        loaded.save(p2, scheme)
        assert p1.read_bytes() == p2.read_bytes()

    # embedding TSV: export -> reload within 1e-5
    model = FfnEncoder(6, 1, token_dim=4, hidden=8, rng=rng_mod.stream(29, "init"))
    sentences = [[f"w{k}" for k in range(6)], ["w0", "w3", "w5"]]
    index = index_corpus(model, table, sentences)
    export_embeddings_tsv(index, tmp_path / "emb.tsv")
    rows, codes = load_embeddings_tsv(str(tmp_path / "emb.tsv"))
    assert len(rows) == len(index)
    assert [row[:2] for row in rows] == list(zip(index.sentence.tolist(),
                                                 index.position.tolist()))
    assert np.allclose(index.codes, codes, atol=1e-5)
