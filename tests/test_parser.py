import math
from dataclasses import fields

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import parser as parser_mod
from tokembed import rng as rng_mod
from tokembed.encoder import FfnEncoder
from tokembed.features import PAIR_FEATURE_COUNT, word_features
from tokembed.nn import Dense, FitConfig, TrainingDiverged, gradient_check
from tokembed.parser import (DepSentence, Parser, ParserConfig, arc_loss,
                             attachment_f1, batch_loss_and_grads, candidate_heads,
                             export_arc_scores, load_dep_corpus,
                             save_dep_corpus, train_parser)
from tokembed.synthetic import chain_dep_corpus, toy_embedding_table

from test_embeddings import reference_window


def small_table(seed=40, n_words=10, dim=4):
    rng = rng_mod.stream(seed, "data")
    return toy_embedding_table([f"t{k}" for k in range(n_words)], dim, rng)


def full_sentence(n, heads=None):
    toks = [f"t{k % 10}" for k in range(n)]
    heads = heads if heads is not None else [k for k in range(n)]
    return DepSentence(toks, heads, [True] * n)


# -- sentence validation -------------------------------------------------------


def test_unselected_token_with_head_rejected():
    with pytest.raises(ValueError):
        DepSentence(["a", "b"], [0, 1], [True, False])


def test_head_pointing_to_unselected_rejected():
    with pytest.raises(ValueError):
        DepSentence(["a", "b", "c"], [0, -1, 2], [True, False, True])


def test_self_head_rejected():
    with pytest.raises(ValueError):
        DepSentence(["a"], [1], [True])


def test_candidates_exclude_self_and_unselected():
    sent = DepSentence(["a", "b", "c"], [0, -1, 1], [True, False, True])
    assert candidate_heads(sent, 1) == [0, 3]
    assert candidate_heads(sent, 3) == [0, 1]


# -- arc scoring ---------------------------------------------------------------


def test_zero_network_scores_zero():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)
    sent = full_sentence(3)
    for i in (1, 2, 3):
        for j in candidate_heads(sent, i):
            assert model.arc_score(sent, i, j) == 0.0


def test_arc_score_pure():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(41, "init"))
    sent = full_sentence(4)
    assert model.arc_score(sent, 2, 3) == model.arc_score(sent, 2, 3)


def test_arc_score_errors():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)
    sent = DepSentence(["a", "b", "c"], [0, -1, 1], [True, False, True])
    with pytest.raises(ValueError):
        model.arc_score(sent, 1, 1)
    with pytest.raises(ValueError):
        model.arc_score(sent, 1, 2)  # unselected parent
    with pytest.raises(ValueError):
        model.arc_score(sent, 2, 0)  # unselected child


def test_wall_input_zeroes_parent_blocks():
    table = small_table(dim=3)
    enc = FfnEncoder(3, 1, token_dim=4, hidden=6, rng=rng_mod.stream(42, "init"))
    model = Parser(ParserConfig(window=1, hidden=6), table, encoders=[enc],
                   rng=rng_mod.stream(43, "init"))
    sent = full_sentence(4)
    row = model.arc_input(sent, 2, 0)
    half = model.win_len * table.dim
    child_types = row[:half]
    parent_types = row[half:2 * half]
    assert np.array_equal(parent_types, np.zeros(half, np.float32))
    assert not np.array_equal(child_types, np.zeros(half, np.float32))
    # token-embedding block: child then parent per encoder
    tok = row[2 * half:2 * half + 2 * enc.token_dim]
    assert not np.array_equal(tok[:4], np.zeros(4, np.float32))
    assert np.array_equal(tok[4:], np.zeros(4, np.float32))
    # shape vectors zero for the wall, pair features reduce to (i/n, 0.., 1)
    pair = row[-10:]
    assert np.allclose(pair, [2 / 4, 0, 0, 0, 0, 0, 0, 0, 0, 1])


# Tokens that light up several word-shape rules; all but the t* words are out
# of vocabulary.
SHAPED = ["t0", "t1", "t2", "t3", "@you", "#tag", "42", "...", "zz-oov"]


@given(st.integers(0, 2 ** 30), st.sampled_from([-1, 0, 1]), st.integers(0, 2),
       st.booleans(), st.integers(1, 6))
def test_factored_scores_equal_composed_rows(seed, window, n_enc, word_feats, n):
    # the per-position scorer against the plain network on composed arc rows
    if window == -1 and n_enc == 0:
        n_enc = 1
    rng = np.random.default_rng(seed)
    table = small_table(dim=3)
    table.vectors = table.vectors.astype(np.float64)
    encoders = [FfnEncoder(3, e, token_dim=2 + e, hidden=4,
                           rng=rng_mod.stream(seed + e, "init"), dtype=np.float64)
                for e in range(n_enc)]
    model = Parser(ParserConfig(window=window, hidden=5, word_features=word_feats),
                   table, encoders, rng=rng_mod.stream(seed, "init"), dtype=np.float64)
    for v in model.net.params().values():
        v += rng.normal(scale=0.1, size=v.shape)
    selected = [bool(x) for x in rng.random(n) < 0.7]
    sent = DepSentence([SHAPED[int(x)] for x in rng.integers(len(SHAPED), size=n)],
                       [-1] * n, selected)
    scored = model.score_sentence(sent)
    assert [i for i, _, _ in scored] == sent.selected_positions()
    for i, cands, scores in scored:
        assert cands == candidate_heads(sent, i)
        rows = np.stack([model.arc_input(sent, i, j) for j in cands])
        assert rows.shape == (len(cands), model.input_dim)
        expected, _ = model.net.forward(rows)
        assert np.abs(scores - expected[:, 0]).max() <= 1e-10


def test_cache_keeps_no_per_arc_input_rows():
    table = small_table(dim=3)
    enc = FfnEncoder(3, 1, token_dim=4, hidden=6, rng=rng_mod.stream(42, "init"))
    model = Parser(ParserConfig(window=1, hidden=6), table, encoders=[enc])
    sent = DepSentence([f"t{k}" for k in range(6)], [0, 1, -1, 2, 4, 5],
                       [True, True, False, True, True, True])
    cache = model._caches([sent])[0]
    n_arcs = cache.n_children ** 2
    per_arc = [getattr(cache, f.name) for f in fields(cache)
               if len(getattr(cache, f.name)) == n_arcs]
    assert per_arc
    assert all(a.ndim == 1 or a.shape[1] <= PAIR_FEATURE_COUNT for a in per_arc)
    assert model.input_dim > PAIR_FEATURE_COUNT


@given(st.integers(-1, 2), st.lists(st.booleans(), max_size=6))
def test_cache_windows_are_wall_row_plus_selected_windows(window, selected):
    table = small_table(dim=3)
    enc = FfnEncoder(3, 0, token_dim=2, hidden=2)
    model = Parser(ParserConfig(window=window, hidden=2), table, encoders=[enc])
    tokens = [f"t{k}" for k in range(len(selected) - 1)] + ["oov"] * bool(selected)
    sent = DepSentence(tokens, [-1] * len(tokens), selected)
    v = table.vocab
    ids = v.to_ids(tokens).tolist()
    offsets = range(-window, window + 1)
    expected = [[v.unk_id] * len(offsets)] + [
        reference_window(ids, p - 1, offsets, v.bos_id, v.eos_id)
        for p in sent.selected_positions()]
    wins = model._caches([sent])[0].inputs.wins
    assert wins.shape == (len(expected), len(offsets))
    assert wins.tolist() == expected


def test_fixed_rows_are_token_blocks_of_selected_positions():
    # per selected token, after the type block: its encoder row, computed
    # over the whole sentence, then the shape bits of its own token; the
    # wall row stays zero
    table = small_table(dim=3)
    enc = FfnEncoder(3, 1, token_dim=2, hidden=4, rng=rng_mod.stream(44, "init"))
    model = Parser(ParserConfig(window=0, hidden=2), table, encoders=[enc])
    sent = DepSentence(["t0", "@you", "42", "t3", "#tag"], [-1, 0, -1, 2, 4],
                       [False, True, False, True, True])
    fixed = model.compose(model._caches([sent])[0].inputs)[:, model.widths[0]:]
    embs = enc.encode_sentence(table, table.vocab.to_ids(sent.tokens))
    assert np.array_equal(fixed[0], np.zeros(12, np.float32))
    for slot, p in enumerate(sent.selected_positions(), start=1):
        want = np.concatenate([embs[p - 1], word_features(sent.tokens[p - 1])])
        assert np.array_equal(fixed[slot], want)


def slot_shape_bits(sent, cache):
    """The word-shape bits of each slot of ``cache``: zero for the wall, then
    those of each selected token of ``sent``."""
    return np.stack([np.zeros(10, np.float32)]
                    + [word_features(sent.tokens[p - 1]) for p in cache.positions[1:]])


def test_forward_keeps_one_position_row_per_slot():
    # the first layer reads each slot's row once, as wide as one role's
    # columns of net.0.W; no input_dim-wide row is built per position
    table = small_table(dim=3)
    enc = FfnEncoder(3, 1, token_dim=4, hidden=6, rng=rng_mod.stream(42, "init"))
    model = Parser(ParserConfig(window=1, hidden=6), table, encoders=[enc],
                   rng=rng_mod.stream(43, "init"))
    sents = [full_sentence(4), full_sentence(1),
             DepSentence(["t0", "t1", "t2"], [-1, 0, 2], [False, True, True])]
    caches = model._caches(sents)
    _, (X, A, tail) = model._forward(caches)
    width = (model.input_dim - PAIR_FEATURE_COUNT) // 2
    assert X.shape == (sum(c.n_children + 1 for c in caches), width)
    expected = [np.concatenate([table.vectors[c.inputs.wins].reshape(len(c.positions), -1),
                                c.inputs.codes, slot_shape_bits(sent, c)], axis=1)
                for sent, c in zip(sents, caches)]
    assert np.array_equal(X, np.concatenate(expected))
    assert A.shape == (sum(c.n_children ** 2 for c in caches), 6)
    arrays = [X, A] + [a for layer_cache in tail for a in layer_cache]
    assert all(a.shape[-1] != model.input_dim for a in arrays)


def test_window_minus_one_has_no_type_inputs():
    table = small_table(dim=3)
    enc = FfnEncoder(3, 1, token_dim=4, hidden=6, rng=rng_mod.stream(44, "init"))
    model = Parser(ParserConfig(window=-1, hidden=6), table, encoders=[enc])
    assert model.win_len == 0
    assert model.input_dim == 2 * 4 + 20 + 10


def test_window_minus_one_without_encoders_rejected():
    table = small_table()
    with pytest.raises(ValueError):
        Parser(ParserConfig(window=-1, hidden=6), table)


# -- arc loss ------------------------------------------------------------------


def test_arc_loss_uniform_three_candidates():
    loss, _ = arc_loss(np.zeros(3), 1)
    assert abs(loss - math.log(3)) < 1e-9


def test_arc_loss_two_candidates():
    loss, _ = arc_loss(np.array([1.0, 0.0]), 0)
    assert abs(loss - math.log(1 + math.exp(-1))) < 1e-9


def test_arc_loss_shift_invariance():
    scores = np.array([0.4, -1.2, 3.3])
    l1, _ = arc_loss(scores, 2)
    l2, _ = arc_loss(scores + 77.7, 2)
    assert abs(l1 - l2) < 1e-9


def test_arc_loss_empty_candidates():
    with pytest.raises(ValueError):
        arc_loss(np.array([]), 0)


def test_arc_loss_gradient_through_network():
    table = small_table(dim=3)
    table.vectors = table.vectors.astype(np.float64)
    model = Parser(ParserConfig(window=1, hidden=5), table,
                   rng=rng_mod.stream(45, "init"), dtype=np.float64)
    sent = full_sentence(4)
    cache = model._caches([sent])[0]
    k = cache.n_children

    def loss_and_grads():
        # the summed (not mean) loss over the children, as one sentence
        mean, grads = batch_loss_and_grads(model, [cache])
        return mean * k, {name[len("net."):]: g * k for name, g in grads.items()}

    report = gradient_check(loss_and_grads, model.net.params(), eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


# -- sentence loss -----------------------------------------------------------


def summed_loss(model, sent):
    """Sum of the per-child arc losses of one sentence: the minibatch mean of
    ``batch_loss_and_grads`` times its child count."""
    cache = model._caches([sent])[0]
    mean, _ = batch_loss_and_grads(model, [cache])
    return mean * cache.n_children


def test_single_token_wall_only_loss_zero():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(46, "init"))
    sent = DepSentence(["t0"], [0], [True])
    assert abs(summed_loss(model, sent)) < 1e-9


def test_two_token_uniform_loss():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)  # zero net
    sent = DepSentence(["t0", "t1"], [0, 1], [True, True])
    assert abs(summed_loss(model, sent) - 2 * math.log(2)) < 1e-9


def test_sentence_loss_equals_sum_of_arc_losses():
    table = small_table()
    model = Parser(ParserConfig(window=1, hidden=6), table,
                   rng=rng_mod.stream(47, "init"))
    sent = full_sentence(5)
    total = 0.0
    for i, cands, scores in model.score_sentence(sent):
        loss, _ = arc_loss(scores, cands.index(sent.heads[i - 1]))
        total += loss
    assert abs(summed_loss(model, sent) - total) < 1e-12


def test_sentence_loss_missing_gold_head():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)
    sent = DepSentence(["t0", "t1"], [-1, -1], [True, True])
    with pytest.raises(ValueError, match="no gold candidate"):
        summed_loss(model, sent)


# -- head prediction -----------------------------------------------------------


def test_all_equal_scores_attach_to_wall():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)  # zero net: all 0
    sent = full_sentence(4)
    assert model.predict_heads([sent]) == [[0, 0, 0, 0]]


def test_predict_matches_exhaustive_scan():
    table = small_table()
    for seed in range(12):
        model = Parser(ParserConfig(window=1, hidden=6), table,
                       rng=rng_mod.stream(seed, "init"))
        rng = rng_mod.stream(seed, "data")
        n = int(rng.integers(1, 7))
        sent = full_sentence(n)
        expected = []
        for i in range(1, n + 1):
            cands = candidate_heads(sent, i)
            scores = [model.arc_score(sent, i, j) for j in cands]
            best = cands[0]
            best_score = scores[0]
            for j, s in zip(cands[1:], scores[1:]):
                if s > best_score:
                    best, best_score = j, s
            expected.append(best)
        assert model.predict_heads([sent]) == [expected], seed


def test_predict_deterministic():
    table = small_table()
    model = Parser(ParserConfig(window=1, hidden=6), table,
                   rng=rng_mod.stream(48, "init"))
    sent = full_sentence(5)
    assert model.predict_heads([sent]) == model.predict_heads([sent])


def test_unselected_tokens_get_no_head():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(49, "init"))
    sent = DepSentence(["t0", "t1", "t2"], [0, -1, 1], [True, False, True])
    heads, = model.predict_heads([sent])
    assert heads[1] == -1
    assert heads[0] in (0, 3) and heads[2] in (0, 1)


# -- block scoring ---------------------------------------------------------------


def block_corpus():
    """A parser and sentences with k = 0, 1, 2, ... selected tokens, one of
    them (k = 7, 49 arc rows) larger than the 8-row blocks the tests set."""
    rng = rng_mod.stream(60, "data")
    sents = []
    for n, k in [(3, 0), (2, 1), (1, 1), (4, 2), (5, 3), (6, 4), (9, 7), (3, 2),
                 (4, 0), (4, 3), (2, 2), (3, 1), (6, 5)]:
        selected = [bool(x) for x in rng.permutation([1] * k + [0] * (n - k))]
        heads = [0 if sel else -1 for sel in selected]
        sents.append(DepSentence([f"t{x}" for x in rng.integers(10, size=n)], heads,
                                 selected))
    model = Parser(ParserConfig(window=1, hidden=16), small_table(),
                   rng=rng_mod.stream(61, "init"))
    return model, sents


def test_block_scoring_matches_one_sentence_scoring(monkeypatch, tmp_path):
    model, corpus = block_corpus()
    monkeypatch.setattr(parser_mod, "SCORE_BLOCK", 8)
    block_sizes = []
    forward = Parser._forward
    monkeypatch.setattr(Parser, "_forward",
                        lambda self, caches: block_sizes.append(len(caches))
                        or forward(self, caches))
    heads = model.predict_heads(corpus)
    # several blocks, some of several sentences
    assert 1 < len(block_sizes) < len(corpus) and max(block_sizes) > 1
    assert heads == [model.predict_heads([s])[0] for s in corpus]

    path = tmp_path / "arcs.tsv"
    assert export_arc_scores(model, corpus, path) == sum(sum(s.selected) ** 2 for s in corpus)
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    expected = [(si, i, j, score) for si, sent in enumerate(corpus)
                for i, cands, scores in model.score_sentence(sent)
                for j, score in zip(cands, scores)]
    assert [tuple(map(int, r[:3])) for r in rows] == [e[:3] for e in expected]
    # Block and one-sentence scores are not always equal bit for bit.  In
    # float32 a product over a block's rows may round differently from one
    # over a sentence's own: at small hidden sizes for any k, and at every
    # size for a one-child sentence, whose single arc row takes BLAS's
    # matrix-vector path.  They agree to a few ulps, so an exported
    # six-decimal score may move by one unit in its last place.
    for r, e in zip(rows, expected):
        assert abs(float(r[3]) - float(e[3])) <= 1.5e-6


def test_scoring_blocks_stay_within_their_bound(monkeypatch, tmp_path):
    model, corpus = block_corpus()
    block = 8
    monkeypatch.setattr(parser_mod, "SCORE_BLOCK", block)
    seen = []
    forward = Dense.forward
    monkeypatch.setattr(Dense, "forward", lambda self, X: seen.append(len(X))
                        or forward(self, X))
    model.predict_heads(corpus)
    export_arc_scores(model, corpus, tmp_path / "arcs.tsv")
    # a block closes once it reaches SCORE_BLOCK rows, so it holds fewer rows
    # than that plus those of its largest sentence
    sizes = {sum(s.selected) ** 2 for s in corpus}
    assert seen and max(seen) <= block - 1 + max(sizes)
    assert set(seen) - sizes  # some product spans several sentences


def test_predict_heads_builds_each_string_row_once(monkeypatch):
    # strings repeat across at least three scoring blocks; each string's
    # word-shape bits are built once, in the block that first holds it, and
    # a second pass over the corpus builds none
    from tokembed import features
    model, corpus = block_corpus()
    monkeypatch.setattr(parser_mod, "SCORE_BLOCK", 8)
    built, blocks = [], []
    monkeypatch.setattr(features, "word_features",
                        lambda word, f=features.word_features: built.append(word) or f(word))
    caches_of = Parser._caches
    monkeypatch.setattr(Parser, "_caches",
                        lambda self, sents: blocks.append(sents) or caches_of(self, sents))
    heads = model.predict_heads(corpus)

    def strings(sents):
        return {t for s in sents for t in s.tokens}

    distinct = strings(corpus)
    assert len(blocks) >= 3 and all(strings(blocks[0]) & strings(b) for b in blocks[1:])
    assert sorted(built) == sorted(distinct)
    assert len(model.strings.shapes) == len(distinct) + 1
    assert model.predict_heads(corpus) == heads
    assert len(built) == len(distinct)


# -- attachment F1 ----------------------------------------------------------------


def test_f1_identical_is_perfect():
    sents = [full_sentence(3, [0, 1, 2])]
    assert attachment_f1(sents, sents) == (100.0, 100.0, 100.0)


def test_f1_hand_case():
    # gold: 5 arcs over two sentences; predictions keep 4 arcs, 3 correct
    gold = [full_sentence(3, [0, 1, 2]), full_sentence(2, [0, 1])]
    pred = [full_sentence(3, [0, 1, 1]),
            DepSentence(["t0", "t1"], [0, -1], [True, False])]
    p, r, f1 = attachment_f1(pred, gold)
    assert p == 75.0
    assert r == 60.0
    assert abs(f1 - 2 * 75 * 60 / 135) < 1e-9


def test_f1_empty_prediction():
    gold = [full_sentence(2, [0, 1])]
    pred = [DepSentence(["t0", "t1"], [-1, -1], [False, False])]
    assert attachment_f1(pred, gold) == (0.0, 0.0, 0.0)


def test_f1_count_mismatches():
    with pytest.raises(ValueError):
        attachment_f1([full_sentence(2)], [])
    with pytest.raises(ValueError):
        attachment_f1([full_sentence(2)], [full_sentence(3)])


@given(st.integers(0, 2 ** 30))
def test_f1_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    sents_g, sents_p = [], []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.integers(1, 6))

        def random_sent():
            selected = rng.random(n) < 0.8
            heads = []
            for k in range(n):
                if not selected[k]:
                    heads.append(-1)
                    continue
                options = [0] + [j for j in range(1, n + 1)
                                 if j != k + 1 and selected[j - 1]]
                heads.append(int(options[rng.integers(len(options))]))
            return DepSentence([f"t{k}" for k in range(n)], heads, list(selected))

        sents_g.append(random_sent())
        sents_p.append(random_sent())
    p, r, f1 = attachment_f1(sents_p, sents_g)

    def arcs(sents):
        return {(si, k + 1, s.heads[k]) for si, s in enumerate(sents)
                for k in range(len(s)) if s.selected[k] and s.heads[k] >= 0}

    inter = arcs(sents_p) & arcs(sents_g)
    exp_p = 100 * len(inter) / len(arcs(sents_p)) if arcs(sents_p) else 0.0
    exp_r = 100 * len(inter) / len(arcs(sents_g)) if arcs(sents_g) else 0.0
    assert p == pytest.approx(exp_p)
    assert r == pytest.approx(exp_r)
    if exp_p + exp_r:
        assert f1 == pytest.approx(2 * exp_p * exp_r / (exp_p + exp_r))
    else:
        assert f1 == 0.0


# -- export ----------------------------------------------------------------------


def test_export_counts_and_round_trip(tmp_path):
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(50, "init"))
    sents = [DepSentence(["t0", "t1"], [0, 1], [True, True])]
    path = tmp_path / "arcs.tsv"
    n = export_arc_scores(model, sents, path)
    lines = path.read_text().splitlines()
    assert n == 4 and len(lines) == 4  # 2 children x 2 candidates
    for line in lines:
        si, i, j, score = line.split("\t")
        assert abs(float(score) - model.arc_score(sents[0], int(i), int(j))) <= 1e-6


def test_export_skips_unselected(tmp_path):
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)
    sents = [DepSentence(["t0", "t1", "t2"], [0, -1, 1], [True, False, True])]
    path = tmp_path / "arcs.tsv"
    export_arc_scores(model, sents, path)
    for line in path.read_text().splitlines():
        _, i, j, _ = line.split("\t")
        assert int(i) != 2 and int(j) != 2


# -- corpus IO --------------------------------------------------------------------


def test_dep_corpus_round_trip(tmp_path):
    sents = [DepSentence(["a", "b", "c"], [2, 0, -1], [True, True, False]),
             DepSentence(["d"], [0], [True])]
    path = tmp_path / "dep.tsv"
    save_dep_corpus(sents, path)
    loaded = load_dep_corpus(str(path))
    assert len(loaded) == 2
    assert loaded[0].tokens == ["a", "b", "c"]
    assert loaded[0].heads == [2, 0, -1]
    assert loaded[0].selected == [True, True, False]


def test_dep_corpus_bad_fields(tmp_path):
    path = tmp_path / "dep.tsv"
    path.write_text("1\ta\t0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_dep_corpus(str(path))
    path.write_text("2\ta\t0\t1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_dep_corpus(str(path))


# -- training -----------------------------------------------------------------------


def test_train_zero_learning_rate_fixed_point():
    rng = rng_mod.stream(51, "data")
    words, sents = chain_dep_corpus(rng, n_sentences=12, max_len=4)
    table = toy_embedding_table(words, 4, rng)
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(51, "init"))
    before = {k: v.copy() for k, v in model.params().items()}
    cfg = FitConfig(epochs=2, batch_size=4, learning_rate=0.0, momentum=0.9, seed=51)
    train_parser(model, sents[:10], sents[10:], cfg)
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k


def test_train_divergence_raises():
    rng = rng_mod.stream(51, "data")
    words, sents = chain_dep_corpus(rng, n_sentences=12, max_len=4)
    table = toy_embedding_table(words, 4, rng)
    model = Parser(ParserConfig(window=0, hidden=6), table,
                   rng=rng_mod.stream(51, "init"))
    cfg = FitConfig(epochs=3, batch_size=2, learning_rate=1e30, momentum=0.9, seed=51)
    with pytest.raises(TrainingDiverged):
        train_parser(model, sents[:10], sents[10:], cfg)


def test_train_learns_positional_rule_quickly():
    rng = rng_mod.stream(52, "data")
    words, sents = chain_dep_corpus(rng, n_sentences=60, max_len=5)
    table = toy_embedding_table(words, 4, rng)
    model = Parser(ParserConfig(window=0, hidden=16), table,
                   rng=rng_mod.stream(52, "init"))
    cfg = FitConfig(epochs=40, batch_size=8, learning_rate=0.05, momentum=0.9, seed=52,
                    patience=40)
    res = train_parser(model, sents[:50], sents[50:], cfg)
    assert res.best >= 90.0
    # monotone selection: the restored snapshot is at least as good as every
    # checkpoint in the history
    assert res.best >= max(f1 for _, _, f1 in res.history) - 1e-9


def test_train_requires_gold_heads():
    table = small_table()
    model = Parser(ParserConfig(window=0, hidden=6), table)
    sents = [DepSentence(["t0"], [-1], [True])]
    cfg = FitConfig(epochs=1, batch_size=8, learning_rate=0.1, momentum=0.9, seed=0)
    with pytest.raises(ValueError):
        train_parser(model, sents, sents, cfg)


@pytest.mark.parametrize("window, word_feats", [(-1, True), (0, False), (1, True)])
def test_first_layer_gradient_is_written_in_full(monkeypatch, window, word_feats):
    # net.0.W's gradient starts uninitialised; filled with nan, it must come
    # out as the zero-started one, bit for bit, a childless sentence included
    table = small_table()
    enc = FfnEncoder(4, 1, token_dim=3, hidden=5, rng=rng_mod.stream(57, "init"))
    model = Parser(ParserConfig(window=window, hidden=6, word_features=word_feats), table,
                   [enc], rng=rng_mod.stream(57, "init"))
    sents = [full_sentence(4), DepSentence(["t1", "t2"], [-1, -1], [False, False]),
             full_sentence(2)]
    caches = model._caches(sents)
    _, want = batch_loss_and_grads(model, caches)
    monkeypatch.setattr(parser_mod.np, "empty_like", lambda a: np.full_like(a, np.nan))
    _, got = batch_loss_and_grads(model, caches)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name].tobytes() == value.tobytes(), name


def test_update_embeddings_gradients_match_finite_differences():
    # exercises the scatter-add through child and parent windows (wall
    # parents use the pinned unknown row) plus the anchored penalty;
    # reserved rows are excluded from probing
    rng = rng_mod.stream(56, "data")
    words = [f"t{k}" for k in range(6)]
    table = toy_embedding_table(words, 3, rng)
    table.vectors = table.vectors.astype(np.float64)
    model = Parser(ParserConfig(window=0, hidden=4, update_embeddings=True,
                                anchor_weight=0.05), table,
                   rng=rng_mod.stream(56, "init"), dtype=np.float64)
    for v in model.net.params().values():
        v += rng.normal(scale=0.05, size=v.shape)
    model.adapted.add_rows(np.arange(6))
    model.adapted.vectors += rng.normal(scale=0.1, size=(6, 3))
    sents = [DepSentence([words[int(rng.integers(6))] for _ in range(3)],
                         [0, 1, 2], [True] * 3) for _ in range(2)]
    caches = model._caches(sents)

    params = model.params()  # rows 0-5 of the table: probes mutate the model
    assert params["embeddings"] is model.adapted.vectors

    def loss_and_grads():
        return batch_loss_and_grads(model, caches)

    report = gradient_check(loss_and_grads, params, eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("window", [-1, 0, 1])
@pytest.mark.parametrize("word_feats", [True, False])
@pytest.mark.parametrize("n_enc", [1, 2])
def test_batch_gradients_with_window_encoder_and_embedding_updates(window, word_feats,
                                                                   n_enc):
    # every net tensor and every used embedding row through the factored
    # first layer: child and parent windows, token embeddings, shape bits,
    # an unselected token and a single-token sentence, over every set of
    # column blocks (window -1 has no type block, so it updates no
    # embeddings)
    rng = rng_mod.stream(57, "data")
    words = ["t0", "t1", "#t2", "t3", "@t4", "55"]
    table = toy_embedding_table(words, 3, rng)
    table.vectors = table.vectors.astype(np.float64)
    encoders = [FfnEncoder(3, 1 - e, token_dim=2 + e, hidden=4,
                           rng=rng_mod.stream(58 + e, "init"), dtype=np.float64)
                for e in range(n_enc)]
    update = window >= 0
    model = Parser(ParserConfig(window=window, hidden=4, word_features=word_feats,
                                update_embeddings=update, anchor_weight=0.05),
                   table, encoders=encoders, rng=rng_mod.stream(57, "init"),
                   dtype=np.float64)
    for v in model.net.params().values():
        v += rng.normal(scale=0.05, size=v.shape)
    moved = rng.normal(scale=0.1, size=(6, 3))
    if update:
        model.adapted.add_rows(np.arange(6))
        model.adapted.vectors += moved
    else:
        table.vectors[:6] += moved  # the table the encoders read
    sents = [DepSentence(words[:4], [0, 1, -1, 2], [True, True, False, True]),
             DepSentence(words[3:], [3, 0, 2], [True] * 3),
             DepSentence(["55"], [0], [True])]
    caches = model._caches(sents)

    params = model.params()  # with an update, rows 0-5 of the table

    def loss_and_grads():
        return batch_loss_and_grads(model, caches)

    report = gradient_check(loss_and_grads, params, eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]
    assert report.n_checked == sum(v.size for v in params.values())


def test_updating_embeddings_moves_copy_only():
    rng = rng_mod.stream(53, "data")
    words, sents = chain_dep_corpus(rng, n_sentences=16, max_len=4)
    table = toy_embedding_table(words, 4, rng)
    before = table.vectors.copy()
    model = Parser(ParserConfig(window=0, hidden=6, update_embeddings=True),
                   table, rng=rng_mod.stream(53, "init"))
    cfg = FitConfig(epochs=3, batch_size=4, learning_rate=0.05, momentum=0.9, seed=53)
    train_parser(model, sents[:12], sents[12:], cfg)
    assert np.array_equal(table.vectors, before)
    assert not np.array_equal(model.adapted.full(), before)
    v = table.vocab
    for rid in (v.bos_id, v.eos_id, v.unk_id):
        assert np.array_equal(model.adapted.full()[rid], np.zeros(4, np.float32))


def test_save_load_round_trip(tmp_path):
    rng = rng_mod.stream(54, "data")
    words, sents = chain_dep_corpus(rng, n_sentences=12, max_len=4)
    table = toy_embedding_table(words, 4, rng)
    enc = FfnEncoder(4, 1, token_dim=3, hidden=6, rng=rng_mod.stream(54, "init"))
    model = Parser(ParserConfig(window=1, hidden=6), table, encoders=[enc],
                   rng=rng_mod.stream(55, "init"))
    cfg = FitConfig(epochs=2, batch_size=4, learning_rate=0.05, momentum=0.9, seed=54)
    train_parser(model, sents[:10], sents[10:], cfg)
    path = tmp_path / "parser.bin"
    model.save(path)
    loaded = Parser.load(str(path), table, encoders=[enc])
    assert loaded.predict_heads(sents) == model.predict_heads(sents)
