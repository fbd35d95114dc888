"""Invariances that hold by construction, pinned as properties over small
random tables and corpora:

* table row order: permuting the word rows of the type table, each word
  keeping its vector, leaves every trained weight of either encoder, the
  tagger and the parser bit-identical, and an adapted table is the same
  rows, permuted;
* unused rows: table rows that no corpus reaches change none of those
  weights, nor any adapted row that a corpus does reach;
* sentence placement: a sentence's window ids and feature rows are its rows
  alone, wherever it sits in a corpus.

A failure names the property and the first differing tensor.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from tokembed import rng as rng_mod
from tokembed.embeddings import EmbeddingTable, Vocabulary
from tokembed.encoder import (WeightScheme, build_encoder, corpus_windows,
                              train_encoder)
from tokembed.features import ResourceBundle, word_feature_matrix
from tokembed.nn import FitConfig
from tokembed.parser import DepSentence, Parser, ParserConfig, train_parser
from tokembed.tagger import Tagger, TaggerConfig, train_tagger

WORDS = [f"w{k}" for k in range(5)]
TAGSET = ["A", "B", "C"]
DIM = 3


def assert_bits(prop, got, want):
    """Fail naming ``prop`` and the first tensor of ``want`` that ``got``
    does not hold bit for bit."""
    if list(got) != list(want):
        pytest.fail(f"{prop}: tensors {list(got)} differ from {list(want)}")
    for name, value in want.items():
        other = got[name]
        if (other.dtype, other.shape) != (value.dtype, value.shape) \
                or other.tobytes() != value.tobytes():
            pytest.fail(f"{prop}: first differing tensor {name!r}")


def table_over(words, seed):
    """A table of ``words`` in the given order, each word's vector drawn from
    its own name, so any order of the same words holds the same vectors."""
    vocab = Vocabulary(words)
    vectors = np.zeros((len(vocab), DIM), dtype=np.float32)
    for k, word in enumerate(words):
        vectors[k] = np.random.default_rng([seed, *map(ord, word)]).normal(0.0, 1.0, DIM)
    return EmbeddingTable(vocab, vectors)


def corpora(seed):
    """Unlabeled, tagged and dependency training and validation corpora over
    ``WORDS`` and one out-of-vocabulary string."""
    rng = rng_mod.stream(seed, "data")
    pool = WORDS + ["oov"]
    sents = [[pool[k] for k in rng.integers(len(pool), size=rng.integers(1, 6))]
             for _ in range(12)]
    tagged = [(toks, np.array([pool.index(t) % len(TAGSET) for t in toks])) for toks in sents]
    deps = [DepSentence(toks, list(range(len(toks))), [True] * len(toks)) for toks in sents]
    return sents, tagged, deps


def train_all(table, seed, arch):
    """The trained parameters of an ``arch`` encoder over ``table``, and of
    a tagger and a parser that read it with a type window and an adapted
    table."""
    sents, tagged, deps = corpora(seed)
    cfg = FitConfig(epochs=2, batch_size=4, learning_rate=0.02, momentum=0.5, seed=seed)
    enc = build_encoder(arch, DIM, 1, token_dim=2, hidden=4, rng=rng_mod.stream(seed, "init"))
    train_encoder(enc, table, sents[:9], sents[9:], WeightScheme(), cfg)
    tagger = Tagger(TaggerConfig(window=1, hidden=4, update_embeddings=True), TAGSET, table,
                    encoders=[enc], rng=rng_mod.stream(seed, "init"))
    train_tagger(tagger, tagged[:9], tagged[9:], cfg)
    parser = Parser(ParserConfig(window=1, hidden=4, update_embeddings=True), table,
                    encoders=[enc], rng=rng_mod.stream(seed, "init"))
    train_parser(parser, deps[:9], deps[9:], cfg)
    return enc.params(), *({**model.params(), "embeddings": model.adapted.full()}
                           for model in (tagger, parser))


def assert_trains_alike(prop, table, seed, arch):
    """``train_all`` over ``table`` and over the table of ``WORDS`` in order
    give bit-identical parameters, the adapted tables compared word by
    word."""
    base = table_over(WORDS, seed)
    want = train_all(base, seed, arch)
    got = train_all(table, seed, arch)
    assert_bits(f"{prop}, {arch} encoder", got[0], want[0])
    rows = [table.vocab.id_of(w) for w in base.vocab.words]
    for name, k in (("tagger", 1), ("parser", 2)):
        assert_bits(f"{prop}, {name}", {**got[k], "embeddings": got[k]["embeddings"][rows]},
                    want[k])


@settings(max_examples=10)
@given(st.integers(0, 2**16), st.sampled_from(["ffn", "seq2seq"]), st.permutations(WORDS))
def test_table_row_order_changes_no_trained_weight(seed, arch, order):
    assert_trains_alike(f"table row order {order}", table_over(order, seed), seed, arch)


@settings(max_examples=10)
@given(st.integers(0, 2**16), st.sampled_from(["ffn", "seq2seq"]),
       st.lists(st.integers(0, len(WORDS)), min_size=1, max_size=4))
def test_unused_table_rows_change_no_trained_weight(seed, arch, slots):
    words = list(WORDS)
    for k, at in enumerate(slots):
        words.insert(at, f"unused{k}")
    assert_trains_alike(f"unused rows in {words}", table_over(words, seed), seed, arch)


RESOURCES = ResourceBundle(
    brown_clusters={"the": "0010110101", "cat": "110010", "CAT": "1110"},
    tag_dictionary={"the": {"DT": 90, "NN": 2}, "cat": {"NN": 50, "VB": 50}},
    name_lists=[frozenset({"alice", "zz"})],
    char_ngrams={"th": 0, "he": 1, "the": 2, "at": 3})


def rows_of(sentences, model):
    """A corpus's window ids at radius 2, its word-shape rows and the input
    rows ``model`` composes for it."""
    n = sum(map(len, sentences))
    words = np.empty((n, 10), dtype=np.float32)
    word_feature_matrix(sentences, words)
    return {"corpus_windows": corpus_windows(model.table, sentences, 2),
            "word_feature_matrix": words, "tagger_input": model.compose(model.features(sentences))}


@given(st.lists(st.lists(st.sampled_from(["the", "cat", "CAT", "alice", "zz", "@x", "12", ".."]),
                         max_size=5), max_size=6))
@example([["the"], [], ["cat", "zz"], ["alice"]])
def test_a_sentence_has_its_own_rows_wherever_it_sits(sentences):
    # one tagger reads the corpus, then each sentence again with its string
    # rows already built, and a fresh tagger reads each sentence alone
    def tagger():
        return Tagger(TaggerConfig(window=2, hidden=2, word_features=True, extended=True),
                      TAGSET, table_over(["the", "cat", "alice"], 0), resources=RESOURCES)

    model = tagger()
    whole = rows_of(sentences, model)
    start = 0
    for k, sent in enumerate(sentences):
        rows = {name: value[start:start + len(sent)] for name, value in whole.items()}
        for again in (model, tagger()):
            assert_bits(f"sentence {k} of {len(sentences)}", rows, rows_of([sent], again))
        start += len(sent)
