import argparse
import contextlib
import io
import json
import os
import shutil
import string
import struct
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import cli
from tokembed import rng as rng_mod
from tokembed.analysis import index_corpus, nearest_neighbors
from tokembed.cli import build_arg_parser, main
from tokembed.embeddings import (load_corpus, load_word2vec_text, save_corpus,
                                 save_word2vec_text)
from tokembed.encoder import (FfnEncoder, Seq2SeqEncoder, WeightScheme, WindowEncoder,
                             load_encoder)
from tokembed.nn import Dense, LstmCell
from tokembed.parser import (DepSentence, Parser, ParserConfig, load_dep_corpus,
                             save_dep_corpus)
from tokembed.serialize import load_model, save_model
from tokembed.synthetic import (chain_dep_corpus, pivot_tag_corpus,
                                toy_embedding_table)
from tokembed.tagger import (Tagger, TaggerConfig, load_tagged_corpus,
                             save_tagged_corpus)
from test_analysis import per_element_tsv


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return code, summary, captured.err


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Small on-disk dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    rng = rng_mod.stream(123, "data")
    words, tagset, sentences, _ = pivot_tag_corpus(rng, n_sentences=40)
    dep_words, dep_sents = chain_dep_corpus(rng, n_sentences=24, max_len=5)
    table = toy_embedding_table(words + dep_words, 6, rng)
    paths = {
        "emb": root / "emb.txt",
        "train": root / "train.txt",
        "val": root / "val.txt",
        "train_tags": root / "train.tags",
        "val_tags": root / "val.tags",
        "tagset": root / "tagset.txt",
        "dep_train": root / "train.dep",
        "dep_val": root / "val.dep",
        "root": root,
    }
    save_word2vec_text(table, paths["emb"])
    save_corpus([t for t, _ in sentences[:30]], paths["train"])
    save_corpus([t for t, _ in sentences[30:]], paths["val"])
    save_tagged_corpus(sentences[:30], paths["train_tags"])
    save_tagged_corpus(sentences[30:], paths["val_tags"])
    paths["tagset"].write_text("\n".join(tagset) + "\n", encoding="utf-8")
    save_dep_corpus(dep_sents[:18], paths["dep_train"])
    save_dep_corpus(dep_sents[18:], paths["dep_val"])
    return paths


ENC_ARGS = ["--w-prime", 1, "--token-dim", 4, "--hidden", 8, "--epochs", 2,
            "--batch-size", 8, "--lr", 0.02, "--seed", 5]


def train_encoder_file(data, capsys, out, extra=()):
    code, summary, _ = run(
        capsys, "train-encoder", "--embeddings", data["emb"], "--train",
        data["train"], "--val", data["val"], "--out", out, *ENC_ARGS, *extra)
    assert code == 0
    return summary


def test_eval_tags_identical_files(data, capsys):
    code, summary, _ = run(capsys, "eval-tags", "--pred", data["train_tags"],
                           "--gold", data["train_tags"])
    assert code == 0
    assert summary["metrics"]["accuracy"] == 100.0


def test_missing_embeddings_exits_1_naming_path(data, capsys):
    missing = data["root"] / "nope.txt"
    code, summary, err = run(capsys, "train-encoder", "--embeddings", missing,
                             "--train", data["train"], "--val", data["val"],
                             "--out", data["root"] / "x.bin")
    assert code == 1
    assert summary is None
    assert str(missing) in err


def test_missing_required_option_exits_1(data, capsys):
    code, _, err = run(capsys, "train-encoder", "--train", data["train"],
                       "--val", data["val"], "--out", data["root"] / "x.bin")
    assert code == 1
    assert "--embeddings" in err


def test_an_unusable_table_cache_changes_nothing(data, capsys, tmp_path, monkeypatch):
    # the cache home is a regular file: nothing can be read or written under it
    def train(out):
        code, summary, err = run(
            capsys, "train-encoder", "--embeddings", data["emb"], "--train", data["train"],
            "--val", data["val"], "--out", tmp_path / out, *ENC_ARGS)
        assert code == 0 and summary is not None
        return (tmp_path / out).read_bytes(), err.replace(out, "OUT")

    cached = train("cached.bin")
    home = tmp_path / "home"
    home.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    assert train("uncached.bin") == cached  # the same model bits and log lines
    assert home.read_bytes() == b""


@pytest.mark.parametrize("corrupt, tensor", [
    (lambda t: t.pop("net.1.b"), "net.1.b"),
    (lambda t: t.update({"net.9.W": t["net.0.W"]}), "net.9.W"),
    (lambda t: t.update({"net.0.b": t["net.0.b"][:1]}), "net.0.b"),
])
def test_parse_rejects_mismatched_model_tensors(data, capsys, tmp_path, corrupt, tensor):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    Parser(ParserConfig(window=0, hidden=4),
           load_word2vec_text(str(data["emb"]))).save(good)
    kind, config, tensors = load_model(good)
    corrupt(tensors)
    save_model(bad, kind, config, tensors)
    code, summary, err = run(capsys, "parse", "--embeddings", data["emb"],
                             "--model", bad, "--corpus", data["dep_val"],
                             "--out", tmp_path / "pred.dep")
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert str(bad) in err and repr(tensor) in err


@pytest.mark.parametrize("symbol, value", [("<unk>", 5.0), ("<s>", -0.0)])
def test_tag_rejects_a_reserved_embedding_row_that_is_not_zero(data, capsys, tmp_path,
                                                               symbol, value):
    # restore would drop the row, so the file would load as another model
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    table = load_word2vec_text(str(data["emb"]))
    tagset = data["tagset"].read_text(encoding="utf-8").split()
    Tagger(TaggerConfig(window=0, hidden=4, update_embeddings=True), tagset, table).save(good)
    kind, config, tensors = load_model(good)
    tensors["embeddings"][table.vocab.id_of(symbol)] = value
    save_model(bad, kind, config, tensors)
    code, summary, err = run(capsys, "tag", "--embeddings", data["emb"], "--model", bad,
                             "--corpus", data["val"], "--out", tmp_path / "pred.tags")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {bad}: tensor 'embeddings': reserved row {symbol!r} is not +0.0"]


def test_parse_predicts_every_sentence_in_one_call(data, capsys, tmp_path, monkeypatch):
    # the benchmark times parse's work from its first predict_heads call
    model = tmp_path / "parser.bin"
    save_untrained("parse", data, model)
    calls = []
    predict = Parser.predict_heads
    monkeypatch.setattr(Parser, "predict_heads",
                        lambda self, sents: calls.append(len(sents)) or predict(self, sents))
    code, summary, _ = run(capsys, "parse", "--embeddings", data["emb"], "--model", model,
                           "--corpus", data["dep_val"], "--out", tmp_path / "pred.dep")
    assert code == 0
    assert calls == [summary["metrics"]["n_sentences"]] and calls[0] > 1


def test_tag_runs_in_blocks_of_whole_sentences(data, capsys, tmp_path, monkeypatch):
    # ENCODE_BLOCK 4 over sentences of 1-5 tokens: blocks close once they
    # reach 4 tokens, each tagged inside the save call the benchmark times
    table = load_word2vec_text(str(data["emb"]))
    words = table.vocab.corpus_words
    sentences = [[words[(3 * k + j) % len(words)] for j in range(n)]
                 for k, n in enumerate([1, 2, 3, 1, 1, 5, 2, 2, 1, 3, 4, 1])]
    corpus, enc, tagger = tmp_path / "c.txt", tmp_path / "enc.bin", tmp_path / "t.bin"
    save_corpus(sentences, corpus)
    encoder = FfnEncoder(table.dim, 1, token_dim=3, hidden=5, rng=rng_mod.stream(6, "init"))
    encoder.save(enc, WeightScheme())
    tagset = data["tagset"].read_text(encoding="utf-8").split()
    model = Tagger(TaggerConfig(window=1, hidden=8, word_features=True), tagset, table,
                   encoders=[encoder], rng=rng_mod.stream(7, "init"))
    model.save(tagger)
    blocks, saving = [], []
    features, save = Tagger.features, cli.save_tagged_corpus
    monkeypatch.setattr(Tagger, "features",
                        lambda self, sents: blocks.append((saving[:], sents))
                        or features(self, sents))
    monkeypatch.setattr(cli, "save_tagged_corpus",
                        lambda *a: saving.append(1) or save(*a))
    monkeypatch.setattr("tokembed.tagger.ENCODE_BLOCK", 4)
    code, summary, _ = run(capsys, "tag", "--embeddings", data["emb"], "--model", tagger,
                           "--encoder", enc, "--corpus", corpus, "--out", tmp_path / "p.tags")
    assert code == 0 and summary["metrics"]["n_sentences"] == len(sentences)
    sizes = [list(map(len, sents)) for _, sents in blocks]
    assert sizes == [[1, 2, 3], [1, 1, 5], [2, 2], [1, 3], [4], [1]]
    assert all(inside == [1] for inside, _ in blocks)
    assert [s for _, sents in blocks for s in sents] == sentences
    want = [[(tok, tagset[k]) for tok, k in zip(sent, ids)]
            for _, sents in blocks
            for sent, ids in zip(sents, np.split(
                model.predict(features(model, sents)),
                np.cumsum(list(map(len, sents)))[:-1]))]
    assert [list(zip(*pair)) for pair in load_tagged_corpus(str(tmp_path / "p.tags"))] == want


def test_parse_rejects_nan_embeddings(data, capsys, tmp_path):
    lines = data["emb"].read_text(encoding="utf-8").splitlines()
    word, *values = lines[2].split()
    lines[2] = " ".join([word, "nan"] + values[1:])
    emb = tmp_path / "nan.txt"
    emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, summary, err = run(capsys, "parse", "--embeddings", emb,
                             "--model", tmp_path / "unused.bin",
                             "--corpus", data["dep_val"], "--out", tmp_path / "pred.dep")
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"{emb}:3: non-finite value for word {word!r}" in err


def test_knn_rejects_huge_header_dim_in_one_line(data, capsys, tmp_path, no_large_arrays):
    emb = tmp_path / "huge.txt"
    emb.write_text("0 100000000000\n", encoding="utf-8")
    code, summary, err = run(capsys, "knn", "--embeddings", emb,
                             "--model", tmp_path / "unused.bin", "--corpus", data["val"],
                             "--sentence", 0, "--position", 0)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {emb}:1: header declares no entries"]


@pytest.mark.parametrize("rewrite, field", [
    (lambda header: b"not json", "header is not JSON"),
    (lambda header: json.dumps({k: v for k, v in json.loads(header).items()
                                if k != "tensors"}).encode("utf-8"),
     "header has no 'tensors' field"),
])
def test_parse_rejects_corrupted_header(data, capsys, tmp_path, rewrite, field):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    Parser(ParserConfig(window=0, hidden=4),
           load_word2vec_text(str(data["emb"]))).save(good)
    blob = good.read_bytes()
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = rewrite(blob[12:12 + hlen])
    bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                    + blob[12 + hlen:])
    code, summary, err = run(capsys, "parse", "--embeddings", data["emb"],
                             "--model", bad, "--corpus", data["dep_val"],
                             "--out", tmp_path / "pred.dep")
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"{bad}: {field}" in err


def save_untrained(command, data, path, hidden=4):
    """A model file of the kind ``command`` reads."""
    table = load_word2vec_text(str(data["emb"]))
    if command == "tag":
        tagset = data["tagset"].read_text(encoding="utf-8").split()
        Tagger(TaggerConfig(window=0, hidden=hidden), tagset, table).save(path)
    elif command == "parse":
        Parser(ParserConfig(window=0, hidden=hidden), table).save(path)
    else:
        FfnEncoder(table.dim, 1, token_dim=hidden, hidden=2 * hidden).save(path,
                                                                         WeightScheme())


@pytest.mark.parametrize("command, corrupt, field", [
    ("tag", lambda c: c.pop("tagger"), ".tagger is missing"),
    ("tag", lambda c: c["tagger"].update(window="abc"), ".tagger.window is not an integer"),
    ("tag", lambda c: c["tagger"].update(window=True), ".tagger.window is not an integer"),
    ("tag", lambda c: c["tagger"].update(window=-3), ".tagger: tagger window"),
    ("tag", lambda c: c["tagger"].update(anchor_weight=-1.0),
     ".tagger: anchor weight -1.0 is not a finite non-negative number"),
    ("tag", lambda c: c["tagger"].update(beam=4), ".tagger.beam is unknown"),
    ("tag", lambda c: c["tagset"].insert(0, 3), ".tagset[0] is not a string"),
    ("tag", lambda c: c.update(extended_width=None), ".extended_width is not an integer"),
    ("parse", lambda c: c.pop("dim"), ".dim is missing"),
    ("parse", lambda c: c.update(encoders="none"), ".encoders is not a list"),
    ("parse", lambda c: c.update(encoders=[{"arch": "ffn"}]),
     ".encoders[0].token_dim is missing"),
    ("parse", lambda c: c["parser"].update(hidden=4.0), ".parser.hidden is not an integer"),
    ("parse", lambda c: c["parser"].update(anchor_weight=-0.5),
     ".parser: anchor weight -0.5 is not a finite non-negative number"),
    ("embed", lambda c: c.pop("w_prime"), ".w_prime is missing"),
    ("embed", lambda c: c.update(token_dim="4"), ".token_dim is not an integer"),
    ("embed", lambda c: c.update(scheme=[]), ".scheme is not an object"),
    ("embed", lambda c: c["scheme"].pop("center_weight"),
     ".scheme.center_weight is missing"),
    ("embed", lambda c: c["scheme"].update(name="flat"), ": unknown weighting scheme"),
    ("embed", lambda c: c.pop("hidden"), ".hidden is missing"),
])
def test_model_with_bad_config_field_exits_1(data, capsys, tmp_path, command, corrupt,
                                             field):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_untrained(command, data, good)
    kind, config, tensors = load_model(good)
    corrupt(config)
    save_model(bad, kind, config, tensors)
    corpus = data["dep_val"] if command == "parse" else data["val"]
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             "--model", bad, "--corpus", corpus,
                             "--out", tmp_path / "out.txt")
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"{bad}: config{field}" in err


@pytest.mark.parametrize("command", ["tag", "parse", "embed", "knn"])
def test_model_with_a_non_canonical_header_exits_1(data, capsys, tmp_path, command):
    # the header save_model writes, re-spelled as json.dumps(indent=1) spells it
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_untrained(command, data, good)
    blob = good.read_bytes()
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.dumps(json.loads(blob[12:12 + hlen]), sort_keys=True, indent=1).encode()
    bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + hlen:])
    corpus = data["dep_val"] if command == "parse" else data["val"]
    code, summary, err = run(capsys, command, "--embeddings", data["emb"], "--model", bad,
                             "--corpus", corpus,
                             *([] if command == "knn" else ["--out", tmp_path / "out.txt"]))
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {bad}: header is not in the canonical spelling (sorted keys, no spaces)"]


HUGE = 10 ** 7


@pytest.mark.parametrize("command, corrupt, field", [
    ("tag", lambda c: c["tagger"].update(hidden=-4),
     "config.tagger: tagger hidden size must be positive"),
    ("tag", lambda c: c["tagger"].update(hidden=HUGE),
     "config.tagger.hidden: tensor 'net.0.b' has shape (4,)"),
    ("parse", lambda c: c["parser"].update(hidden=-4),
     "config.parser: parser hidden size must be positive"),
    ("parse", lambda c: c["parser"].update(hidden=HUGE),
     "config.parser.hidden: tensor 'net.0.b' has shape (4,)"),
    ("tag", lambda c: c["tagger"].update(window=c["tagger"]["window"] + 1),
     "config.tagger.window: tensor 'net.0.W' has shape (4, 6), expected (4, 18)"),
    ("parse", lambda c: c["parser"].update(window=c["parser"]["window"] + 1),
     "config.parser.window: tensor 'net.0.W' has shape (4, 42), expected (4, 66)"),
    ("embed", lambda c: c.update(hidden=-4), "config.hidden: tensor 'enc.0.b'"),
    ("embed", lambda c: c.update(hidden=HUGE), "config.hidden: tensor 'enc.0.b'"),
    ("embed", lambda c: c.update(token_dim=HUGE), "config.token_dim: tensor 'enc.1.b'"),
    ("embed", lambda c: c.update(dim=-6), "config.dim, config.w_prime: tensor 'dec.1.b'"),
    ("embed", lambda c: c.update(w_prime=HUGE),
     "config.dim, config.w_prime: tensor 'dec.1.b'"),
])
def test_model_with_bad_size_exits_1_before_building(data, capsys, tmp_path, monkeypatch,
                                                     command, corrupt, field):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_untrained(command, data, good)
    kind, config, tensors = load_model(good)
    corrupt(config)
    save_model(bad, kind, config, tensors)

    def build(*args, **kwargs):
        raise AssertionError("a layer was built from a bad header")

    monkeypatch.setattr(Dense, "__init__", build)
    monkeypatch.setattr(LstmCell, "__init__", build)
    corpus = data["dep_val"] if command == "parse" else data["val"]
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             "--model", bad, "--corpus", corpus,
                             "--out", tmp_path / "out.txt")
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"{bad}: {field}" in err


def test_knn_same_type_query_is_its_own_index_record(data, capsys, tmp_path,
                                                     monkeypatch):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)
    seen, indexes = [], []

    def recording(query, codes, k, metric, exclude):
        seen.append((query, codes, exclude))
        return nearest_neighbors(query, codes, k, metric, exclude)

    def recording_index(*args):
        indexes.append(index_corpus(*args))
        return indexes[-1]

    encoded = []
    encode = WindowEncoder.encode

    def counting_encode(self, table, windows):
        encoded.append(len(windows))
        return encode(self, table, windows)

    monkeypatch.setattr(cli, "nearest_neighbors", recording)
    monkeypatch.setattr(cli, "index_corpus", recording_index)
    monkeypatch.setattr(WindowEncoder, "encode", counting_encode)
    sentence = load_corpus(str(data["val"]))[1]
    assert sentence[2] == "lb"
    for extra, indexed in ((["--same-type"], True), ([], True), (["--types", "pv"], False)):
        code, summary, _ = run(capsys, "knn", "--embeddings", data["emb"],
                               "--model", enc, "--corpus", data["val"],
                               "--sentence", 1, "--position", 2, "-k", 2, *extra)
        assert code == 0 and summary["query"]["token"] == "lb"
        query, codes, exclude = seen.pop()
        index = indexes[0]
        indexes.clear()
        assert codes is index.codes
        own = np.flatnonzero((index.sentence == 1) & (index.position == 2))
        assert sum(encoded) == len(index) + (0 if indexed else len(sentence))
        encoded.clear()
        if indexed:  # the query is its own row, and only that row is excluded
            assert exclude == own[0]
            assert (index.sentence[exclude], index.position[exclude]) == (1, 2)
            assert np.array_equal(query.view(np.uint32), codes[exclude].view(np.uint32))
        else:  # the filter rejects the query's type: it is encoded on its own
            assert len(own) == 0 and exclude is None
            table = load_word2vec_text(str(data["emb"]))
            direct = load_encoder(enc)[0].encode_sentence(table, table.vocab.to_ids(sentence))
            np.testing.assert_allclose(query, direct[2], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("k", [0, -1])
def test_knn_rejects_k_below_1(data, capsys, tmp_path, monkeypatch, k):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)

    def index_corpus(*args):
        raise AssertionError("the corpus was indexed before -k was checked")

    monkeypatch.setattr(cli, "index_corpus", index_corpus)
    code, summary, err = run(capsys, "knn", "--embeddings", data["emb"],
                             "--model", enc, "--corpus", data["val"], "-k", k)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: -k must be at least 1, got {k}"]


def test_knn_types_admitting_no_token_names_corpus_and_types(data, capsys, tmp_path):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)
    code, summary, err = run(capsys, "knn", "--embeddings", data["emb"], "--model", enc,
                             "--corpus", data["val"], "--types", "zzzz")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {data['val']}: no token is one of --types zzzz"]


def test_embed_types_admitting_no_token_names_corpus_and_types(data, capsys, tmp_path):
    enc, out = tmp_path / "enc.bin", tmp_path / "tokens.tsv"
    save_untrained("embed", data, enc)
    code, summary, err = run(capsys, "embed", "--embeddings", data["emb"], "--model", enc,
                             "--corpus", data["val"], "--types", "zzzz,yyyy", "--out", out)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {data['val']}: no token is one of --types zzzz,yyyy"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "knn"])
@pytest.mark.parametrize("empty_text", ["", "\n \n\t\n"], ids=["zero-bytes", "blank-lines"])
def test_embed_and_knn_reject_an_empty_corpus_naming_it(data, capsys, tmp_path, command,
                                                        empty_text):
    enc, empty, out = tmp_path / "enc.bin", tmp_path / "empty.txt", tmp_path / "tokens.tsv"
    save_untrained("embed", data, enc)
    empty.write_text(empty_text, encoding="utf-8")
    code, summary, err = run(capsys, command, "--embeddings", data["emb"], "--model", enc,
                             "--corpus", empty,
                             *(["--out", out] if command == "embed" else []))
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {empty}: empty corpus"]
    assert not out.exists()


@pytest.mark.parametrize("arch", ["ffn", "seq2seq"])
@pytest.mark.parametrize("select", ["--tags", "--types"])
def test_embed_writes_the_per_element_bytes(data, capsys, tmp_path, arch, select):
    tagged = load_tagged_corpus(data["val_tags"])
    tagged[0] = (["caf\u00e9"] + tagged[0][0][1:], tagged[0][1])
    corpus, tags, enc = tmp_path / "val.txt", tmp_path / "val.tags", tmp_path / "enc.bin"
    save_corpus([tokens for tokens, _ in tagged], corpus)
    save_tagged_corpus(tagged, tags)
    if arch == "ffn":
        train_encoder_file(data, capsys, enc)
    else:
        Seq2SeqEncoder(6, 1, token_dim=4, rng=rng_mod.stream(8, "init")).save(enc, WeightScheme())
    types = {"caf\u00e9", tagged[1][0][0]}
    out, want = tmp_path / "tokens.tsv", tmp_path / "want.tsv"
    code, summary, _ = run(capsys, "embed", "--embeddings", data["emb"], "--model", enc,
                           "--corpus", corpus, "--out", out,
                           *(["--tags", tags] if select == "--tags" else
                             ["--types", ",".join(sorted(types))]))
    assert code == 0
    index = index_corpus(load_encoder(enc)[0], load_word2vec_text(str(data["emb"])),
                         load_corpus(corpus), types if select == "--types" else None,
                         [t for _, t in tagged] if select == "--tags" else None)
    per_element_tsv(index, want)
    assert summary["metrics"]["n_records"] == len(index) > 0
    assert "caf\u00e9" in out.read_text(encoding="utf-8")
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("command", ["embed", "knn", "train-tagger"])
def test_encoder_of_another_dim_exits_1(data, capsys, tmp_path, command):
    enc, emb = tmp_path / "enc.bin", tmp_path / "emb5.txt"
    save_untrained("embed", data, enc)  # over the d=6 table
    head, *entries = data["emb"].read_text(encoding="utf-8").splitlines()
    emb.write_text("".join(f"{line}\n" for line in
                           [f"{head.split()[0]} 5"] + [" ".join(e.split()[:6]) for e in entries]),
                   encoding="utf-8")
    argv = {"embed": ["--model", enc, "--corpus", data["val"], "--out", tmp_path / "e.tsv"],
            "knn": ["--model", enc, "--corpus", data["val"]],
            "train-tagger": ["--train", data["train_tags"], "--val", data["val_tags"],
                             "--tagset", data["tagset"], "--encoder", enc,
                             "--out", tmp_path / "t.bin"]}[command]
    code, summary, err = run(capsys, command, "--embeddings", emb, *argv)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {enc}: config.dim 6 does not match the embedding table's dim 5"]


@pytest.mark.parametrize("command", ["tag", "parse"])
@pytest.mark.parametrize("change", ["size", "dim"])
def test_model_over_another_table_exits_1(data, capsys, tmp_path, command, change):
    model, emb = tmp_path / "model.bin", tmp_path / "emb.txt"
    save_untrained(command, data, model)  # over the d=6 table
    head, *entries = data["emb"].read_text(encoding="utf-8").splitlines()
    count = int(head.split()[0])
    if change == "size":  # one entry fewer; the reserved rows make 3 more
        lines = [f"{count - 1} 6"] + entries[:-1]
        want = (f"config.vocab_size {count + 3} does not match the embedding "
                f"table's {count + 2} entries")
    else:
        lines = [f"{count} 5"] + [" ".join(e.split()[:6]) for e in entries]
        want = "config.dim 6 does not match the embedding table's dim 5"
    emb.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    corpus = data["val"] if command == "tag" else data["dep_val"]
    code, summary, err = run(capsys, command, "--embeddings", emb, "--model", model,
                             "--corpus", corpus, "--out", tmp_path / "out")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {model}: {want}"]


@pytest.mark.parametrize("flag", ["--train", "--val"])
def test_train_encoder_without_known_tokens_exits_1(data, capsys, tmp_path, flag):
    # nothing is learned from all-zero windows, and all-zero validation
    # windows score every model 0, so the initial one would be kept
    oov = tmp_path / "oov.txt"
    save_corpus([["zzz", "qqq"], ["<unk>", "yyy", "xxx"]], oov)
    files = {"--train": data["train"], "--val": data["val"], flag: oov}
    code, summary, err = run(capsys, "train-encoder", "--embeddings", data["emb"],
                             *[a for kv in files.items() for a in kv],
                             "--out", tmp_path / "enc.bin", *ENC_ARGS)
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"error: {oov}: no token is in the embeddings vocabulary" in err
    assert not (tmp_path / "enc.bin").exists()


def test_train_encoder_summary_schema(data, capsys, tmp_path):
    out = tmp_path / "enc.bin"
    summary = train_encoder_file(data, capsys, out)
    assert summary["schema_version"] == 1
    assert summary["command"] == "train-encoder"
    assert summary["model"] == str(out)
    m = summary["metrics"]
    assert m["best_val_wre"] <= m["initial_val_wre"]
    assert out.exists()
    assert summary["config"]["epochs"] == 2


def test_divergence_exits_2(data, capsys, tmp_path):
    code, _, err = run(capsys, "train-encoder", "--embeddings", data["emb"],
                       "--train", data["train"], "--val", data["val"],
                       "--out", tmp_path / "x.bin", "--epochs", 2,
                       "--batch-size", 4, "--lr", 1e14)
    assert code == 2
    assert "numerical" in err


@pytest.mark.parametrize("arch, lr", [("ffn", 0.1), ("ffn", 1e14), ("seq2seq", 1e14)])
def test_divergence_prints_no_numpy_warning(data, capsys, tmp_path, arch, lr):
    # with every warning an error, an overflow warning would escape main
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, summary, err = run(capsys, "train-encoder", "--embeddings", data["emb"],
                                 "--train", data["train"], "--val", data["val"],
                                 "--out", tmp_path / "x.bin", "--arch", arch,
                                 "--w-prime", 1, "--token-dim", 4, "--hidden", 8,
                                 "--epochs", 2, "--batch-size", 4, "--lr", lr)
    assert code == 2 and summary is None
    assert err.strip().splitlines()[-1].startswith("numerical failure: non-finite")
    assert not any("Warning" in line for line in err.splitlines())


TRAIN_INPUTS = {
    "train-encoder": lambda d: ["--train", d["train"], "--val", d["val"],
                                "--w-prime", 1, "--token-dim", 4, "--hidden", 8],
    "train-tagger": lambda d: ["--train", d["train_tags"], "--val", d["val_tags"],
                               "--tagset", d["tagset"], "--window", 0, "--hidden", 8],
    "train-parser": lambda d: ["--train", d["dep_train"], "--val", d["dep_val"],
                               "--window", 0, "--hidden", 8],
}


@pytest.mark.parametrize("command", sorted(TRAIN_INPUTS))
@pytest.mark.parametrize("flag, value", [("--epochs", 0), ("--batch-size", 0),
                                         ("--batch-size", -1)])
def test_train_rejects_epochs_or_batch_size_below_1(data, capsys, tmp_path, command,
                                                    flag, value):
    out = tmp_path / "model.bin"
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             *TRAIN_INPUTS[command](data), "--out", out, flag, value)
    assert code == 1 and summary is None
    field = flag[2:].replace("-", "_")
    # rejected before any input is loaded, so no "training ..." line precedes it
    assert err.strip().splitlines() == [f"error: {field} must be at least 1, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-tagger", "train-parser"])
@pytest.mark.parametrize("weight", ["-1", "nan", "inf"])
def test_train_rejects_bad_anchor_weight(data, capsys, tmp_path, command, weight):
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             *TRAIN_INPUTS[command](data), "--out", tmp_path / "m.bin",
                             "--update-embeddings", "--anchor-weight", weight)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: anchor weight {float(weight)} is not a finite non-negative number"]


CONFIG_ERRORS = [
    ("train-tagger", "--window", "-1", "tagger window must be non-negative"),
    ("train-tagger", "--hidden", "0", "tagger hidden size must be positive"),
    ("train-tagger", "--dropout-input", "1.5", "dropout rate 1.5 outside [0, 1)"),
    ("train-tagger", "--anchor-weight", "-1",
     "anchor weight -1.0 is not a finite non-negative number"),
    ("train-tagger", "--train-fraction", "2", "train fraction must be in (0, 1]"),
    ("train-tagger", "--train-fraction", "inf", "train fraction must be in (0, 1]"),
    ("train-tagger", "--train-fraction", "nan", "train fraction must be in (0, 1]"),
    ("train-tagger", "--train-fraction", "0", "train fraction must be in (0, 1]"),
    ("train-tagger", "--train-fraction", "-0.5", "train fraction must be in (0, 1]"),
    ("train-tagger", "--epochs", "0", "epochs must be at least 1, got 0"),
    ("train-tagger", "--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("train-tagger", "--seed", "-1", "seed must be at least 0, got -1"),
    ("train-tagger", "--lr", "-0.1", "learning_rate must be finite and at least 0, got -0.1"),
    ("train-tagger", "--lr", "nan", "learning_rate must be finite and at least 0, got nan"),
    ("train-tagger", "--momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
    ("train-tagger", "--momentum", "nan", "momentum must be in [0, 1), got nan"),
    ("train-tagger", "--patience", "-3", "patience must be at least 1, got -3"),
    ("train-tagger", "--patience", "0", "patience must be at least 1, got 0"),
    # window 0 without its center, no encoder and no features
    ("train-tagger", "--omit-center", "--window=0",
     "tagger input is empty: no embeddings, encoders, or features"),
    ("train-parser", "--window", "-2", "parser window must be >= -1"),
    ("train-parser", "--hidden", "0", "parser hidden size must be positive"),
    ("train-parser", "--anchor-weight", "nan",
     "anchor weight nan is not a finite non-negative number"),
    ("train-parser", "--window", "-1", "window=-1 with no encoders leaves no lexical input"),
    ("train-encoder", "--center-weight", "0", "center weight must be positive"),
    ("train-encoder", "--center-weight", "nan", "center weight nan is not finite"),
    ("train-encoder", "--center-weight", "inf", "center weight inf is not finite"),
    ("train-encoder", "--epochs", "0", "epochs must be at least 1, got 0"),
    ("train-encoder", "--seed", "-1", "seed must be at least 0, got -1"),
    ("train-encoder", "--w-prime", "0",
     "window radius --w-prime must be at least 1 to train, got 0"),
    ("train-encoder", "--w-prime", "-2",
     "window radius --w-prime must be at least 1 to train, got -2"),
    ("train-encoder", "--token-dim", "0", "token_dim must be positive, got 0"),
    ("train-encoder", "--hidden", "0", "hidden must be positive, got 0"),
]


@pytest.mark.parametrize("command, flag, value, message", CONFIG_ERRORS)
def test_train_config_error_exits_1_before_any_input_is_read(capsys, tmp_path, command,
                                                             flag, value, message):
    # every input is missing, so only a check made before reading one can
    # produce this message
    missing = tmp_path / "missing"
    inputs = ["--embeddings", missing, "--train", missing, "--val", missing]
    if command == "train-tagger":
        inputs += ["--tagset", missing]
    code, summary, err = run(capsys, command, *inputs, "--out", tmp_path / "m.bin",
                             flag, value)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, flags, window", [
    ("train-tagger", ["--window", "0", "--omit-center"], "window 0 with omit_center"),
    ("train-parser", ["--window", "-1"], "window -1"),
])
def test_embedding_update_without_a_type_window_exits_1_before_any_input_is_read(
        capsys, tmp_path, command, flags, window):
    missing = tmp_path / "missing"
    inputs = ["--embeddings", missing, "--train", missing, "--val", missing]
    if command == "train-tagger":
        inputs += ["--tagset", missing]
    out = tmp_path / "m.bin"
    code, summary, err = run(capsys, command, *inputs, "--encoder", missing, "--out", out,
                             *flags, "--update-embeddings")
    assert code == 1 and summary is None and not out.exists()
    assert err.strip().splitlines() == [
        f"error: update_embeddings needs a type window, and {window} has none"]


def test_train_tagger_names_both_lines_of_a_duplicate_tag(data, capsys, tmp_path):
    tagset = tmp_path / "tagset.txt"
    tagset.write_text("NN\nVB\nNN\n", encoding="utf-8")
    code, summary, err = run(capsys, "train-tagger", "--embeddings", data["emb"],
                             *TRAIN_INPUTS["train-tagger"](data), "--tagset", tagset,
                             "--out", tmp_path / "t.bin")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {tagset}:3: duplicate tag 'NN' (first at line 1)"]


def test_train_tagger_names_file_and_sentence_of_an_unknown_tag(data, capsys, tmp_path):
    tag = data["tagset"].read_text(encoding="utf-8").split()[0]
    train = tmp_path / "train.tags"
    train.write_text(f"a\t{tag}\n\nb\t{tag}\nc\tZZZ\n", encoding="utf-8")
    code, summary, err = run(capsys, "train-tagger", "--embeddings", data["emb"],
                             *TRAIN_INPUTS["train-tagger"](data), "--train", train,
                             "--out", tmp_path / "t.bin")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {train}: sentence 2: tag 'ZZZ' not in the tagset"]


@pytest.mark.parametrize("command", sorted(TRAIN_INPUTS))
@pytest.mark.parametrize("flag", ["--train", "--val"])
def test_train_on_an_empty_corpus_exits_1_naming_it(data, capsys, tmp_path, command, flag):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="utf-8")
    out = tmp_path / "m.bin"
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             *TRAIN_INPUTS[command](data), flag, empty, "--out", out)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {empty}: empty corpus"]
    assert not out.exists()


def test_train_parser_names_file_and_sentence_of_a_missing_gold_head(data, capsys,
                                                                     tmp_path):
    train = tmp_path / "train.dep"
    train.write_text("1\ta\t0\t1\n\n1\ta\t0\t1\n2\tb\t-1\t1\n", encoding="utf-8")
    code, summary, err = run(capsys, "train-parser", "--embeddings", data["emb"],
                             *TRAIN_INPUTS["train-parser"](data), "--train", train,
                             "--out", tmp_path / "p.bin")
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {train}: sentence 2: selected token 2 has no gold head"]


def test_train_parser_without_a_selected_token_exits_1_before_building(data, capsys,
                                                                      tmp_path):
    train = tmp_path / "train.dep"
    train.write_text("1\ta\t-1\t0\n2\tb\t-1\t0\n\n1\tc\t-1\t0\n", encoding="utf-8")
    out = tmp_path / "p.bin"
    code, summary, err = run(capsys, "train-parser", "--embeddings", data["emb"],
                             *TRAIN_INPUTS["train-parser"](data), "--train", train,
                             "--out", out)
    assert code == 1 and summary is None
    # no "training parser" line: the corpus is rejected before the model is built
    assert err.strip().splitlines() == [f"error: {train}: no selected tokens"]
    assert not out.exists()


def test_train_tagger_warns_at_the_majority_baseline(data, capsys, tmp_path):
    # every validation token carries one tag, so no accuracy is above the
    # 100 % majority-tag baseline
    tag = data["tagset"].read_text(encoding="utf-8").split()[0]
    val = tmp_path / "val.tags"
    save_tagged_corpus([(toks, [tag] * len(toks))
                        for toks, _ in load_tagged_corpus(data["val_tags"])], val)
    argv = ["train-tagger", "--embeddings", data["emb"], *TRAIN_INPUTS["train-tagger"](data),
            "--out", tmp_path / "t.bin", "--epochs", 5]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and "warning" not in err
    code, summary, err = run(capsys, *argv, "--val", val)
    assert code == 0 and summary.keys() == plain.keys()
    accuracy = summary["metrics"]["best_val_accuracy"]
    assert err.strip().splitlines()[-1] == (
        f"warning: {val}: best validation accuracy {accuracy:.2f}% is not above "
        "the majority-tag baseline 100.00%")


def test_train_parser_warns_at_the_chance_f1(data, capsys, tmp_path):
    # every validation sentence selects one token, whose one candidate is the
    # wall, so the chance F1 is 100 and no F1 is above it
    val = tmp_path / "val.dep"
    save_dep_corpus([DepSentence(s.tokens, [0] + [-1] * (len(s) - 1),
                                 [True] + [False] * (len(s) - 1))
                     for s in load_dep_corpus(data["dep_val"])], val)
    argv = ["train-parser", "--embeddings", data["emb"], *TRAIN_INPUTS["train-parser"](data),
            "--out", tmp_path / "p.bin", "--epochs", 3]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and "warning" not in err
    code, summary, err = run(capsys, *argv, "--val", val)
    assert code == 0 and summary.keys() == plain.keys()
    f1 = summary["metrics"]["best_val_f1"]
    assert err.strip().splitlines()[-1] == (
        f"warning: {val}: best validation F1 {f1:.2f} is not above the chance F1 100.00")


def test_same_seed_same_bytes(data, capsys, tmp_path):
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    s1 = train_encoder_file(data, capsys, out1)
    s2 = train_encoder_file(data, capsys, out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert s1["metrics"] == s2["metrics"]


def override_run(data, tmp_path, command):
    """The ``key = value`` lines and flags of a small ``command`` run."""
    if command == "train-encoder":
        return (f'embeddings = "{data["emb"]}"\ntrain = "{data["train"]}"\n'
                f'val = "{data["val"]}"\nw_prime = 1\ntoken_dim = 4\nhidden = 8\nlr = 0.02\n',
                ["--out", tmp_path / "enc.bin"])
    if command == "knn":
        save_untrained("embed", data, tmp_path / "enc.bin")
        return (f'embeddings = "{data["emb"]}"\nmodel = "{tmp_path / "enc.bin"}"\n',
                ["--corpus", data["val"]])
    return (f'embeddings = "{data["emb"]}"\ntrain = "{data["dep_train"]}"\n'
            f'val = "{data["dep_val"]}"\nepochs = 1\n',
            ["--out", tmp_path / "parser.bin"])


@pytest.mark.parametrize("command, line, flags, key, value", [
    ("train-encoder", "epochs = 1", ["--epochs", 2], "epochs", 2),
    ("train-encoder", "epochs = 1", ["--epochs=2"], "epochs", 2),
    ("train-encoder", "epochs = 1", ["--epo", 2], "epochs", 2),
    ("knn", "k = 2", ["-k5"], "k", 5),
    ("knn", "k = 2", ["-k", 5], "k", 5),
    ("train-parser", "word_features = true", ["--no-word"], "word_features", False),
    ("train-parser", "hidden = 16", ["--hid", 8], "hidden", 8),
], ids=["--epochs 2", "--epochs=2", "--epo 2", "-k5", "-k 5", "--no-word", "--hid 8"])
def test_config_file_and_flag_override(data, capsys, tmp_path, command, line, flags,
                                       key, value):
    lines, extra = override_run(data, tmp_path, command)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{lines}{line}\n", encoding="utf-8")
    code, summary, _ = run(capsys, command, "--config", cfg, *extra, *flags)
    assert code == 0
    assert summary["config"][key] == value  # a flag in any spelling beats the file
    if command == "train-encoder":
        assert summary["config"]["token_dim"] == 4  # file beats default
    elif command == "knn":
        assert len(summary["neighbors"]) == value
    else:
        _, header, _ = load_model(tmp_path / "parser.bin")
        assert header["parser"][key] == value


def test_repeated_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nepochs = 2\n", encoding="utf-8")
    code, summary, err = run(capsys, "train-encoder", "--config", cfg)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {cfg}:2: duplicate key 'epochs' (first at line 1)"]


def test_unknown_config_key_rejected(data, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "train-encoder", "--config", cfg)
    assert code == 1
    assert "bogus_key" in err


def test_config_echo_reproduces_run(data, capsys, tmp_path):
    out1 = tmp_path / "a.bin"
    summary = train_encoder_file(data, capsys, out1)
    out2 = tmp_path / "b.bin"
    echo = dict(summary["config"])
    echo["out"] = str(out2)
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in echo.items()),
                   encoding="utf-8")
    code, summary2, _ = run(capsys, "train-encoder", "--config", cfg)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert summary["metrics"] == summary2["metrics"]


@pytest.mark.parametrize("line, key", [("epochs = 2.5", "epochs"),
                                       ('window = "abc"', "window")])
def test_ill_typed_config_value_exits_1(data, capsys, tmp_path, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# tagger run\nhidden = 8\n{line}\n", encoding="utf-8")
    argv = ["train-tagger", "--config", cfg, "--embeddings", data["emb"],
            "--train", data["train_tags"], "--val", data["val_tags"],
            "--tagset", data["tagset"], "--out", tmp_path / "t.bin"]
    code, summary, err = run(capsys, *argv)
    assert code == 1 and summary is None
    assert len(err.strip().splitlines()) == 1
    assert f"{cfg}:3: {key}: " in err
    # an explicit flag overrides the bad file value
    code, summary, _ = run(capsys, *argv, f"--{key}", 1)
    assert code == 0 and summary["config"][key] == 1


def test_tagger_config_echo_reproduces_run(data, capsys, tmp_path):
    # the echo holds a list (encoder), switches and nulls
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    code, summary, _ = run(capsys, "train-tagger", "--embeddings", data["emb"],
                           "--train", data["train_tags"], "--val", data["val_tags"],
                           "--tagset", data["tagset"], "--out", out1, "--window", 1,
                           "--hidden", 8, "--encoder", enc, "--update-embeddings",
                           "--epochs", 2, "--lr", 0.05, "--seed", 5)
    assert code == 0
    echo = dict(summary["config"], out=str(out2))
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in echo.items()),
                   encoding="utf-8")
    code, summary2, _ = run(capsys, "train-tagger", "--config", cfg)
    assert code == 0
    assert summary2["config"] == echo
    assert out1.read_bytes() == out2.read_bytes()


def test_full_pipeline(data, capsys, tmp_path):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)

    # embed -> TSV
    tsv = tmp_path / "emb.tsv"
    code, summary, _ = run(capsys, "embed", "--embeddings", data["emb"],
                           "--model", enc, "--corpus", data["val"],
                           "--tags", data["val_tags"], "--out", tsv)
    assert code == 0 and summary["metrics"]["n_records"] > 0
    assert tsv.exists()

    # type-filtered export: every validation sentence has exactly one pivot
    code, summary, _ = run(capsys, "embed", "--embeddings", data["emb"],
                           "--model", enc, "--corpus", data["val"],
                           "--types", "pv", "--out", tmp_path / "pv.tsv")
    assert code == 0 and summary["metrics"]["n_records"] == 10

    # knn
    code, summary, err = run(capsys, "knn", "--embeddings", data["emb"],
                             "--model", enc, "--corpus", data["val"],
                             "--sentence", 0, "--position", 3, "-k", 2,
                             "--same-type")
    assert code == 0
    assert len(summary["neighbors"]) == 2
    assert all(n["token"] == summary["query"]["token"]
               for n in summary["neighbors"])
    assert "Q " in err

    # tagger
    tagger = tmp_path / "tagger.bin"
    code, summary, _ = run(capsys, "train-tagger", "--embeddings", data["emb"],
                           "--train", data["train_tags"], "--val", data["val_tags"],
                           "--tagset", data["tagset"], "--out", tagger,
                           "--window", 0, "--hidden", 8, "--encoder", enc,
                           "--epochs", 10, "--batch-size", 16, "--lr", 0.05,
                           "--seed", 5)
    assert code == 0
    assert summary["metrics"]["best_val_accuracy"] > 20.0

    pred_tags = tmp_path / "pred.tags"
    code, summary, _ = run(capsys, "tag", "--embeddings", data["emb"],
                           "--model", tagger, "--corpus", data["val"],
                           "--encoder", enc, "--out", pred_tags)
    assert code == 0 and pred_tags.exists()

    code, summary, _ = run(capsys, "eval-tags", "--pred", pred_tags,
                           "--gold", data["val_tags"])
    assert code == 0
    assert 0.0 <= summary["metrics"]["accuracy"] <= 100.0

    # parser
    parser = tmp_path / "parser.bin"
    code, summary, _ = run(capsys, "train-parser", "--embeddings", data["emb"],
                           "--train", data["dep_train"], "--val", data["dep_val"],
                           "--out", parser, "--window", 0, "--hidden", 8,
                           "--epochs", 10, "--batch-size", 4, "--lr", 0.05,
                           "--seed", 5)
    assert code == 0

    pred_dep = tmp_path / "pred.dep"
    code, summary, _ = run(capsys, "parse", "--embeddings", data["emb"],
                           "--model", parser, "--corpus", data["dep_val"],
                           "--out", pred_dep)
    assert code == 0 and pred_dep.exists()

    code, summary, _ = run(capsys, "eval-parse", "--pred", pred_dep,
                           "--gold", data["dep_val"])
    assert code == 0
    m = summary["metrics"]
    assert set(m) == {"precision", "recall", "f1"}

    arcs = tmp_path / "arcs.tsv"
    code, summary, _ = run(capsys, "export-arc-scores", "--embeddings",
                           data["emb"], "--model", parser, "--corpus",
                           data["dep_val"], "--out", arcs)
    assert code == 0
    assert summary["metrics"]["n_lines"] == len(arcs.read_text().splitlines())

    # n-gram index build step
    ngrams = tmp_path / "ngrams.tsv"
    code, summary, _ = run(capsys, "build-ngrams", "--train", data["train_tags"],
                           "--out", ngrams, "--min-count", 3)
    assert code == 0
    assert summary["metrics"]["n_ngrams"] > 0


def test_tag_model_requires_same_encoders(data, capsys, tmp_path):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)
    tagger = tmp_path / "tagger.bin"
    code, _, _ = run(capsys, "train-tagger", "--embeddings", data["emb"],
                     "--train", data["train_tags"], "--val", data["val_tags"],
                     "--tagset", data["tagset"], "--out", tagger,
                     "--window", 0, "--hidden", 8, "--encoder", enc,
                     "--epochs", 1, "--seed", 5)
    assert code == 0
    # tagging without re-supplying the encoder must fail cleanly
    code, _, err = run(capsys, "tag", "--embeddings", data["emb"],
                       "--model", tagger, "--corpus", data["val"],
                       "--out", tmp_path / "p.tags")
    assert code == 1
    assert "encoder" in err


def test_train_tagger_extended_resources(data, capsys, tmp_path):
    # resource files for the extended stack, exercised through the CLI
    brown = tmp_path / "brown.tsv"
    brown.write_text("0010\tpv\t10\n1100\tla\t8\n1101\tlb\t7\n", encoding="utf-8")
    tagdict = tmp_path / "dict.tsv"
    tagdict.write_text("pv\tA\t5\npv\tB\t4\nla\tT\t9\n", encoding="utf-8")
    names = tmp_path / "names.txt"
    names.write_text("f0\nf1\n", encoding="utf-8")
    ngrams = tmp_path / "ngrams.tsv"
    code, summary, _ = run(capsys, "build-ngrams", "--train", data["train_tags"],
                           "--out", ngrams, "--min-count", 2)
    assert code == 0

    tagger = tmp_path / "ext.bin"
    code, summary, _ = run(capsys, "train-tagger", "--embeddings", data["emb"],
                           "--train", data["train_tags"], "--val", data["val_tags"],
                           "--tagset", data["tagset"], "--out", tagger,
                           "--window", 0, "--hidden", 16, "--word-features",
                           "--extended", "--brown", brown, "--tag-dict", tagdict,
                           "--name-list", names, "--ngrams", ngrams,
                           "--dropout-input", 0.2, "--dropout-hidden", 0.4,
                           "--epochs", 5, "--lr", 0.05, "--seed", 5)
    assert code == 0
    assert summary["metrics"]["best_val_accuracy"] > 20.0

    pred = tmp_path / "ext.tags"
    code, _, _ = run(capsys, "tag", "--embeddings", data["emb"],
                     "--model", tagger, "--corpus", data["val"],
                     "--extended", "--brown", brown, "--tag-dict", tagdict,
                     "--name-list", names, "--ngrams", ngrams, "--out", pred)
    assert code == 0 and pred.exists()


def test_train_encoder_seq2seq(data, capsys, tmp_path):
    out = tmp_path / "s2s.bin"
    code, summary, _ = run(
        capsys, "train-encoder", "--embeddings", data["emb"], "--train",
        data["train"], "--val", data["val"], "--out", out, "--arch", "seq2seq",
        "--w-prime", 1, "--token-dim", 4, "--epochs", 1, "--batch-size", 8,
        "--lr", 0.02, "--seed", 5)
    assert code == 0
    assert summary["config"]["arch"] == "seq2seq"
    assert out.exists()


def test_train_fraction_subsamples(data, capsys, tmp_path):
    out = tmp_path / "t.bin"
    code, summary, _ = run(capsys, "train-tagger", "--embeddings", data["emb"],
                           "--train", data["train_tags"], "--val", data["val_tags"],
                           "--tagset", data["tagset"], "--out", out,
                           "--window", 0, "--hidden", 8, "--epochs", 1,
                           "--train-fraction", 0.5, "--seed", 5)
    assert code == 0
    assert summary["metrics"]["n_train_sentences"] == 15


def tsv_argv(fmt, data, path, tmp_path):
    """A command that reads ``path`` as a file of format ``fmt``."""
    if fmt == "tagged":
        return ["build-ngrams", "--train", path, "--out", tmp_path / "ngrams.tsv"]
    if fmt == "dep":
        return ["eval-parse", "--pred", path, "--gold", data["dep_val"]]
    # resources load before the model, so the model file need not exist
    return ["tag", "--embeddings", data["emb"], "--model", tmp_path / "unused.bin",
            "--corpus", data["val"], "--out", tmp_path / "out.tags", "--extended",
            {"brown": "--brown", "tagdict": "--tag-dict", "ngrams": "--ngrams"}[fmt], path]


@pytest.mark.parametrize("fmt, text, line, message", [
    ("tagged", "a\tNN\n\nb\tNN\tX\n", 3, "expected 2 tab-separated fields, got 3"),
    ("tagged", "a\tNN\n\tNN\n", 2, "field 1 is empty"),
    ("dep", "1\ta\t0\t1\n2\tb\t1\n", 2, "expected 4 tab-separated fields, got 3"),
    ("dep", "1\t\t0\t1\n", 1, "field 2 is empty"),
    ("dep", "1\ta\t0\t1\n\n1\tb\tx\t1\n", 3, "field 3 is not an integer: 'x'"),
    ("dep", "1.0\ta\t0\t1\n", 1, "field 1 is not an integer: '1.0'"),
    ("dep", "1\ta\t0\t7\n", 1, "field 4 is not 0 or 1: '7'"),
    ("dep", "1\ta\t0\t1\n\n1\tb\t0\t1\n2\tc\t5\t1\n", 3, "token 2 has invalid head 5"),
    ("dep", "1\ta\t0\t1\n\n1\tb\t0\t1\n3\tc\t1\t1\n", 3, "token indices are not 1..n"),
    ("brown", "0010\tthe\t100\n0011\tcat\n", 2, "expected 3 tab-separated fields, got 2"),
    ("brown", "0010\t\t100\n", 1, "field 2 is empty"),
    ("brown", "0010\tthe\tmany\n", 1, "field 3 is not an integer: 'many'"),
    ("tagdict", "the\tDT\t90\n\nthe\tNN\n", 3, "expected 3 tab-separated fields, got 2"),
    ("tagdict", "the\tDT\t\n", 1, "field 3 is empty"),
    ("tagdict", "the\tDT\tx\n", 1, "field 3 is not an integer: 'x'"),
    ("ngrams", "th\t0\nhe\n", 2, "expected 2 tab-separated fields, got 1"),
    ("ngrams", "\t0\n", 1, "field 1 is empty"),
    ("ngrams", "th\tzero\n", 1, "field 2 is not an integer: 'zero'"),
    ("tagdict", "the\tDT\t90\nthe\tNN\t-3\n", 2, "field 3 is a negative count: -3"),
    ("ngrams", "th\t0\nhe\t1\nth\t0\n", 3, "duplicate n-gram 'th' (first at line 1)"),
    ("ngrams", "th\t0\n\nth\t1\n", 3, "duplicate n-gram 'th' (first at line 1)"),
    ("ngrams", "th\t1\nhe\t1\n", 2, "duplicate slot 1 (first at line 1)"),
    ("ngrams", "th\t0\nhe\t2\n", 2, "slot 2 outside 0..1: char n-gram slots must be dense"),
    ("ngrams", "th\t-1\n", 1, "slot -1 outside 0..0: char n-gram slots must be dense"),
])
def test_malformed_tsv_field_exits_1_naming_line(data, capsys, tmp_path, fmt, text,
                                                 line, message):
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text, encoding="utf-8")
    code, summary, err = run(capsys, *tsv_argv(fmt, data, path, tmp_path))
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {path}:{line}: {message}"]


def input_argv(flag, data, path, tmp_path):
    """A command that reads ``path`` through ``flag`` before it opens any
    other input that could fail."""
    unused = tmp_path / "unused.bin"
    tag = ["tag", "--embeddings", data["emb"], "--model", unused, "--corpus", data["val"],
           "--out", tmp_path / "out.tags", "--extended", flag, path]
    return {
        "--embeddings": ["embed", "--embeddings", path, "--model", unused,
                         "--corpus", data["val"], "--out", tmp_path / "out.tsv"],
        "--train": ["train-encoder", "--embeddings", data["emb"], "--train", path,
                    "--val", data["val"], "--out", unused],
        "--tagset": ["train-tagger", "--embeddings", data["emb"], "--train",
                     data["train_tags"], "--val", data["val_tags"], "--tagset", path,
                     "--out", unused],
        "--name-list": tag, "--brown": tag, "--tag-dict": tag, "--ngrams": tag,
        "--pred": ["eval-tags", "--pred", path, "--gold", data["val_tags"]],
        "--gold": ["eval-parse", "--pred", data["dep_val"], "--gold", path],
        "--config": ["eval-tags", "--config", path, "--pred", data["val_tags"],
                     "--gold", data["val_tags"]],
    }[flag]


@pytest.mark.parametrize("flag, content, line, byte", [
    # past the text decoder's first chunk, so its error cannot give the line
    ("--embeddings", b"2001 1\n" + b"".join(b"w%d 1\n" % k for k in range(2000))
     + b"w\xff 1\n", 2002, 0xff),
    ("--train", b"a b\nc \xff d\n", 2, 0xff),
    ("--tagset", b"NN\nV\xffB\n", 2, 0xff),
    ("--name-list", b"Paris\nM\xfcnchen\n", 2, 0xfc),
    ("--brown", b"0010\tthe\t100\n0011\tc\xe9t\t5\n", 2, 0xe9),
    ("--tag-dict", b"the\tDT\t90\r\nthe\tNN\xff\t3\r\n", 2, 0xff),
    ("--ngrams", b"th\t0\rhe\t1\r\xff\t2\n", 3, 0xff),
    ("--pred", b"a\tN\xff\n", 1, 0xff),
    ("--gold", b"1\ta\t0\t1\n\n1\tb\xff\t0\t1\n", 3, 0xff),
    ("--config", b"seed = 1\n# caf\xe9\n", 2, 0xe9),
])
def test_input_that_is_not_utf8_exits_1_naming_line(data, capsys, tmp_path, flag, content,
                                                    line, byte):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    code, summary, err = run(capsys, *input_argv(flag, data, path, tmp_path))
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {path}:{line}: byte 0x{byte:02x} is not UTF-8"]


@pytest.mark.parametrize("command, pred_text, gold_text", [
    ("eval-tags", "a\tT0\nb\tT1\n", "x\tT0\ny\tT1\n"),
    ("eval-parse", "1\ta\t0\t1\n\n1\tb\t0\t1\n", "1\ta\t0\t1\n\n1\tc\t0\t1\n"),
])
def test_eval_rejects_different_tokens(capsys, tmp_path, command, pred_text, gold_text):
    pred, gold = tmp_path / "pred.tsv", tmp_path / "gold.tsv"
    pred.write_text(pred_text, encoding="utf-8")
    gold.write_text(gold_text, encoding="utf-8")
    code, summary, err = run(capsys, command, "--pred", pred, "--gold", gold)
    assert code == 1 and summary is None
    sentence = 1 if command == "eval-tags" else 2
    assert err.strip().splitlines() == [
        f"error: {pred} and {gold}: the tokens of sentence {sentence} differ"]


@pytest.mark.parametrize("command, text", [("eval-tags", "a\tT0\n"),
                                           ("eval-parse", "1\ta\t0\t1\n")])
def test_eval_rejects_different_sentence_counts(capsys, tmp_path, command, text):
    pred, gold = tmp_path / "pred.tsv", tmp_path / "gold.tsv"
    pred.write_text(text, encoding="utf-8")
    gold.write_text(text + "\n" + text, encoding="utf-8")
    code, summary, err = run(capsys, command, "--pred", pred, "--gold", gold)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {pred} and {gold}: the sentence counts differ, 1 and 2"]


@pytest.mark.parametrize("command", ["eval-tags", "eval-parse"])
@pytest.mark.parametrize("empty_text", ["", "\n\n"], ids=["zero-bytes", "blank-lines"])
@pytest.mark.parametrize("flags", [("--pred",), ("--gold",), ("--pred", "--gold")],
                         ids=["pred", "gold", "both"])
def test_eval_rejects_an_empty_corpus_naming_it(capsys, tmp_path, command, empty_text,
                                                flags):
    empty, other = tmp_path / "empty.tsv", tmp_path / "other.tsv"
    empty.write_text(empty_text, encoding="utf-8")
    other.write_text("a\tT0\n" if command == "eval-tags" else "1\ta\t0\t1\n",
                     encoding="utf-8")
    files = {"--pred": other, "--gold": other} | dict.fromkeys(flags, empty)
    code, summary, err = run(capsys, command, *(a for item in files.items() for a in item))
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: {empty}: empty corpus"]


@pytest.mark.parametrize("command, tensor", [("tag", "net.0.W"), ("parse", "net.1.b"),
                                             ("embed", "enc.0.W")])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_with_non_finite_tensor_exits_1(data, capsys, tmp_path, command, tensor,
                                              value):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_untrained(command, data, good)
    kind, config, tensors = load_model(good)
    tensors[tensor].flat[-1] = value
    save_model(bad, kind, config, tensors)
    corpus = data["dep_val"] if command == "parse" else data["val"]
    out = tmp_path / "out.txt"
    code, summary, err = run(capsys, command, "--embeddings", data["emb"],
                             "--model", bad, "--corpus", corpus, "--out", out)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [
        f"error: {bad}: tensor {tensor!r} has a non-finite value"]
    assert not out.exists()


# -- fuzzing the commands that read a model file ------------------------------------

FUZZ_COMMANDS = ["tag", "parse", "embed", "knn"]


@pytest.fixture(scope="module")
def fuzz_inputs(data):
    """Originals of the fuzzed commands' inputs: the data files and a small
    untrained model per command (an encoder for ``embed`` and ``knn``)."""
    inputs = {key: data[key] for key in ("emb", "val", "dep_val")}
    for command in FUZZ_COMMANDS:
        inputs[command] = data["root"] / f"fuzz_{command}.bin"
        save_untrained(command, data, inputs[command], hidden=1)
    return inputs


def fuzz_argv(command, files, model):
    corpus = files["dep_val"] if command == "parse" else files["val"]
    argv = [command, "--embeddings", files["emb"], "--model", model, "--corpus", corpus]
    return argv + ([] if command == "knn" else ["--out", files["out"]])


def exit_code_of(argv):
    """``main(argv)``, asserting that it exits 0, or 1 with exactly one stderr
    line starting ``error:``.  Every warning is an error, so no exception and
    no warning may escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    lines = err.getvalue().strip().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1
                         and lines[0].startswith("error:")), (code, lines)
    return code


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_every_truncated_model_exits_1(data, fuzz_inputs, command):
    blob = fuzz_inputs[command].read_bytes()
    bad = data["root"] / "truncated.bin"
    files = dict(fuzz_inputs, out=data["root"] / "fuzz.out")
    for n in range(len(blob)):
        bad.write_bytes(blob[:n])
        assert exit_code_of(fuzz_argv(command, files, bad)) == 1


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_model_with_a_replaced_header_byte_exits_cleanly(data, fuzz_inputs, command,
                                                         pos, byte):
    """One byte of the magic, version, length or JSON header replaced.

    The tensor payload is covered only by the non-finite cases of
    ``test_model_with_non_finite_tensor_exits_1``: container version 1 has no
    checksum, so a payload byte change that yields another finite weight is a
    valid model and cannot be detected.
    """
    blob = bytearray(fuzz_inputs[command].read_bytes())
    hlen = struct.unpack("<I", blob[8:12])[0]
    blob[pos % (12 + hlen)] = byte
    bad = data["root"] / "replaced.bin"
    bad.write_bytes(bytes(blob))
    exit_code_of(fuzz_argv(command, dict(fuzz_inputs, out=data["root"] / "fuzz.out"), bad))


def option_names(command):
    commands = next(a for a in build_arg_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return sorted(a.dest for a in commands.choices[command]._actions if a.dest != "help")


JUNK_KEYS = st.text(string.ascii_letters + "_-", min_size=1, max_size=10)
JUNK_TEXT = st.text(max_size=10)
JUNK_VALUES = st.one_of(
    st.integers(-2, 3), st.integers(), st.floats(), st.booleans(), st.none(), JUNK_TEXT,
    st.lists(st.one_of(JUNK_TEXT, st.integers()), max_size=2),
    st.sampled_from(["euclidean", "cosine", "pv", ",", ""]))


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@given(case=st.data())
def test_fuzzed_config_file_exits_cleanly(data, fuzz_inputs, command, case):
    """A ``--config`` file of the command's valid options, then lines of its
    real option names and junk keys with junk values, file paths or raw text."""
    root = data["root"] / "fuzz_config"
    root.mkdir(exist_ok=True)
    files = {}
    for key, original in fuzz_inputs.items():  # a command may overwrite any of them
        files[key] = root / original.name
        shutil.copyfile(original, files[key])
    files["out"] = root / "out.txt"
    argv = fuzz_argv(command, files, files[command])
    lines = [f"{flag[2:]} = {json.dumps(str(value))}"
             for flag, value in zip(argv[1::2], argv[2::2])]
    keys = st.sampled_from(option_names(command))
    paths = st.sampled_from([str(p) for p in files.values()] + [str(root), str(root / "no")])
    values = st.one_of(JUNK_VALUES.map(json.dumps), paths.map(json.dumps), JUNK_TEXT)
    for _ in range(case.draw(st.integers(1, 4))):
        junk_key = case.draw(st.sampled_from([False, False, True]))
        key = case.draw(JUNK_KEYS if junk_key else keys)
        value = case.draw(values)
        raw = case.draw(st.sampled_from([False] * 9 + [True]))  # not "key = value"
        lines.append(value if raw else f"{key} = {value}")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)  # a junk relative --out path is written here
    try:
        exit_code_of([command, "--config", cfg])
    finally:
        os.chdir(cwd)
