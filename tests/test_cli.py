import json
import struct
import warnings

import numpy as np
import pytest

from tokembed import cli
from tokembed import rng as rng_mod
from tokembed.analysis import nearest_neighbors
from tokembed.cli import main
from tokembed.embeddings import (load_corpus, load_word2vec_text, save_corpus,
                                 save_word2vec_text)
from tokembed.encoder import FfnEncoder, WeightScheme, WindowEncoder, load_encoder
from tokembed.nn import Dense, LstmCell
from tokembed.parser import Parser, ParserConfig, save_dep_corpus
from tokembed.serialize import load_model, save_model
from tokembed.synthetic import (chain_dep_corpus, pivot_tag_corpus,
                                toy_embedding_table)
from tokembed.tagger import Tagger, TaggerConfig, save_tagged_corpus


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


def save_untrained(command, data, path):
    """A model file of the kind ``command`` reads."""
    table = load_word2vec_text(str(data["emb"]))
    if command == "tag":
        tagset = data["tagset"].read_text(encoding="utf-8").split()
        Tagger(TaggerConfig(window=0, hidden=4), tagset, table).save(path)
    elif command == "parse":
        Parser(ParserConfig(window=0, hidden=4), table).save(path)
    else:
        FfnEncoder(table.dim, 1, token_dim=4, hidden=8).save(path, WeightScheme())


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
    seen = []

    def recording(query, index, k, metric):
        seen.append((query, index))
        return nearest_neighbors(query, index, k, metric)

    encoded = []
    encode = WindowEncoder.encode

    def counting_encode(self, table, windows):
        encoded.append(len(windows))
        return encode(self, table, windows)

    monkeypatch.setattr(cli, "nearest_neighbors", recording)
    monkeypatch.setattr(WindowEncoder, "encode", counting_encode)
    sentence = load_corpus(str(data["val"]))[1]
    assert sentence[2] == "lb"
    for extra, indexed in ((["--same-type"], True), ([], True), (["--types", "pv"], False)):
        code, summary, _ = run(capsys, "knn", "--embeddings", data["emb"],
                               "--model", enc, "--corpus", data["val"],
                               "--sentence", 1, "--position", 2, "-k", 2, *extra)
        assert code == 0 and summary["query"]["token"] == "lb"
        query, index = seen.pop()
        assert query.identity == (1, 2)
        own = [r for r in index if r.identity == query.identity]
        assert sum(encoded) == len(index) + (0 if indexed else len(sentence))
        encoded.clear()
        if indexed:
            assert np.array_equal(query.embedding.view(np.uint32),
                                  own[0].embedding.view(np.uint32))
        else:  # the filter rejects the query's type: it is encoded on its own
            assert own == []
            table = load_word2vec_text(str(data["emb"]))
            direct = load_encoder(enc)[0].encode_sentence(table, table.vocab.to_ids(sentence))
            np.testing.assert_allclose(query.embedding, direct[2], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("k", [0, -1])
def test_knn_rejects_k_below_1(data, capsys, tmp_path, k):
    enc = tmp_path / "enc.bin"
    train_encoder_file(data, capsys, enc)
    code, summary, err = run(capsys, "knn", "--embeddings", data["emb"],
                             "--model", enc, "--corpus", data["val"], "-k", k)
    assert code == 1 and summary is None
    assert err.strip().splitlines() == [f"error: -k must be at least 1, got {k}"]


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
    # the one line after the "training ..." progress line
    assert err.strip().splitlines()[1:] == [f"error: {field} must be at least 1, got {value}"]
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


def test_same_seed_same_bytes(data, capsys, tmp_path):
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    s1 = train_encoder_file(data, capsys, out1)
    s2 = train_encoder_file(data, capsys, out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert s1["metrics"] == s2["metrics"]


def test_config_file_and_flag_override(data, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f'embeddings = "{data["emb"]}"\n'
        f'train = "{data["train"]}"\n'
        f'val = "{data["val"]}"\n'
        "epochs = 1\n"
        "w_prime = 1\n"
        "token_dim = 4\n"
        "hidden = 8\n"
        "lr = 0.02\n",
        encoding="utf-8")
    out = tmp_path / "enc.bin"
    code, summary, _ = run(capsys, "train-encoder", "--config", cfg,
                           "--out", out, "--epochs", 2)
    assert code == 0
    assert summary["config"]["epochs"] == 2  # flag beats file
    assert summary["config"]["token_dim"] == 4  # file beats default


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
