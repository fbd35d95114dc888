import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from tokembed import encoder
from tokembed import rng as rng_mod
from tokembed.analysis import (DISTANCE_BLOCK, EXPORT_BLOCK, TokenRecord, distances,
                               export_embeddings_tsv, index_corpus,
                               load_embeddings_tsv, nearest_neighbors)
from tokembed.encoder import ENCODE_BLOCK, FfnEncoder, Seq2SeqEncoder
from tokembed.synthetic import toy_embedding_table


@pytest.fixture
def setup():
    rng = rng_mod.stream(60, "data")
    table = toy_embedding_table([f"w{k}" for k in range(6)], 4, rng)
    model = FfnEncoder(4, 1, token_dim=3, hidden=6, rng=rng_mod.stream(60, "init"))
    return table, model


def test_index_counts_with_filter(setup):
    table, model = setup
    sents = [["2", "w0", "2"], ["w1", "2"], ["2", "2"]]
    # "2" is out of vocabulary here, which is fine: it still gets records
    index = index_corpus(model, table, sents, type_filter={"2"})
    assert len(index) == 5
    assert all(r.token == "2" for r in index)


def test_index_counts_without_filter(setup):
    table, model = setup
    sents = [["w0"] * 10 for _ in range(10)]
    assert len(index_corpus(model, table, sents)) == 100


def test_index_embeddings_match_direct_encoding(setup):
    table, model = setup
    sents = [["w0", "w1", "w2"], ["w3", "w4"]]
    index = index_corpus(model, table, sents)
    for rec in index:
        ids = table.vocab.to_ids(sents[rec.sentence_id])
        direct = model.encode_sentence(table, ids)[rec.position]
        assert np.allclose(rec.embedding, direct, atol=1e-12)


def test_index_context_and_tags(setup):
    table, model = setup
    sents = [["w0", "w1", "w2", "w3"]]
    index = index_corpus(model, table, sents, tags=[["A", "B", "C", "D"]])
    rec = index[1]
    assert rec.left == "w0" and rec.right == "w2"
    assert rec.tag == "B"
    assert rec.snippet() == "[ w0 <w1> w2 ]"
    assert index[0].snippet() == "[ <w0> w1 ]"


# -- batched index against a per-sentence reference ---------------------------

WORDS = [f"w{k}" for k in range(6)] + ["oov"]
TABLE = toy_embedding_table(WORDS[:6], 4, rng_mod.stream(62, "data"))
ENCODERS = {
    "ffn": FfnEncoder(4, 2, token_dim=3, hidden=6, rng=rng_mod.stream(62, "init")),
    "seq2seq": Seq2SeqEncoder(4, 1, token_dim=3, rng=rng_mod.stream(63, "init")),
}


def per_sentence_index(model, table, sentences, type_filter, tags):
    """(identity, token, left, right, tag, embedding) of every admitted token,
    each sentence encoded on its own."""
    w = model.w_prime
    out = []
    for si, toks in enumerate(sentences):
        embs = model.encode_sentence(table, table.vocab.to_ids(toks))
        for j, tok in enumerate(toks):
            if type_filter is None or tok in type_filter:
                out.append(((si, j), tok, " ".join(toks[max(0, j - w):j]),
                            " ".join(toks[j + 1:j + 1 + w]),
                            tags[si][j] if tags is not None else None, embs[j]))
    return out


def check_index_against_reference(model, sentences, type_filter, tags):
    rows = []
    codes = model._codes

    def counting_codes(E):
        rows.append(len(E))
        return codes(E)

    with mock.patch.object(model, "_codes", counting_codes):
        index = index_corpus(model, TABLE, sentences, type_filter, tags)
    want = per_sentence_index(model, TABLE, sentences, type_filter, tags)
    assert [(r.identity, r.token, r.left, r.right, r.tag) for r in index] == \
        [w[:5] for w in want]
    for rec, w in zip(index, want):
        assert rec.embedding.dtype == w[5].dtype
        np.testing.assert_allclose(rec.embedding, w[5], rtol=1e-5, atol=1e-6)
    assert sum(rows) == len(index)
    assert all(0 < n <= encoder.ENCODE_BLOCK for n in rows)
    return index


@pytest.mark.parametrize("arch", sorted(ENCODERS))
@given(sentences=st.lists(st.lists(st.sampled_from(WORDS), max_size=5), max_size=8),
       type_filter=st.none() | st.sets(st.sampled_from(WORDS)),
       tagged=st.booleans(),
       block=st.sampled_from([1, 2, 3, 7]))
def test_index_matches_per_sentence_encoding(arch, sentences, type_filter, tagged,
                                             block):
    tags = [[f"T{len(t)}{j}" for j in range(len(t))] for t in sentences] if tagged else None
    with mock.patch.object(encoder, "ENCODE_BLOCK", block):
        check_index_against_reference(ENCODERS[arch], sentences, type_filter, tags)


@pytest.mark.parametrize("arch", sorted(ENCODERS))
def test_index_across_the_encode_block_boundary(arch):
    rng = rng_mod.stream(64, "data")
    sentences = [[WORDS[k] for k in rng.integers(len(WORDS), size=rng.integers(1, 6))]
                 for _ in range(ENCODE_BLOCK)]
    assert sum(map(len, sentences)) > 2 * ENCODE_BLOCK
    index = check_index_against_reference(ENCODERS[arch], sentences, None, None)
    assert len(index) == sum(map(len, sentences))
    check_index_against_reference(ENCODERS[arch], sentences, {"w1", "oov"}, None)


def make_index(embs):
    return [TokenRecord(k, 0, "q", np.asarray(e, dtype=np.float64))
            for k, e in enumerate(embs)]


def test_nn_excludes_self():
    index = make_index([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    out = nearest_neighbors(index[0], index, k=2)
    assert [rec.sentence_id for rec, _ in out] == [1, 2]
    assert out[0][1] >= 0.0


def test_nn_duplicate_at_distance_zero():
    index = make_index([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    out = nearest_neighbors(index[0], index, k=1)
    assert out[0][0].sentence_id == 1
    assert out[0][1] == 0.0


def test_nn_ties_break_by_index_order():
    index = make_index([[0.0], [1.0], [-1.0], [1.0]])
    out = nearest_neighbors(index[0], index, k=3)
    assert [rec.sentence_id for rec, _ in out] == [1, 2, 3]


def test_nn_k_larger_than_index_returns_all_sorted():
    index = make_index([[0.0], [3.0], [1.0], [2.0]])
    out = nearest_neighbors(index[0], index, k=99)
    assert [rec.sentence_id for rec, _ in out] == [2, 3, 1]
    dists = [d for _, d in out]
    assert dists == sorted(dists)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_blocked_nn_equals_unblocked_reference(metric):
    rng = rng_mod.stream(65, "data")
    embs = rng.normal(size=(2 * DISTANCE_BLOCK + 37, 5)).astype(np.float32)
    embs[DISTANCE_BLOCK + 3] = embs[5]  # a tie across a block boundary
    embs[7] = 0.0
    index = [TokenRecord(k, 0, "q", e) for k, e in enumerate(embs)]
    query = index[5]
    got = nearest_neighbors(query, index, k=len(index), metric=metric)
    dists = distances(query.embedding, np.stack(embs), metric)
    order = [k for k in np.argsort(dists, kind="stable") if k != 5]
    assert [rec.sentence_id for rec, _ in got] == order
    assert np.array_equal(np.array([d for _, d in got]).view(np.uint64),
                          dists[order].view(np.uint64))
    assert got[0][0] is index[DISTANCE_BLOCK + 3] and got[0][1] == 0.0


def test_nn_empty_index_rejected():
    with pytest.raises(ValueError):
        nearest_neighbors(make_index([[0.0]])[0], [], k=1)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_nn_matches_brute_force(metric):
    for size in (1, 5, 100, 1000):
        rng = rng_mod.stream(size, "data")
        embs = rng.normal(size=(size, 6))
        index = make_index(embs)
        query = TokenRecord(10 ** 9, 0, "q", rng.normal(size=6))
        got = nearest_neighbors(query, index, k=size, metric=metric)
        dists = distances(query.embedding, embs, metric)
        expected = sorted(range(size), key=lambda k: (dists[k], k))
        assert [rec.sentence_id for rec, _ in got] == expected
        got_d = [d for _, d in got]
        assert got_d == sorted(got_d)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_self_distance_exactly_zero(metric):
    rng = rng_mod.stream(61, "data")
    v = rng.normal(size=5)
    assert distances(v, v[None, :], metric)[0] == 0.0


def test_cosine_zero_vector_convention():
    z = np.zeros(3)
    assert distances(z, z[None, :], "cosine")[0] == 0.0


def test_unknown_metric():
    with pytest.raises(ValueError):
        distances(np.zeros(2), np.zeros((1, 2)), "manhattan")


# -- TSV export -----------------------------------------------------------------


def test_export_row_count(setup, tmp_path):
    table, model = setup
    sents = [["w0", "w1", "w2", "w3", "w4"]]
    index = index_corpus(model, table, sents)
    path = tmp_path / "emb.tsv"
    export_embeddings_tsv(index, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6  # header + 5 records


def test_export_reload_round_trip(setup, tmp_path):
    table, model = setup
    sents = [["w0", "w1", "w2"], ["w3", "w4", "w5"]]
    index = index_corpus(model, table, sents, tags=[["A", "B", "C"], ["D", "E", "F"]])
    path = tmp_path / "emb.tsv"
    export_embeddings_tsv(index, path)
    reloaded = load_embeddings_tsv(str(path))
    assert len(reloaded) == len(index)
    for a, b in zip(index, reloaded):
        assert a.identity == b.identity
        assert a.token == b.token and a.tag == b.tag
        assert a.left == b.left and a.right == b.right
        assert np.allclose(a.embedding, b.embedding, atol=1e-5)


def test_reload_rejects_bytes_that_are_not_utf8(setup, tmp_path):
    table, model = setup
    path = tmp_path / "emb.tsv"
    export_embeddings_tsv(index_corpus(model, table, [["w0", "w1"]]), path)
    path.write_bytes(path.read_bytes().replace(b"\t1\tw1\t", b"\t1\tw\xff\t"))
    with pytest.raises(ValueError, match=r":3: byte 0xff is not UTF-8"):
        load_embeddings_tsv(str(path))


@pytest.mark.parametrize("column, value, message", [
    (0, "x", ":3: field 'sentence_id' is not an integer: 'x'"),
    (1, "1.5", ":3: field 'position' is not an integer: '1.5'"),
    (8, "", ":3: field 'e2' is not a number: ''"),
    (7, "0,5", ":3: field 'e1' is not a number: '0,5'"),
])
def test_reload_names_the_malformed_field(setup, tmp_path, column, value, message):
    table, model = setup
    path = tmp_path / "emb.tsv"
    export_embeddings_tsv(index_corpus(model, table, [["w0", "w1"]]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[2].split("\t")
    parts[column] = value
    lines[2] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        load_embeddings_tsv(str(path))
    assert str(e.value) == str(path) + message


def test_export_empty_index_header_only(tmp_path):
    path = tmp_path / "emb.tsv"
    export_embeddings_tsv([], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("sentence_id\tposition\ttoken")


def per_element_tsv(index, path):
    """Reference writer: every coordinate formatted on its own."""
    dim = len(index[0].embedding) if index else 0
    header = ["sentence_id", "position", "token", "left_context",
              "right_context", "tag"] + [f"e{k}" for k in range(dim)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for rec in index:
            coords = [f"{x:.8g}" for x in rec.embedding]
            fh.write("\t".join([str(rec.sentence_id), str(rec.position), rec.token,
                                rec.left, rec.right, rec.tag or ""] + coords) + "\n")


TEXT = st.text(alphabet="ab%s\u00e9 ", max_size=4)


@st.composite
def token_records(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.integers(1, 4))
    values = st.floats(width=32 if dtype is np.float32 else 64)
    return [TokenRecord(draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 99)),
                        draw(TEXT), np.array(draw(st.lists(values, min_size=dim,
                                                           max_size=dim)), dtype=dtype),
                        draw(TEXT), draw(TEXT), draw(st.none() | TEXT))
            for _ in range(draw(st.integers(0, 4)))]


# values at and across the edges of the writer's fixed-notation path
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, float(np.finfo(np.float32).max),
               328969.625, -1341219.75, 9.99999e-05, 1e8]


@given(token_records())
@example([TokenRecord(0, 0, "a", np.array(EDGE_VALUES, dtype=np.float32))])
# 0.100000005 * 1e8 rounds to the tie 10000000.5 in float64, but the value is
# above it: only a float32 scales exactly
@example([TokenRecord(0, 0, "a", np.array(EDGE_VALUES + [1.79769313e+301, 0.100000005])),
          TokenRecord(1, 2, "\u00e9", np.array([-v for v in EDGE_VALUES] + [0.1, -0.1]))])
def test_export_bytes_equal_per_element_writer(tmp_path_factory, index):
    root = tmp_path_factory.mktemp("tsv")
    export_embeddings_tsv(index, root / "got.tsv")
    per_element_tsv(index, root / "want.tsv")
    assert (root / "got.tsv").read_bytes() == (root / "want.tsv").read_bytes()


def float32_probe_values():
    """Every float32 within 40,000 ulps of each power of ten from 1e-5 to
    1e8, both signs, then 2**20 random bit patterns and the non-finite
    values."""
    powers = np.array([10.0 ** k for k in range(-5, 9)], dtype=np.float32).view(np.int32)
    near = (powers[:, None] + np.arange(-40000, 40001)).astype(np.int32).view(np.float32)
    rng = np.random.default_rng(2017)
    bits = rng.integers(0, 2 ** 32, size=2 ** 20, dtype=np.uint32).view(np.float32)
    return np.concatenate([near.ravel(), -near.ravel(), bits,
                           np.array([np.inf, -np.inf, np.nan], dtype=np.float32)])


def test_export_formats_each_float32_as_percent_8g(tmp_path):
    values = float32_probe_values()
    dim = 256
    values = np.concatenate([values, np.zeros(-len(values) % dim, dtype=np.float32)])
    rows = values.reshape(-1, dim)
    assert len(rows) % (EXPORT_BLOCK // dim) != 0  # the last block is a short one
    index = [TokenRecord(k, 0, "t", row) for k, row in enumerate(rows)]
    path = tmp_path / "probe.tsv"
    export_embeddings_tsv(index, path)
    with np.errstate(invalid="ignore"):  # signalling nan bit patterns
        want = ["\t".join(["%.8g" % v for v in row.tolist()]) for row in rows]
    got = [line.split("\t", 6)[6] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(got) == len(want)
    bad = [(k, g, w) for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, bad[0]


def export_peak_bytes(tmp_path, n_rows, dim=256):
    """The traced peak of one export, beyond the records it is given."""
    rng = np.random.default_rng(5)
    index = [TokenRecord(k, k % 7, "tok", rng.normal(0.0, 2.0, dim).astype(np.float32),
                         "left", "right", "T") for k in range(n_rows)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export_embeddings_tsv(index, tmp_path / f"peak{n_rows}.tsv")
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_export_memory_does_not_grow_with_the_rows(tmp_path):
    small = export_peak_bytes(tmp_path, 100)
    large = export_peak_bytes(tmp_path, 1000)
    assert large < 4 * 2 ** 20
    assert large < 1.25 * small + 2 ** 16
