"""Nearest-neighbor token queries and embedding export.

A token index is a flat list of records, one per corpus occurrence, each
carrying the token embedding and enough context to render a readable snippet.
Neighbor search is an exact linear scan (corpora here are small enough that
approximate structures would be overkill) under euclidean or cosine distance.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import corpus_windows
from .features import word_types
from .serialize import open_text

METRICS = ("euclidean", "cosine")

# Index rows per distance computation: the float64 copies of a block stay a
# few MB, where the whole index's would set the process's peak memory.
DISTANCE_BLOCK = 1024


@dataclass
class TokenRecord:
    """One token occurrence with its embedding and window context."""

    sentence_id: int
    position: int
    token: str
    embedding: np.ndarray
    left: str = ""
    right: str = ""
    tag: str | None = None

    @property
    def identity(self):
        return (self.sentence_id, self.position)

    def snippet(self):
        """Window text with the target marked: "[ left <token> right ]"."""
        inner = f"<{self.token}>"
        if self.left:
            inner = f"{self.left} {inner}"
        if self.right:
            inner = f"{inner} {self.right}"
        return f"[ {inner} ]"


def index_corpus(model, table, sentences, type_filter=None, tags=None):
    """One TokenRecord per token whose string is in ``type_filter`` (or all).

    ``tags`` optionally supplies a gold tag sequence per sentence, aligned
    with ``sentences``.  The admitted tokens' windows are encoded in one
    ``model.encode`` call.
    """
    types, of = word_types(sentences)
    keep = np.array([type_filter is None or t in type_filter for t in types], dtype=bool)[of]
    lengths = np.array([len(tokens) for tokens in sentences], dtype=np.int64)
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(len(of)) - (np.cumsum(lengths) - lengths)[sentence]
    codes = model.encode(table, corpus_windows(table, sentences, model.w_prime)[keep])
    records = []
    w = model.w_prime
    for si, j, emb in zip(sentence[keep].tolist(), position[keep].tolist(), codes):
        tokens = sentences[si]
        records.append(TokenRecord(
            sentence_id=si,
            position=j,
            token=tokens[j],
            embedding=emb,
            left=" ".join(tokens[max(0, j - w):j]),
            right=" ".join(tokens[j + 1:j + 1 + w]),
            tag=tags[si][j] if tags is not None else None,
        ))
    return records


def _normalized(M):
    norms = np.linalg.norm(M, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return M / safe


def distances(query_embedding, M, metric="euclidean"):
    """Distances from one embedding to the rows of ``M``.

    Cosine distance is computed as half the squared distance of the
    normalized vectors, which equals 1 - cos and is exactly zero for
    identical inputs; zero vectors keep their zero direction.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    q = np.asarray(query_embedding, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if metric == "euclidean":
        return np.linalg.norm(M - q, axis=1)
    d = _normalized(M) - _normalized(q)
    return 0.5 * (d * d).sum(axis=1)


def nearest_neighbors(query, index, k=4, metric="euclidean"):
    """The ``k`` records closest to ``query``, with distances.

    The query's own (sentence, position) identity is excluded; distance ties
    break by index order.  If fewer than ``k`` records remain, all are
    returned, sorted.
    """
    if k < 1:
        raise ValueError(f"-k must be at least 1, got {k}")
    if not index:
        raise ValueError("empty index")
    dists = np.concatenate([
        distances(query.embedding,
                  np.stack([r.embedding for r in index[s:s + DISTANCE_BLOCK]]), metric)
        for s in range(0, len(index), DISTANCE_BLOCK)])
    order = np.argsort(dists, kind="stable")
    out = []
    for idx in order:
        rec = index[idx]
        if rec.identity == query.identity:
            continue
        out.append((rec, float(dists[idx])))
        if len(out) == k:
            break
    return out


def export_embeddings_tsv(index, path):
    """Write the index as a TSV suitable for external projection tools.

    Columns: sentence_id, position, token, left_context, right_context, tag
    (empty when absent), then the embedding coordinates.
    """
    dim = len(index[0].embedding) if index else 0
    header = ["sentence_id", "position", "token", "left_context",
              "right_context", "tag"] + [f"e{k}" for k in range(dim)]
    row = "\t".join(["%s"] * 6 + ["%.8g"] * dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for rec in index:
            fh.write(row % (rec.sentence_id, rec.position, rec.token, rec.left,
                            rec.right, rec.tag or "", *rec.embedding.tolist()))


def load_embeddings_tsv(path):
    """Reload an exported TSV into TokenRecords (embeddings as float32)."""
    records = []
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        dim = len(header) - 6
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong column count")
            try:
                sentence_id, position = int(parts[0]), int(parts[1])
                coords = [float(x) for x in parts[6:]]
            except ValueError:
                raise _field_error(path, lineno, header, parts) from None
            records.append(TokenRecord(
                sentence_id=sentence_id,
                position=position,
                token=parts[2],
                embedding=np.array(coords, dtype=np.float32),
                left=parts[3],
                right=parts[4],
                tag=parts[5] or None,
            ))
            if len(records[-1].embedding) != dim:
                raise ValueError(f"{path}:{lineno}: wrong embedding width")
    return records


def _field_error(path, lineno, header, parts):
    """The error naming the first numeric field of a TSV row that does not
    parse: the two ids as integers, then the coordinates as floats."""
    for k in [0, 1] + list(range(6, len(parts))):
        kind, what = (int, "an integer") if k < 2 else (float, "a number")
        try:
            kind(parts[k])
        except ValueError:
            return ValueError(f"{path}:{lineno}: field {header[k]!r} is not {what}: "
                              f"{parts[k]!r}")
