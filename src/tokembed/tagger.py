"""Local part-of-speech classification.

The tagger is a per-token classifier: two relu hidden layers and a linear
softmax layer over the tagset, fed a fixed-order concatenation of

  1. the 2w+1 type embeddings around the token (boundaries padded with the
     zero start/end rows; the center embedding can be omitted),
  2. one token embedding per configured frozen encoder,
  3. the 10-bit word-shape vector of the center token, when enabled,
  4. the extended resource-based stack, when enabled.

Token embeddings come from encoders whose parameters never receive gradients
here; they are precomputed with one ``encode`` per encoder for a whole
training corpus, and for each block of whole sentences of about
``ENCODE_BLOCK`` tokens when tagging (``predict_corpus``), which enforces the
freeze structurally.  The word-shape and extended features depend on a word
alone, so they are not kept per token: the model's ``StringRows`` holds one
row per distinct string seen, built once and kept for the model's lifetime.
Per token the tagger keeps only ``TokenInputs``: its type-window ids, its
token embeddings and three row ids, its string's and its two neighbours'.
``Predictor.compose``, which writes the parser's position rows too, gathers a
minibatch's, a validation pass's or a tagging block's network input from them
into one array.  At the benchmark's sizes (one 256-wide encoder, window 1,
word-shape bits and a 1090-wide extended stack) a token keeps 256 floats and
6 ids of its 1656-float input row, and a distinct string 574 floats.
Optionally the type embeddings of the rows training reaches are trained, with
an anchored L2 penalty pulling them back toward the pretrained values;
reserved rows stay zero either way.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .embeddings import Predictor
from .encoder import ENCODE_BLOCK
from .features import extended_feature_width
from .nn import fit, softmax_logloss_batch
from .serialize import open_text, read_tsv


@dataclass
class TaggerConfig:
    window: int = 1                  # type-embedding context radius w
    omit_center: bool = False        # drop the center type embedding
    hidden: int = 512
    word_features: bool = False      # 10-bit shape vector for the center word
    extended: bool = False           # resource-based feature stack
    update_embeddings: bool = False
    anchor_weight: float = 0.01
    dropout_input: float = 0.0
    dropout_hidden: float = 0.0

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("tagger window must be non-negative")
        if self.hidden < 1:
            raise ValueError("tagger hidden size must be positive")
        if not 0.0 <= self.anchor_weight < np.inf:
            raise ValueError(f"anchor weight {self.anchor_weight} is not a finite "
                             "non-negative number")
        if self.update_embeddings and self.window == 0 and self.omit_center:
            raise ValueError("update_embeddings needs a type window, and window 0 "
                             "with omit_center has none")
        for r in (self.dropout_input, self.dropout_hidden):
            if not 0.0 <= r < 1.0:
                raise ValueError(f"dropout rate {r} outside [0, 1)")


def load_tagset(path):
    """One tag per line, blank lines skipped; tags are numbered from 0 in
    file order."""
    first_line = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tag = line.strip()
            if tag in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate tag {tag!r} "
                                 f"(first at line {first_line[tag]})")
            if tag:
                first_line[tag] = lineno
    return list(first_line)


def load_tagged_corpus(path):
    """CoNLL-like tagged file: "token<TAB>tag" lines, blank line between sentences."""
    return [([fields[0] for _, fields in block], [fields[1] for _, fields in block])
            for block in read_tsv(path, 2)]


def save_tagged_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, tags in sentences:
            for tok, tag in zip(tokens, tags, strict=True):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")


def corpus_tag_ids(sentences, tagset, source="corpus"):
    """Map tag strings to ids, rejecting tags outside the tagset with an
    error that names ``source`` and the 1-based sentence."""
    index = {t: k for k, t in enumerate(tagset)}
    out = []
    for k, (tokens, tags) in enumerate(sentences, start=1):
        try:
            ids = np.array([index[t] for t in tags], dtype=np.int64)
        except KeyError as e:
            raise ValueError(f"{source}: sentence {k}: tag {e.args[0]!r} "
                             "not in the tagset") from None
        out.append((tokens, ids))
    return out


class Tagger(Predictor):
    """Classifier over a fixed tagset; a token's input is its position row
    (``Predictor.position_widths``), then the extended stack."""

    kind = "tagger"
    config_class = TaggerConfig
    header_fields = {"tagset": [str], "extended_width": int}

    def __init__(self, config, tagset, table, encoders=(), resources=None,
                 rng=None, dtype=np.float32):
        if config.extended and resources is None:
            raise ValueError("extended features enabled but no resources supplied")
        self.tagset = list(tagset)  # header() reads both
        self.resources = resources
        super().__init__(config, table, encoders, len(self.tagset), rng, dtype,
                         resources if config.extended else None)

    @staticmethod
    def offsets(config):
        """-w..w, without 0 when the center is omitted."""
        w = config.window
        return [o for o in range(-w, w + 1) if not (config.omit_center and o == 0)]

    # -- prediction --------------------------------------------------------

    def predict(self, inputs):
        """Predicted tag id of each token of ``inputs``; argmax ties go to
        the lowest id."""
        logits, _ = self.net.forward(self.compose(inputs))
        return np.argmax(logits, axis=1)

    def predict_corpus(self, sentences):
        """Yield the predicted tag ids of each of ``sentences``, in order,
        from one ``features`` and one ``predict`` per block of whole
        sentences of about ``ENCODE_BLOCK`` tokens."""
        for block in self._sentence_blocks(sentences, len, ENCODE_BLOCK):
            ids = self.predict(self.features(block))
            yield from np.split(ids, np.cumsum([len(tokens) for tokens in block])[:-1])

    def tag_corpus(self, sentences):
        """Yield the predicted tag strings of each of ``sentences``, in order."""
        for ids in self.predict_corpus(sentences):
            yield [self.tagset[k] for k in ids]

    def tag_ids(self, tokens):
        """Predicted tag ids, one per token: the one-sentence block."""
        return next(self.predict_corpus([tokens]))

    def tag_sentence(self, tokens):
        """Predicted tag strings for one sentence."""
        return next(self.tag_corpus([tokens]))

    # -- persistence ---------------------------------------------------------

    def header(self):
        return {"tagset": self.tagset,
                "extended_width": (extended_feature_width(self.resources)
                                   if self.config.extended else 0)}

    @classmethod
    def input_width(cls, config, dim, token_dim, header):
        """The position row, then the extended features when enabled."""
        return (sum(cls.position_widths(config, dim, token_dim))
                + (header["extended_width"] if config.extended else 0))

    @classmethod
    def from_header(cls, path, config, header, table, encoders, resources=None):
        if config.extended and (resources is None or extended_feature_width(resources)
                                != header["extended_width"]):
            raise ValueError(f"{path}: resource bundle missing or of another width "
                             "than at training time")
        return cls(config, header["tagset"], table, encoders, resources)


def batch_loss_and_grads(model, inputs, golds, dropout_rng=None):
    """Mean log loss of the minibatch of tokens ``inputs`` plus, when
    embedding updates are on, the anchored penalty; gradients cover the
    network and (scattered through the window ids) the rows of the embedding
    table that ``AdaptedEmbeddings`` has reached."""
    X = model.compose(inputs)
    if dropout_rng is not None:
        logits, cache = model.net.forward(
            X, rng=dropout_rng, input_rate=model.config.dropout_input,
            hidden_rate=model.config.dropout_hidden)
    else:
        logits, cache = model.net.forward(X)
    loss, dlogits = softmax_logloss_batch(logits, golds)
    # the input gradient is read only for the type window, and only when updating
    typ_cols = None if model.adapted is None else slice(0, model.widths[0])
    dTyp, net_grads = model.net.backward(dlogits.astype(logits.dtype), cache, typ_cols)
    grads = {f"net.{k}": g for k, g in net_grads.items()}
    if model.adapted is not None:
        dTyp = dTyp.reshape(len(X), model.win_len, -1)
        penalty, grads["embeddings"] = model.adapted.gradient([(inputs.wins, dTyp)])
        loss += penalty
    return loss, grads


def train_tagger(model, train_corpus, val_corpus, cfg):
    """Minibatch log-loss training with early stopping on validation accuracy,
    run by ``fit`` with the ``FitConfig`` ``cfg``; returns its ``FitResult``.

    Corpora are lists of (tokens, gold tag id array).  The snapshot with the
    best validation accuracy is restored before returning; training stops
    early after ``cfg.patience`` epochs without improvement.
    """
    if not train_corpus or not val_corpus:
        raise ValueError("empty corpus")

    def flatten(corpus):
        golds = np.concatenate([np.asarray(g, dtype=np.int64) for _, g in corpus])
        if np.any(golds < 0) or np.any(golds >= len(model.tagset)):
            raise ValueError("gold tag id outside the tagset")
        return model.features([tokens for tokens, _ in corpus]), golds

    t_inputs, t_golds = flatten(train_corpus)
    v_inputs, v_golds = flatten(val_corpus)
    if model.adapted is not None:
        model.adapted.add_rows(t_inputs.wins)

    dropout_rng = rng_mod.stream(cfg.seed, "dropout")
    use_dropout = model.config.dropout_input > 0 or model.config.dropout_hidden > 0

    def batch_loss(sel):
        return batch_loss_and_grads(model, t_inputs.take(sel), t_golds[sel],
                                    dropout_rng if use_dropout else None)

    def evaluate():
        return 100.0 * float(np.mean(model.predict(v_inputs) == v_golds))

    # -1 is below any accuracy, so the first epoch always takes a snapshot
    return fit(model.params(), len(t_golds), batch_loss, evaluate, cfg,
               maximize=True, baseline=-1.0)


def tagging_accuracy(predicted, gold):
    """Token-level accuracy in percent between aligned tag-sequence corpora."""
    if len(predicted) != len(gold):
        raise ValueError(f"corpora have different sentence counts: {len(predicted)} "
                         f"predicted, {len(gold)} gold")
    for p, g in zip(predicted, gold):
        if len(p) != len(g):
            raise ValueError("sentence length mismatch between corpora")
    total = sum(len(g) for g in gold)
    matched = sum(a == b for p, g in zip(predicted, gold) for a, b in zip(p, g))
    if total == 0:
        raise ValueError("empty corpora")
    return float(100.0 * matched / total)
