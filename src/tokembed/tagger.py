"""Local part-of-speech classification.

The tagger is a per-token classifier: two relu hidden layers and a linear
softmax layer over the tagset, fed a fixed-order concatenation of

  1. the 2w+1 type embeddings around the token (boundaries padded with the
     zero start/end rows; the center embedding can be omitted),
  2. one token embedding per configured frozen encoder,
  3. the 10-bit word-shape vector of the center token, when enabled,
  4. the extended resource-based stack, when enabled.

Token embeddings come from encoders whose parameters never receive gradients
here; they are treated as precomputed sentence features, which enforces the
freeze structurally.  Optionally the type-embedding table itself is trained
(on a private copy), with an anchored L2 penalty pulling it back toward the
pretrained values; reserved rows stay zero either way.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .embeddings import Predictor, windows
from .features import extended_feature_width, extended_features
from .nn import MLP, fit, softmax_logloss_batch


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
        for r in (self.dropout_input, self.dropout_hidden):
            if not 0.0 <= r < 1.0:
                raise ValueError(f"dropout rate {r} outside [0, 1)")


def load_tagset(path):
    """One tag per line; line number is the tag id."""
    with open(path, "r", encoding="utf-8") as fh:
        tags = [line.strip() for line in fh if line.strip()]
    if len(set(tags)) != len(tags):
        raise ValueError(f"{path}: duplicate tags")
    return tags


def load_tagged_corpus(path):
    """CoNLL-like tagged file: "token<TAB>tag" lines, blank line between sentences."""
    sentences = []
    tokens, tags = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                if tokens:
                    sentences.append((tokens, tags))
                    tokens, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'token<TAB>tag'")
            tokens.append(parts[0])
            tags.append(parts[1])
    if tokens:
        sentences.append((tokens, tags))
    return sentences


def save_tagged_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, tags in sentences:
            for tok, tag in zip(tokens, tags, strict=True):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")


def corpus_tag_ids(sentences, tagset):
    """Map tag strings to ids, rejecting tags outside the tagset."""
    index = {t: k for k, t in enumerate(tagset)}
    out = []
    for tokens, tags in sentences:
        try:
            ids = np.array([index[t] for t in tags], dtype=np.int64)
        except KeyError as e:
            raise ValueError(f"tag {e.args[0]!r} not in the tagset") from None
        out.append((tokens, ids))
    return out


class Tagger(Predictor):
    """Feature composer plus classification network over a fixed tagset."""

    kind = "tagger"
    config_class = TaggerConfig
    header_fields = {"tagset": [str], "extended_width": int}

    def __init__(self, config, tagset, table, encoders=(), resources=None,
                 rng=None, dtype=np.float32):
        if config.extended and resources is None:
            raise ValueError("extended features enabled but no resources supplied")
        super().__init__(config, table, encoders, dtype)
        self.tagset = list(tagset)
        self.resources = resources

        w = config.window
        offsets = [o for o in range(-w, w + 1) if not (config.omit_center and o == 0)]
        self._offsets = np.array(offsets, dtype=np.int64)
        self.type_width = len(offsets) * table.dim
        self.input_dim = self.input_width(config, table.dim,
                                          sum(e.token_dim for e in self.encoders),
                                          self.header())
        if self.input_dim == 0:
            raise ValueError("tagger input is empty: no embeddings, encoders, or features")

        self.net = MLP([self.input_dim, config.hidden, config.hidden, len(self.tagset)],
                       ["relu", "relu", "linear"], rng, dtype)

    # -- input composition ------------------------------------------------

    def const_features(self, tokens):
        """Per-token features that do not depend on trainable state: the
        frozen ``token_features`` block, then the extended stack when enabled."""
        fixed = self.token_features(tokens, self.table.vocab.to_ids(tokens))
        if not self.config.extended:
            return fixed
        ext = np.stack([extended_features(tokens, j, self.resources)
                        for j in range(len(tokens))])
        return np.concatenate([fixed, ext], axis=1)

    def features(self, sentences):
        """Type-window ids and constant features of every token of
        ``sentences``, in corpus order; ``inputs`` composes them."""
        vocab = self.table.vocab
        wins, consts = [], []
        for tokens in sentences:
            wins.append(windows(vocab.to_ids(tokens), self._offsets, vocab.bos_id,
                                vocab.eos_id))
            consts.append(self.const_features(tokens))
        return np.concatenate(wins), np.concatenate(consts)

    def inputs(self, wins, consts):
        """Network input rows: the type embeddings of the window ids, then the
        constant features."""
        if self.type_width == 0:
            return consts
        typ = self.embeddings[wins].reshape(len(wins), -1)
        return np.concatenate([typ, consts], axis=1)

    # -- prediction --------------------------------------------------------

    def predict(self, wins, consts):
        """Predicted tag id of each row; argmax ties go to the lowest id."""
        logits, _ = self.net.forward(self.inputs(wins, consts))
        return np.argmax(logits, axis=1)

    def tag_ids(self, tokens):
        """Predicted tag ids, one per token."""
        return self.predict(*self.features([tokens]))

    def tag_sentence(self, tokens):
        """Predicted tag strings for one sentence."""
        return [self.tagset[k] for k in self.tag_ids(tokens)]

    # -- persistence ---------------------------------------------------------

    def header(self):
        return {"tagset": self.tagset,
                "extended_width": (extended_feature_width(self.resources)
                                   if self.config.extended else 0)}

    @classmethod
    def input_width(cls, config, dim, token_dim, header):
        """The type window, then the token embeddings, the word features and
        the extended features, each when enabled."""
        n_offsets = 2 * config.window + 1 - config.omit_center
        return (n_offsets * dim + token_dim + (10 if config.word_features else 0)
                + (header["extended_width"] if config.extended else 0))

    @classmethod
    def from_header(cls, path, config, header, table, encoders, resources=None):
        if config.extended and (resources is None or extended_feature_width(resources)
                                != header["extended_width"]):
            raise ValueError(f"{path}: resource bundle missing or of another width "
                             "than at training time")
        return cls(config, header["tagset"], table, encoders, resources)


@dataclass
class TaggerTrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    patience: int = 10
    seed: int = 0


@dataclass
class TaggerTrainResult:
    best_val_accuracy: float
    epochs_run: int
    history: list  # (epoch, validation accuracy)


def batch_loss_and_grads(model, wins, consts, golds, dropout_rng=None):
    """Mean log loss of one minibatch plus, when embedding updates are on,
    the anchored penalty; gradients cover the network and (scattered
    through the window ids) the rows of the embedding table that
    ``AdaptedEmbeddings`` tracks."""
    X = model.inputs(wins, consts)
    if dropout_rng is not None:
        logits, cache = model.net.forward(
            X, rng=dropout_rng, input_rate=model.config.dropout_input,
            hidden_rate=model.config.dropout_hidden)
    else:
        logits, cache = model.net.forward(X)
    loss, dlogits = softmax_logloss_batch(logits, golds)
    dX, net_grads = model.net.backward(dlogits.astype(logits.dtype), cache)
    grads = {f"net.{k}": g for k, g in net_grads.items()}
    if model.adapted is not None:
        window_grads = []
        if model.type_width > 0:
            dTyp = dX[:, :model.type_width].reshape(len(X), -1, model.table.dim)
            window_grads.append((wins, dTyp))
        penalty, grads["embeddings"] = model.adapted.gradient(window_grads)
        loss += penalty
    return loss, grads


def train_tagger(model, train_corpus, val_corpus, cfg):
    """Minibatch log-loss training with early stopping on validation accuracy.

    Corpora are lists of (tokens, gold tag id array).  The snapshot with the
    best validation accuracy is restored before returning; training stops
    early after ``patience`` epochs without improvement.
    """
    if not train_corpus or not val_corpus:
        raise ValueError("empty corpus")

    def flatten(corpus):
        golds = np.concatenate([np.asarray(g, dtype=np.int64) for _, g in corpus])
        if np.any(golds < 0) or np.any(golds >= len(model.tagset)):
            raise ValueError("gold tag id outside the tagset")
        return (*model.features([tokens for tokens, _ in corpus]), golds)

    t_wins, t_consts, t_golds = flatten(train_corpus)
    v_wins, v_consts, v_golds = flatten(val_corpus)

    dropout_rng = rng_mod.stream(cfg.seed, "dropout")
    use_dropout = model.config.dropout_input > 0 or model.config.dropout_hidden > 0

    def batch_loss(sel):
        return batch_loss_and_grads(model, t_wins[sel], t_consts[sel], t_golds[sel],
                                    dropout_rng if use_dropout else None)

    def evaluate():
        return 100.0 * float(np.mean(model.predict(v_wins, v_consts) == v_golds))

    # -1 is below any accuracy, so the first epoch always takes a snapshot
    res = fit(model.params(), len(t_golds), batch_loss, evaluate, cfg,
              maximize=True, baseline=-1.0, patience=cfg.patience)
    return TaggerTrainResult(res.best, res.epochs_run,
                             [(epoch, acc) for epoch, _, acc in res.history])


def tagging_accuracy(predicted, gold):
    """Token-level accuracy in percent between aligned tag-sequence corpora."""
    if len(predicted) != len(gold):
        raise ValueError(f"corpora have different sentence counts: {len(predicted)} "
                         f"predicted, {len(gold)} gold")
    total = 0
    matched = 0
    for p, g in zip(predicted, gold):
        if len(p) != len(g):
            raise ValueError("sentence length mismatch between corpora")
        for a, b in zip(p, g):
            total += 1
            matched += a == b
    if total == 0:
        raise ValueError("empty corpora")
    return float(100.0 * matched / total)
