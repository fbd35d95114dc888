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

from dataclasses import asdict, dataclass

import numpy as np

from . import rng as rng_mod
from .embeddings import AdaptedEmbeddings
from .features import extended_feature_width, extended_features, word_features
from .nn import MLP, SgdMomentum, TrainingDiverged, softmax_logloss_batch
from .serialize import load_model, restore_params, save_model


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


class Tagger:
    """Feature composer plus classification network over a fixed tagset."""

    kind = "tagger"

    def __init__(self, config, tagset, table, encoders=(), resources=None,
                 rng=None, dtype=np.float32):
        if config.extended and resources is None:
            raise ValueError("extended features enabled but no resources supplied")
        for enc in encoders:
            if enc.dim != table.dim:
                raise ValueError(
                    f"encoder dim {enc.dim} does not match table dim {table.dim}")
        self.config = config
        self.tagset = list(tagset)
        self.table = table
        self.encoders = tuple(encoders)
        self.resources = resources

        w = config.window
        offsets = [o for o in range(-w, w + 1) if not (config.omit_center and o == 0)]
        self._offsets = np.array(offsets, dtype=np.int64)
        self.type_width = len(offsets) * table.dim
        self.const_width = sum(e.token_dim for e in self.encoders)
        if config.word_features:
            self.const_width += 10
        if config.extended:
            self.const_width += extended_feature_width(resources)
        self.input_dim = self.type_width + self.const_width
        if self.input_dim == 0:
            raise ValueError("tagger input is empty: no embeddings, encoders, or features")

        self.net = MLP([self.input_dim, config.hidden, config.hidden, len(self.tagset)],
                       ["relu", "relu", "linear"], rng, dtype)
        self.adapted = (AdaptedEmbeddings(table, config.anchor_weight, dtype)
                        if config.update_embeddings else None)
        self.embeddings = table.vectors if self.adapted is None else self.adapted.vectors

    # -- input composition ------------------------------------------------

    def window_ids(self, ids):
        """(n, len(offsets)) id matrix of type-embedding context positions."""
        ids = np.asarray(ids)
        n = len(ids)
        vocab = self.table.vocab
        pos = np.arange(n)[:, None] + self._offsets[None, :]
        out = ids[np.clip(pos, 0, max(n - 1, 0))]
        out = np.where(pos < 0, vocab.bos_id, out)
        out = np.where(pos >= n, vocab.eos_id, out)
        return out

    def const_features(self, tokens):
        """Per-token features that do not depend on trainable state: token
        embeddings from the frozen encoders plus any enabled feature blocks."""
        n = len(tokens)
        ids = self.table.vocab.to_ids(tokens)
        blocks = []
        for enc in self.encoders:
            blocks.append(enc.encode_sentence(self.table, ids).astype(np.float32))
        if self.config.word_features:
            blocks.append(np.stack([word_features(t) for t in tokens]))
        if self.config.extended:
            blocks.append(np.stack(
                [extended_features(tokens, j, self.resources) for j in range(n)]))
        if blocks:
            return np.concatenate(blocks, axis=1)
        return np.zeros((n, 0), dtype=np.float32)

    def compose_sentence(self, tokens):
        """(n, input_dim) matrix of tagger inputs for a whole sentence."""
        ids = self.table.vocab.to_ids(tokens)
        const = self.const_features(tokens)
        if self.type_width == 0:
            return const
        wins = self.window_ids(ids)
        typ = self.embeddings[wins].reshape(len(tokens), -1)
        return np.concatenate([typ, const], axis=1)

    def compose_input(self, tokens, j):
        """Input vector for the token at position ``j``."""
        if not 0 <= j < len(tokens):
            raise ValueError(f"position {j} out of range")
        return self.compose_sentence(tokens)[j]

    # -- prediction --------------------------------------------------------

    def tag_ids(self, tokens):
        """Predicted tag ids, one per token; argmax ties go to the lowest id."""
        X = self.compose_sentence(tokens)
        logits, _ = self.net.forward(X)
        return np.argmax(logits, axis=1)

    def tag_sentence(self, tokens):
        """Predicted tag strings for one sentence."""
        return [self.tagset[k] for k in self.tag_ids(tokens)]

    # -- persistence ---------------------------------------------------------

    def params(self):
        out = {f"net.{k}": v for k, v in self.net.params().items()}
        if self.config.update_embeddings:
            out["embeddings"] = self.embeddings
        return out

    def save(self, path):
        cfg = {
            "tagger": asdict(self.config),
            "tagset": self.tagset,
            "dim": self.table.dim,
            "vocab_size": len(self.table.vocab),
            "encoders": [{"arch": e.arch, "token_dim": e.token_dim, "w_prime": e.w_prime}
                         for e in self.encoders],
            "extended_width": (extended_feature_width(self.resources)
                               if self.config.extended else 0),
        }
        save_model(path, self.kind, cfg, self.params())

    @classmethod
    def load(cls, path, table, encoders=(), resources=None):
        kind, cfg, tensors = load_model(path)
        if kind != cls.kind:
            raise ValueError(f"{path}: not a tagger model (kind={kind!r})")
        config = TaggerConfig(**cfg["tagger"])
        if cfg["dim"] != table.dim or cfg["vocab_size"] != len(table.vocab):
            raise ValueError(f"{path}: embedding table does not match the model")
        stored = cfg["encoders"]
        given = [{"arch": e.arch, "token_dim": e.token_dim, "w_prime": e.w_prime}
                 for e in encoders]
        if stored != given:
            raise ValueError(f"{path}: encoder set {given} does not match stored {stored}")
        if config.extended and extended_feature_width(resources) != cfg["extended_width"]:
            raise ValueError(f"{path}: resource bundle width differs from training time")
        model = cls(config, cfg["tagset"], table, encoders, resources)
        restore_params(model.params(), tensors, path)
        return model


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


def _flatten_corpus(model, corpus):
    """Precompute per-token training arrays: window ids, constant features, gold."""
    wins, consts, golds = [], [], []
    for tokens, tag_ids in corpus:
        ids = model.table.vocab.to_ids(tokens)
        if np.any(tag_ids < 0) or np.any(tag_ids >= len(model.tagset)):
            raise ValueError("gold tag id outside the tagset")
        wins.append(model.window_ids(ids))
        consts.append(model.const_features(tokens))
        golds.append(np.asarray(tag_ids, dtype=np.int64))
    return (np.concatenate(wins, axis=0),
            np.concatenate(consts, axis=0),
            np.concatenate(golds, axis=0))


def _batch_inputs(model, wins, consts):
    if model.type_width == 0:
        return consts
    typ = model.embeddings[wins].reshape(len(wins), -1)
    return np.concatenate([typ, consts], axis=1)


def _predicted(model, wins, consts):
    logits, _ = model.net.forward(_batch_inputs(model, wins, consts))
    return np.argmax(logits, axis=1)


def batch_loss_and_grads(model, wins, consts, golds, dropout_rng=None):
    """Mean log loss of one minibatch plus, when embedding updates are on,
    the anchored penalty; gradients cover the network and (scattered
    through the window ids) the rows of the embedding table that
    ``AdaptedEmbeddings`` tracks."""
    X = _batch_inputs(model, wins, consts)
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
    t_wins, t_consts, t_golds = _flatten_corpus(model, train_corpus)
    v_wins, v_consts, v_golds = _flatten_corpus(model, val_corpus)

    params = model.params()
    opt = SgdMomentum(params, cfg.learning_rate, cfg.momentum)
    shuffle_rng = rng_mod.stream(cfg.seed, "shuffle")
    dropout_rng = rng_mod.stream(cfg.seed, "dropout")
    use_dropout = model.config.dropout_input > 0 or model.config.dropout_hidden > 0

    best = {k: v.copy() for k, v in params.items()}
    best_acc = -1.0
    history = []
    stale = 0
    epochs_run = 0

    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        order = shuffle_rng.permutation(len(t_golds))
        for k in range(0, len(order), cfg.batch_size):
            sel = order[k:k + cfg.batch_size]
            loss, grads = batch_loss_and_grads(
                model, t_wins[sel], t_consts[sel], t_golds[sel],
                dropout_rng if use_dropout else None)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite log loss in epoch {epoch}")
            opt.step(grads)
        acc = 100.0 * float(np.mean(_predicted(model, v_wins, v_consts) == v_golds))
        history.append((epoch, acc))
        if acc > best_acc:
            best_acc = acc
            for k2, v in params.items():
                best[k2][...] = v
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    for k2, v in params.items():
        v[...] = best[k2]
    return TaggerTrainResult(best_acc, epochs_run, history)


def tagging_accuracy(predicted, gold):
    """Token-level accuracy in percent between aligned tag-sequence corpora."""
    total = 0
    matched = 0
    try:
        for p, g in zip(predicted, gold, strict=True):
            if len(p) != len(g):
                raise ValueError("sentence length mismatch between corpora")
            for a, b in zip(p, g):
                total += 1
                matched += a == b
    except ValueError as e:
        raise ValueError(str(e)) from None
    if total == 0:
        raise ValueError("empty corpora")
    return float(100.0 * matched / total)
