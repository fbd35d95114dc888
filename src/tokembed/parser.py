"""Parent-prediction dependency parsing.

A single network scores candidate arcs: two relu hidden layers and a linear
scalar output.  For a child at position i (1-based) and a parent candidate j
(0 denotes the wall/root symbol), the input concatenates

  1. the 2w+1 type embeddings around the child and around the parent
     (omitted entirely when ``window == -1``),
  2. one token embedding for the child and one for the parent per encoder,
  3. the 10-bit word-shape vectors of child and parent,
  4. the 10 arc pair features (relative positions, distance, direction, wall).

Wall candidates zero every parent-side block, and the pair features reduce to
(i/n, 0, ..., 0, 1).  The per-child loss is a softmax log loss over all
candidate parents; unselected tokens never appear as children or candidates.
Head prediction picks the argmax candidate independently per token, ties
going to the wall and then to lower positions; no tree constraint is applied.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import Predictor, windows
from .features import PAIR_FEATURE_COUNT, WORD_FEATURE_COUNT, pair_feature_matrix
from .nn import MLP, fit, relu, softmax_logloss


@dataclass
class DepSentence:
    """Tokens with 1-based heads (0 = wall, -1 = unknown) and selection flags.

    Unselected tokens take no part in the structure: they carry no head and
    are never parent candidates.
    """

    tokens: list
    heads: list
    selected: list

    def __post_init__(self):
        n = len(self.tokens)
        if len(self.heads) != n or len(self.selected) != n:
            raise ValueError("tokens, heads, and selected must have equal length")
        for k in range(n):
            head = self.heads[k]
            if not self.selected[k]:
                if head != -1:
                    raise ValueError(f"unselected token {k + 1} carries head {head}")
                continue
            if head == -1:
                continue
            if not 0 <= head <= n or head == k + 1:
                raise ValueError(f"token {k + 1} has invalid head {head}")
            if head > 0 and not self.selected[head - 1]:
                raise ValueError(f"token {k + 1} attaches to unselected token {head}")

    def __len__(self):
        return len(self.tokens)

    def selected_positions(self):
        return [k + 1 for k in range(len(self.tokens)) if self.selected[k]]


def candidate_heads(sentence, i):
    """Parent candidates for child ``i``: the wall, then selected positions."""
    return [0] + [j for j in sentence.selected_positions() if j != i]


def load_dep_corpus(path):
    """CoNLL-like file: "index<TAB>token<TAB>head<TAB>selected" lines, blank
    line between sentences; head is -1 (and selected 0) for unselected tokens."""
    sentences = []
    rows = []

    def finish(lineno):
        if not rows:
            return
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}:{lineno}: token indices are not 1..n")
        sentences.append(DepSentence(
            tokens=[r[1] for r in rows],
            heads=[r[2] for r in rows],
            selected=[bool(r[3]) for r in rows],
        ))
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                finish(lineno)
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                rows.append((int(parts[0]), parts[1], int(parts[2]), int(parts[3])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable integer field") from None
        finish(lineno + 1)
    return sentences


def save_dep_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            for k in range(len(sent)):
                fh.write(f"{k + 1}\t{sent.tokens[k]}\t{sent.heads[k]}"
                         f"\t{int(sent.selected[k])}\n")
            fh.write("\n")


@dataclass
class ParserConfig:
    window: int = 0              # type-embedding radius; -1 disables type inputs
    hidden: int = 1024
    word_features: bool = True
    update_embeddings: bool = False
    anchor_weight: float = 0.01

    def __post_init__(self):
        if self.window < -1:
            raise ValueError("parser window must be >= -1")
        if self.hidden < 1:
            raise ValueError("parser hidden size must be positive")
        if not 0.0 <= self.anchor_weight < np.inf:
            raise ValueError(f"anchor weight {self.anchor_weight} is not a finite "
                             "non-negative number")


@dataclass
class _SentenceCache:
    """Per-position inputs and arc indices for one sentence.

    Slot 0 is the wall and slots 1..k are the selected tokens in order;
    ``positions`` maps slots to sentence positions.  Per slot, ``wins`` holds
    type-window ids into the embedding table (the wall uses the zero unknown
    row) and ``fixed`` the token-embedding and word-shape blocks, which never
    change during training (zero for the wall).  Every child has the same k
    candidates, the wall and then the other selected tokens in order, so the
    k*k arcs form k contiguous spans of length k, one per child.  Per arc only
    the ``parent`` slot and the ``pair`` features are kept, so no per-arc
    array is wider than ``PAIR_FEATURE_COUNT``.  ``gold`` is each child's gold
    candidate offset, -1 when it has no usable gold head.
    """

    positions: np.ndarray
    wins: np.ndarray
    fixed: np.ndarray
    parent: np.ndarray
    pair: np.ndarray
    gold: np.ndarray

    @property
    def n_children(self):
        return len(self.gold)


class Parser(Predictor):
    """Arc scorer and local head predictor.

    The first layer is linear in the input row, so it is applied per position
    rather than per arc: each position is projected once through the child
    columns and once through the parent columns of ``net.0.W``, and an arc's
    pre-activation is its child's projection plus its parent's plus that of
    its pair features (Chen & Manning, 2014).  Only the hidden layers see one
    row per arc.
    """

    kind = "parser"
    config_class = ParserConfig

    def __init__(self, config, table, encoders=(), rng=None, dtype=np.float32):
        if config.window == -1 and not encoders:
            raise ValueError("window=-1 with no encoders leaves no lexical input")
        super().__init__(config, table, encoders, dtype)

        # window offsets, none for window -1
        self._offsets = np.arange(-config.window, config.window + 1)
        self.win_len = len(self._offsets)
        self.type_width = 2 * self.win_len * table.dim
        token_dim = sum(e.token_dim for e in self.encoders)
        self.token_width = 2 * token_dim
        shape_width = WORD_FEATURE_COUNT if config.word_features else 0
        self.input_dim = self.input_width(config, table.dim, token_dim, {})

        # (offset, width) of the type-window, token-embedding and shape blocks
        # in a position row.  The network input holds each block twice, child
        # copy then parent copy, from twice its offset; pair features close it.
        self._blocks = []
        offset = 0
        for width in (self.type_width // 2, self.token_width // 2, shape_width):
            if width:
                self._blocks.append((offset, width))
            offset += width
        self.pos_width = offset

        self.net = MLP([self.input_dim, config.hidden, config.hidden, 1],
                       ["relu", "relu", "linear"], rng, dtype)

    @classmethod
    def input_width(cls, config, dim, token_dim, header):
        """Child then parent copies of the type window, the token embeddings
        and the word features, then the pair features; window -1 has no
        type window."""
        win_len = max(2 * config.window + 1, 0)
        shape_width = WORD_FEATURE_COUNT if config.word_features else 0
        return 2 * (win_len * dim + token_dim + shape_width) + PAIR_FEATURE_COUNT

    # -- input composition ---------------------------------------------------

    def _cache_sentence(self, sent):
        """Position rows and arc indices for every selected child of a sentence."""
        vocab = self.table.vocab
        ids = vocab.to_ids(sent.tokens)
        n = len(sent)
        dtype = self.net.layers[0].W.dtype
        positions = np.array([0] + sent.selected_positions(), dtype=np.int64)
        tokens = positions[1:]
        k = len(tokens)

        fixed = np.zeros((k + 1, self.pos_width - self.type_width // 2), dtype=dtype)
        fixed[1:] = self.token_features(sent.tokens, ids)[tokens - 1]

        slots = np.arange(1, k + 1)
        grid = np.concatenate([np.zeros((k, 1), dtype=np.int64),
                               np.broadcast_to(slots, (k, k))], axis=1)
        parent = grid[grid != slots[:, None]]
        pair = pair_feature_matrix(np.repeat(tokens, k), positions[parent], n)

        slot_of = np.full(n + 1, -1, dtype=np.int64)
        slot_of[positions] = np.arange(k + 1)
        heads = np.array(sent.heads, dtype=np.int64)[tokens - 1]
        gold_slot = np.where(heads >= 0, slot_of[np.maximum(heads, 0)], -1)
        # a child's own slot is missing from its candidates, shifting later ones
        gold = np.where(gold_slot > slots, gold_slot - 1, gold_slot)
        # the wall's window reads the all-zero unknown row
        wins = np.concatenate([np.full((1, self.win_len), vocab.unk_id),
                               windows(ids, self._offsets, vocab.bos_id, vocab.eos_id)])
        return _SentenceCache(positions, wins[positions], fixed, parent,
                              pair.astype(dtype), gold)

    def _side_rows(self, cache):
        """(2k+1, input_dim) first-layer rows per position: children (slots
        1..k) in the child columns, then slots 0..k in the parent columns, zero
        elsewhere.  An arc's input row is its child's row plus its parent's
        row plus its pair features in the last columns, so one product with
        ``net.0.W`` projects every position for both roles."""
        k = cache.n_children
        typ = self.embeddings[cache.wins].reshape(k + 1, -1)
        X = np.concatenate([typ.astype(cache.fixed.dtype, copy=False), cache.fixed],
                           axis=1)
        Z = np.zeros((2 * k + 1, self.input_dim), dtype=X.dtype)
        for lo, width in self._blocks:
            Z[:k, 2 * lo:2 * lo + width] = X[1:, lo:lo + width]
            Z[k:, 2 * lo + width:2 * lo + 2 * width] = X[:, lo:lo + width]
        return Z

    def _forward(self, cache):
        """Scores of a sentence's k*k arcs (child spans in order) and the
        activations ``batch_loss_and_grads`` propagates back through."""
        first = self.net.layers[0]
        k = cache.n_children
        Z = self._side_rows(cache)
        proj = Z @ first.W.T
        A = (cache.pair @ first.W[:, -PAIR_FEATURE_COUNT:].T).reshape(k, k, first.n_out)
        A += (proj[:k] + first.b)[:, None, :]
        A += proj[k:][cache.parent.reshape(k, k)]
        A = A.reshape(k * k, first.n_out)
        H = relu(A)
        tail = []
        for layer in self.net.layers[1:]:
            H, layer_cache = layer.forward(H)
            tail.append(layer_cache)
        return H[:, 0], (Z, A, tail)

    # -- scoring and prediction ----------------------------------------------

    def _check_arc(self, sent, i, j):
        n = len(sent)
        if i == j:
            raise ValueError("a token cannot be its own parent")
        if not (1 <= i <= n) or not sent.selected[i - 1]:
            raise ValueError(f"child {i} is not a selected token")
        if j != 0 and (not 1 <= j <= n or not sent.selected[j - 1]):
            raise ValueError(f"parent candidate {j} is not selected")

    def arc_score(self, sent, i, j):
        """Score of the arc attaching child ``i`` to parent candidate ``j``,
        taken from the same whole-sentence pass ``predict_heads`` uses."""
        self._check_arc(sent, i, j)
        rows = {child: (cands, scores) for child, cands, scores in self.score_sentence(sent)}
        cands, scores = rows[i]
        return float(scores[cands.index(j)])

    def arc_input(self, sent, i, j):
        """Composed network input for one (child, parent) pair: the row whose
        first-layer product the factored scorer computes."""
        self._check_arc(sent, i, j)
        cache = self._cache_sentence(sent)
        child, parent = np.searchsorted(cache.positions, [i, j])
        Z = self._side_rows(cache)
        row = Z[child - 1] + Z[cache.n_children + parent]
        row[-PAIR_FEATURE_COUNT:] = pair_feature_matrix([i], [j], len(sent))[0]
        return row

    def score_sentence(self, sent):
        """Scores for every (child, candidate) pair: list of (i, cands, scores)."""
        cache = self._cache_sentence(sent)
        k = cache.n_children
        if k == 0:
            return []
        scores, _ = self._forward(cache)
        cands = cache.positions[cache.parent].reshape(k, k).tolist()
        return list(zip(cache.positions[1:].tolist(), cands, scores.reshape(k, k)))

    def predict_heads(self, sent):
        """Independent argmax head per selected token; -1 for unselected.

        Candidates are ordered wall-first then ascending, so ties resolve to
        the wall and then to the lowest position.
        """
        heads = [-1] * len(sent)
        for i, cands, scores in self.score_sentence(sent):
            heads[i - 1] = cands[int(np.argmax(scores))]
        return heads


def arc_loss(scores, gold_offset):
    """Softmax log loss of the gold candidate against all candidates."""
    return softmax_logloss(scores, gold_offset)


def attachment_f1(predicted, gold):
    """Precision/recall/F1 in percent over (sentence, child, head) arc sets.

    Each side contributes the arcs of its own selected tokens, so the two
    corpora may disagree on token selection.  Empty sides score 0.
    """
    if len(predicted) != len(gold):
        raise ValueError("corpora have different sentence counts")

    def arcs(sents):
        out = set()
        for si, sent in enumerate(sents):
            for k in range(len(sent)):
                if sent.selected[k] and sent.heads[k] >= 0:
                    out.add((si, k + 1, sent.heads[k]))
        return out

    for p, g in zip(predicted, gold):
        if len(p) != len(g):
            raise ValueError("token counts differ between aligned sentences")
    pred_arcs = arcs(predicted)
    gold_arcs = arcs(gold)
    common = len(pred_arcs & gold_arcs)
    precision = 100.0 * common / len(pred_arcs) if pred_arcs else 0.0
    recall = 100.0 * common / len(gold_arcs) if gold_arcs else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


def export_arc_scores(model, sentences, path):
    """Write "sentence_id<TAB>child<TAB>candidate<TAB>score" lines for every
    candidate arc, scores in 6-decimal fixed point.  Returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for si, sent in enumerate(sentences):
            for i, cands, scores in model.score_sentence(sent):
                for j, s in zip(cands, scores):
                    fh.write(f"{si}\t{i}\t{j}\t{s:.6f}\n")
                    count += 1
    return count


def _child_losses(scores, gold):
    """Softmax log loss of each child's gold candidate, one row of candidate
    scores per child, as a log-sum-exp over each row.  Returns float64
    (losses, gradients with respect to the scores)."""
    if (gold < 0).any():
        raise ValueError("a selected child has no gold candidate")
    z = np.asarray(scores, dtype=np.float64)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(z))
    grad = e / s
    grad[rows, gold] -= 1.0
    return np.log(s[:, 0]) + m[:, 0] - z[rows, gold], grad


def batch_loss_and_grads(model, caches):
    """Mean per-child arc loss over a minibatch of sentence caches plus, when
    embedding updates are on, the anchored penalty; gradients cover the
    network and the rows of the embedding table that ``AdaptedEmbeddings``
    tracks.

    The first layer's gradient is built per position, like its forward pass:
    an incidence-matrix product sums the arc pre-activation gradients over
    each child's span and over each parent, giving the gradient of every
    position's projection, and one product of those with the position rows
    of the whole batch gives ``net.0.W``.  Only the pair-feature columns see
    per-arc rows.  The input gradient is formed per position, and only when
    the embeddings are updated.
    """
    net = model.net
    first = net.layers[0]
    n_children = sum(c.n_children for c in caches)
    grads = {f"net.{k}": np.zeros_like(v) for k, v in net.params().items()}
    window_grads = []
    half = model.type_width // 2
    total = 0.0
    side_rows, dside_rows, pair_grad = [], [], 0.0
    for cache in caches:
        k = cache.n_children
        if k == 0:
            continue
        flat, (Z, A, tail) = model._forward(cache)
        losses, dscores = _child_losses(flat.reshape(k, k), cache.gold)
        total += losses.sum()
        d = (dscores.astype(flat.dtype) / n_children).reshape(k * k, 1)
        for idx in range(len(net.layers) - 1, 0, -1):
            d, layer_grads = net.layers[idx].backward(d, tail[idx - 1])
            grads[f"net.{idx}.W"] += layer_grads["W"]
            grads[f"net.{idx}.b"] += layer_grads["b"]
        dA = d * (A > 0)
        arcs = np.arange(k * k)
        incidence = np.zeros((2 * k + 1, k * k), dtype=dA.dtype)
        incidence[arcs // k, arcs] = 1.0
        incidence[k + cache.parent, arcs] = 1.0
        dproj = incidence @ dA
        grads["net.0.b"] += dproj[:k].sum(axis=0)
        pair_grad = pair_grad + dA.T @ cache.pair
        side_rows.append(Z)
        dside_rows.append(dproj)
        if model.adapted is not None and half:
            dwin = dproj[k:] @ first.W[:, half:2 * half]
            dwin[1:] += dproj[:k] @ first.W[:, :half]
            window_grads.append((cache.wins, dwin.reshape(k + 1, model.win_len, -1)))
    if side_rows:
        np.matmul(np.concatenate(dside_rows).T, np.concatenate(side_rows),
                  out=grads["net.0.W"])
        # the side rows are zero in the pair columns
        grads["net.0.W"][:, -PAIR_FEATURE_COUNT:] = pair_grad
    total /= n_children
    if model.adapted is not None:
        penalty, grads["embeddings"] = model.adapted.gradient(window_grads)
        total += penalty
    return total, grads


@dataclass
class ParserTrainConfig:
    epochs: int = 30
    batch_size: int = 8          # sentences per minibatch
    learning_rate: float = 0.1
    momentum: float = 0.9
    patience: int = 10
    seed: int = 0


@dataclass
class ParserTrainResult:
    best_val_f1: float
    epochs_run: int
    history: list  # (epoch, validation F1)


def train_parser(model, train_sents, val_sents, cfg):
    """Minibatch training of the mean per-arc loss with early stopping on
    validation attachment F1.  Gold heads and gold selection drive both."""
    if not train_sents or not val_sents:
        raise ValueError("empty corpus")
    caches = [model._cache_sentence(s) for s in train_sents]
    for cache in caches:
        missing = np.flatnonzero(cache.gold < 0)
        if len(missing):
            raise ValueError(f"selected token {cache.positions[1 + missing[0]]} "
                             "has no usable gold head")
    usable = [k for k, c in enumerate(caches) if c.n_children]
    if not usable:
        raise ValueError("no selected tokens in the training corpus")

    def batch_loss(sel):
        return batch_loss_and_grads(model, [caches[usable[q]] for q in sel])

    def validation_f1():
        pred = [DepSentence(s.tokens, model.predict_heads(s), list(s.selected))
                for s in val_sents]
        return attachment_f1(pred, val_sents)[2]

    # -1 is below any F1, so the first epoch always takes a snapshot
    res = fit(model.params(), len(usable), batch_loss, validation_f1, cfg,
              maximize=True, baseline=-1.0, patience=cfg.patience)
    return ParserTrainResult(res.best, res.epochs_run,
                             [(epoch, f1) for epoch, _, f1 in res.history])
