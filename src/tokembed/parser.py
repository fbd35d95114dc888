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
Inference (``predict_heads``, ``export_arc_scores``) scores blocks of whole
sentences of about ``SCORE_BLOCK`` arc rows in one pass each; training runs
one pass per sentence.  A sentence keeps the ``TokenInputs`` of its wall and
its selected tokens, from one ``Predictor.features`` call per scoring block
and one for the training corpus, and ``Predictor.compose`` writes their
position rows as it writes the tagger's input rows.  The word-shape bits come
from the model's ``StringRows``, built once per distinct string.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import Predictor, TokenInputs
from .features import PAIR_FEATURE_COUNT, pair_feature_matrix
from .nn import fit, relu, softmax_logloss, softmax_logloss_rows
from .serialize import read_tsv, tsv_int

# Arc rows per scoring pass at inference: a block of whole sentences closes
# once it reaches this many, enough rows that the hidden-layer products run
# at full speed, few enough that a block's activations stay a few MB.  The
# size is part of the output: float32 products of another row count may round
# differently, so changing it can change the bits ``parse`` and
# ``export-arc-scores`` write.
SCORE_BLOCK = 512


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


def check_gold_heads(sentences, source="training corpus"):
    """Reject a selected token with no gold head, naming ``source`` and the sentence."""
    for k, sent in enumerate(sentences, start=1):
        for i in sent.selected_positions():
            if sent.heads[i - 1] < 0:
                raise ValueError(f"{source}: sentence {k}: selected token {i} has no gold head")


def load_dep_corpus(path):
    """CoNLL-like file: "index<TAB>token<TAB>head<TAB>selected" lines, blank
    line between sentences; head is -1 (and selected 0) for unselected tokens."""
    sentences = []
    for block in read_tsv(path, 4):
        index, heads, selected = ([tsv_int(path, row, k) for row in block] for k in (1, 3, 4))
        for (lineno, fields), flag in zip(block, selected):
            if flag not in (0, 1):
                raise ValueError(f"{path}:{lineno}: field 4 is not 0 or 1: {fields[3]!r}")
        try:  # a fault of the sentence as a whole is reported at its first line
            if index != list(range(1, len(block) + 1)):
                raise ValueError("token indices are not 1..n")
            sentences.append(DepSentence([fields[1] for _, fields in block], heads,
                                         [flag == 1 for flag in selected]))
        except ValueError as e:
            raise ValueError(f"{path}:{block[0][0]}: {e}") from None
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
        if self.update_embeddings and self.window == -1:
            raise ValueError("update_embeddings needs a type window, and window -1 has none")


@dataclass
class _SentenceCache:
    """Per-position inputs and arc indices for one sentence.

    Slot 0 is the wall and slots 1..k are the selected tokens in order;
    ``positions`` maps slots to sentence positions.  ``inputs`` holds the
    ``TokenInputs`` of the k+1 slots, which ``Predictor.compose`` turns into
    position rows: the type-window ids, the token embeddings and the string
    row ids.  The wall's are the window of the zero unknown row, zero codes
    and string row 0, so its position row is zero.  Every child has the same k
    candidates, the wall and then the other selected tokens in order, so the
    k*k arcs form k contiguous spans of length k, one per child.  Per arc only
    the ``parent`` slot and the ``pair`` features are kept, so no per-arc
    array is wider than ``PAIR_FEATURE_COUNT``.  ``gold`` is each child's gold
    candidate offset, -1 when it has no usable gold head.
    """

    positions: np.ndarray
    inputs: TokenInputs
    parent: np.ndarray
    pair: np.ndarray
    gold: np.ndarray

    @property
    def n_children(self):
        return len(self.gold)


class Parser(Predictor):
    """Arc scorer and local head predictor.

    The first layer is linear in the input row, so it is applied per position
    rather than per arc: each block of a slot's position row (``_blocks``,
    from ``Predictor.position_widths``) is projected once through its child
    and once through its parent columns of ``net.0.W``.  An arc's
    pre-activation is its child's projection plus its parent's plus that of
    its pair features (Chen & Manning, 2014).  Only the hidden layers see one
    row per arc.

    Inference goes through ``_forward`` a block of sentences at a time: the
    first-layer products run over the positions of every sentence in the
    block, and one product per hidden layer over all their arcs.
    ``score_sentence`` and ``arc_score`` are the one-sentence block;
    ``predict_heads`` takes a whole corpus.
    """

    kind = "parser"
    config_class = ParserConfig

    def __init__(self, config, table, encoders=(), rng=None, dtype=np.float32):
        self.check_lexical_input(config, encoders)
        super().__init__(config, table, encoders, 1, rng, dtype)
        # (position-row, child-column, parent-column) slices of the position
        # row's blocks: the network input holds each block twice, child copy
        # then parent copy, from twice its offset; pair features close it.
        starts = np.cumsum((0, *self.widths)).tolist()
        self._blocks = [(slice(lo, lo + w), slice(2 * lo, 2 * lo + w),
                         slice(2 * lo + w, 2 * (lo + w)))
                        for lo, w in zip(starts, self.widths) if w]

    @staticmethod
    def check_lexical_input(config, encoders):
        """Reject window -1 with no ``encoders``: no input would name a word."""
        if config.window == -1 and not encoders:
            raise ValueError("window=-1 with no encoders leaves no lexical input")

    @staticmethod
    def offsets(config):
        """-w..w, none for window -1."""
        return range(-config.window, config.window + 1)

    @classmethod
    def input_width(cls, config, dim, token_dim, header):
        """Child then parent copies of the position row, then the pair features."""
        return 2 * sum(cls.position_widths(config, dim, token_dim)) + PAIR_FEATURE_COUNT

    # -- input composition ---------------------------------------------------

    def _caches(self, sentences):
        """The ``_SentenceCache`` of each of ``sentences``, from one
        ``features`` call for them all."""
        inputs = self.features([sent.tokens for sent in sentences])
        # the wall reads the all-zero unknown row, zero codes and string row 0
        wall = TokenInputs(np.full((1, self.win_len), self.table.vocab.unk_id),
                           np.zeros((1, inputs.codes.shape[1]), inputs.codes.dtype),
                           np.zeros((1, 3), dtype=np.int64))
        starts = np.cumsum([0] + [len(sent) for sent in sentences])
        return [self._cache_sentence(sent, wall, inputs, start)
                for sent, start in zip(sentences, starts.tolist())]

    def _cache_sentence(self, sent, wall, inputs, start):
        """Slot inputs and arc indices for every selected child of a
        sentence whose tokens' ``TokenInputs`` start at row ``start`` of
        ``inputs``; ``wall`` holds the wall slot's."""
        n = len(sent)
        positions = np.array([0] + sent.selected_positions(), dtype=np.int64)
        tokens = positions[1:]
        k = len(tokens)

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
        slot_inputs = TokenInputs.join([wall, inputs.take(start + tokens - 1)])
        return _SentenceCache(positions, slot_inputs, parent,
                              pair.astype(self.net.layers[0].W.dtype), gold)

    def _forward(self, caches):
        """Scores of the k*k arcs of every sentence in ``caches``, one flat
        array holding each sentence's child spans in order, and the
        activations ``batch_loss_and_grads`` propagates back through.

        The child and parent columns of ``net.0.W`` project the position rows
        of all the sentences, one product per block of ``_blocks`` and role;
        one product takes the pair features, and one per hidden layer covers
        all the arcs.  The scalar output layer runs per sentence, because the
        rounding of an (M, hidden) x (hidden, 1) product changes with M: a
        sentence keeps the scores it gets alone wherever the wider
        hidden-layer products round alike (README, "Parser cost")."""
        first, last = self.net.layers[0], self.net.layers[-1]
        ks = [c.n_children for c in caches]
        rows = np.cumsum([0] + [k * k for k in ks])   # each sentence's first arc
        slots = np.cumsum([0] + [k + 1 for k in ks])  # and its wall's position row
        X = self.compose(TokenInputs.join([c.inputs for c in caches]))
        child = sum(X[:, pos] @ first.W[:, cols].T for pos, cols, _ in self._blocks)
        parent = sum(X[:, pos] @ first.W[:, cols].T for pos, _, cols in self._blocks)
        A = np.concatenate([c.pair for c in caches]) @ first.W[:, -PAIR_FEATURE_COUNT:].T
        for cache, k, lo, s in zip(caches, ks, rows, slots):
            spans = A[lo:lo + k * k].reshape(k, k, first.n_out)
            spans += (child[s + 1:s + k + 1] + first.b)[:, None, :]
            spans += parent[s:s + k + 1][cache.parent.reshape(k, k)]
        H = relu(A, out=A)  # in place, so A > 0 stays the backward mask
        tail = []
        for layer in self.net.layers[1:-1]:
            H, layer_cache = layer.forward(H)
            tail.append(layer_cache)
        out = np.concatenate([last.forward(H[lo:hi])[0] for lo, hi in zip(rows, rows[1:])])
        tail.append((H, out))  # the (input, output) cache of the linear output
        return out[:, 0], (X, A, tail)

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
        taken from the whole-sentence pass ``predict_heads([sent])`` uses."""
        self._check_arc(sent, i, j)
        _, cands, scores = next(row for row in self.score_sentence(sent) if row[0] == i)
        return float(scores[cands.index(j)])

    def arc_input(self, sent, i, j):
        """Composed network input for one (child, parent) pair: the row whose
        first-layer product the factored scorer computes."""
        self._check_arc(sent, i, j)
        cache, = self._caches([sent])
        child, parent = self.compose(cache.inputs)[np.searchsorted(cache.positions, [i, j])]
        row = np.zeros(self.input_dim, dtype=child.dtype)
        for pos, child_cols, parent_cols in self._blocks:
            row[child_cols], row[parent_cols] = child[pos], parent[pos]
        row[-PAIR_FEATURE_COUNT:] = pair_feature_matrix([i], [j], len(sent))[0]
        return row

    def _block_scores(self, sentences):
        """(sentence, cache, (k, k) arc scores) per sentence, in order, with
        one ``_caches`` call and one ``_forward`` per block of sentences; a
        cache lives only as long as its block."""
        for block in self._sentence_blocks(sentences, lambda sent: sum(sent.selected) ** 2,
                                           SCORE_BLOCK):
            caches = self._caches(block)
            scored = [cache for cache in caches if cache.n_children]
            flat = self._forward(scored)[0] if scored else np.zeros(0)
            end = 0
            for sent, cache in zip(block, caches):
                k = cache.n_children
                yield sent, cache, flat[end:end + k * k].reshape(k, k)
                end += k * k

    def score_sentence(self, sent):
        """Scores for every (child, candidate) pair: list of (i, cands, scores)."""
        (_, cache, scores), = self._block_scores([sent])
        k = cache.n_children
        cands = cache.positions[cache.parent].reshape(k, k).tolist()
        return list(zip(cache.positions[1:].tolist(), cands, scores))

    def predict_heads(self, sentences):
        """One head list per sentence of ``sentences``: the independent argmax
        head of each selected token, -1 for unselected tokens.

        Candidates are ordered wall-first then ascending, so ties resolve to
        the wall and then to the lowest position.
        """
        out = []
        for sent, cache, scores in self._block_scores(sentences):
            k = cache.n_children
            heads = np.full(len(sent), -1, dtype=np.int64)
            if k:
                best = cache.parent.reshape(k, k)[np.arange(k), scores.argmax(axis=1)]
                heads[cache.positions[1:] - 1] = cache.positions[best]
            out.append(heads.tolist())
        return out


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
        for si, (_, cache, scores) in enumerate(model._block_scores(sentences)):
            k = cache.n_children
            children = np.repeat(cache.positions[1:], k).tolist()
            cands = cache.positions[cache.parent].tolist()
            fh.writelines(f"{si}\t{i}\t{j}\t{s:.6f}\n"
                          for i, j, s in zip(children, cands, scores.ravel().tolist()))
            count += k * k
    return count


def _child_losses(scores, gold):
    """Softmax log loss of each child's gold candidate, one row of candidate
    scores per child.  Returns float64 (losses, gradients with respect to
    the scores)."""
    if (gold < 0).any():
        raise ValueError("a selected child has no gold candidate")
    return softmax_logloss_rows(np.asarray(scores, dtype=np.float64), gold)


def batch_loss_and_grads(model, caches):
    """Mean per-child arc loss over a minibatch of sentence caches plus, when
    embedding updates are on, the anchored penalty; gradients cover the
    network and the rows of the embedding table that ``AdaptedEmbeddings``
    has reached.

    The first layer's gradient is built per position, like its forward pass:
    an incidence-matrix product sums the arc pre-activation gradients over
    each child's span and over each parent, giving the gradient of every
    slot's child and parent projections.  Per block of ``_blocks`` and role,
    one product of those with the position rows of the whole batch gives
    that block's columns of ``net.0.W``.  Only the pair-feature columns see
    per-arc rows.  The type-window gradient is formed per position, through
    the type block's columns, and only when the embeddings are updated.
    """
    net = model.net
    first = net.layers[0]
    n_children = sum(c.n_children for c in caches)
    # net.0.W is written in full after the loop when some sentence has a child
    grads = {f"net.{k}": (np.empty_like if k == "0.W" and n_children else np.zeros_like)(v)
             for k, v in net.params().items()}
    window_grads = []
    total = 0.0
    first_rows, pair_grad = [], 0.0  # per sentence: X and its projections' gradients
    for cache in caches:
        k = cache.n_children
        if k == 0:
            continue
        flat, (X, A, tail) = model._forward([cache])
        losses, dscores = _child_losses(flat.reshape(k, k), cache.gold)
        total += losses.sum()
        d = (dscores.astype(flat.dtype) / n_children).reshape(k * k, 1)
        for idx in range(len(net.layers) - 1, 0, -1):
            d, layer_grads = net.layers[idx].backward(d, tail[idx - 1])
            grads[f"net.{idx}.W"] += layer_grads["W"]
            grads[f"net.{idx}.b"] += layer_grads["b"]
        dA = d * (A > 0)
        arcs = np.arange(k * k)
        incidence = np.zeros((2 * (k + 1), k * k), dtype=dA.dtype)
        incidence[1 + arcs // k, arcs] = 1.0          # each arc's child slot
        incidence[k + 1 + cache.parent, arcs] = 1.0   # and its parent slot
        dchild, dparent = np.split(incidence @ dA, 2)
        grads["net.0.b"] += dchild.sum(axis=0)
        pair_grad = pair_grad + dA.T @ cache.pair
        first_rows.append((X, dchild, dparent))
        if model.adapted is not None:
            _, child_cols, parent_cols = model._blocks[0]  # the type window
            dwin = dparent @ first.W[:, parent_cols] + dchild @ first.W[:, child_cols]
            window_grads.append((cache.inputs.wins, dwin.reshape(k + 1, model.win_len, -1)))
    if first_rows:
        X, dchild, dparent = map(np.concatenate, zip(*first_rows))
        dW = grads["net.0.W"]
        for pos, child_cols, parent_cols in model._blocks:  # in place: no (hidden, width) temporaries
            np.matmul(dchild.T, X[:, pos], out=dW[:, child_cols])
            np.matmul(dparent.T, X[:, pos], out=dW[:, parent_cols])
        dW[:, -PAIR_FEATURE_COUNT:] = pair_grad
    total /= n_children
    if model.adapted is not None:
        penalty, grads["embeddings"] = model.adapted.gradient(window_grads)
        total += penalty
    return total, grads


def train_parser(model, train_sents, val_sents, cfg):
    """Minibatch training of the mean per-arc loss with early stopping on
    validation attachment F1, run by ``fit`` with the ``FitConfig`` ``cfg``
    (``batch_size`` counts sentences); returns its ``FitResult``.  Gold
    heads and gold selection drive both."""
    if not train_sents or not val_sents:
        raise ValueError("empty corpus")
    check_gold_heads(train_sents)
    caches = model._caches(train_sents)
    usable = [k for k, c in enumerate(caches) if c.n_children]
    if not usable:
        raise ValueError("no selected tokens in the training corpus")
    if model.adapted is not None:
        model.adapted.add_rows(np.concatenate([c.inputs.wins for c in caches]))

    def batch_loss(sel):
        return batch_loss_and_grads(model, [caches[usable[q]] for q in sel])

    def validation_f1():
        pred = [DepSentence(s.tokens, heads, list(s.selected))
                for s, heads in zip(val_sents, model.predict_heads(val_sents))]
        return attachment_f1(pred, val_sents)[2]

    # -1 is below any F1, so the first epoch always takes a snapshot
    return fit(model.params(), len(usable), batch_loss, validation_f1, cfg,
               maximize=True, baseline=-1.0)
