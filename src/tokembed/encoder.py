"""Token-embedding encoders trained by weighted reconstruction of context windows.

An encoder maps a token occurrence to a d'-dimensional vector from the window
of 2*w'+1 type embeddings centered on it (boundaries padded with the reserved
start/end symbols).  Two architectures are provided:

* ``FfnEncoder``: concatenated window -> dense(relu hidden) -> linear code;
  the decoder mirrors it and reconstructs the whole concatenated window.
* ``Seq2SeqEncoder``: an LSTM reads the window left to right and its final
  hidden state is the code; a second LSTM, hidden state initialized to the
  code and fed zero inputs, emits one affine-projected vector per position.

Training minimizes the weighted reconstruction error: the position-weighted
sum of squared distances between each reconstructed vector and the type
embedding it should match.  Type embeddings stay fixed throughout.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .features import windows, word_types
from .nn import MLP, Dense, LstmCell, fit
from .serialize import (check_config, check_sizes, load_model, restore_params,
                        save_model)

SCHEME_NAMES = ("uniform", "focused", "tapered")

# Windows per forward pass of ``encode`` and ``mean_wre``: enough to amortise
# the per-call cost, few enough that a block's activations stay a few MB.  The
# size is part of the output: float32 products may round by their row count.
ENCODE_BLOCK = 256


@dataclass(frozen=True)
class EncoderSizes:
    """Default sizes of a new encoder; seq2seq has no ``hidden`` layer."""

    w_prime: int = 1
    token_dim: int = 256
    hidden: int = 512


@dataclass(frozen=True)
class WeightScheme:
    """Reconstruction weight profile over window positions.

    ``focused`` boosts only the center position to ``center_weight``;
    ``tapered`` fixes the profile 4 / 3 / 2 / 1 moving out from the center;
    ``uniform`` weighs every position 1.
    """

    name: str = "focused"
    center_weight: float = 2.0

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown weighting scheme {self.name!r}")
        if self.center_weight <= 0:
            raise ValueError("center weight must be positive")
        if not self.center_weight < np.inf:
            raise ValueError(f"center weight {self.center_weight} is not finite")


def window_weights(scheme, w_prime):
    """Weight vector of length 2*w_prime+1 for the given scheme."""
    if w_prime < 1:
        raise ValueError("window radius must be at least 1")
    width = 2 * w_prime + 1
    if scheme.name == "uniform":
        return np.ones(width)
    if scheme.name == "focused":
        w = np.ones(width)
        w[w_prime] = scheme.center_weight
        return w
    # tapered: 4 at the center, 3 at distance 1, 2 at distance 2, 1 beyond
    dist = np.abs(np.arange(width) - w_prime)
    return np.maximum(4.0 - dist, 1.0)


def corpus_windows(table, sentences, w_prime):
    """(N, 2w'+1) window ids around the N tokens of ``sentences``, in corpus
    order, from one id lookup per distinct string and one ``windows``."""
    vocab = table.vocab
    types, of = word_types(sentences)
    return windows(vocab.to_ids(types)[of], [len(toks) for toks in sentences],
                   np.arange(-w_prime, w_prime + 1), vocab.bos_id, vocab.eos_id)


def wre_value(reconstructions, targets, weights):
    """Mean over the batch of sum_i weights[i] * ||rec_i - target_i||^2."""
    diff = np.asarray(reconstructions) - np.asarray(targets)
    per = (np.asarray(weights)[None, :, None] * diff * diff).sum(axis=(1, 2))
    return float(per.mean())


class WindowEncoder:
    """What both architectures share: the window of ``2*w_prime+1`` type
    embeddings a code is computed from, encoding, the forward-only
    reconstruction error and the model file.  Subclasses supply ``_codes``
    (codes of a (B, 2w'+1, d) array of type vectors), ``decode``,
    ``loss_and_grads``, ``params`` and ``config``.
    """

    def __init__(self, dim, w_prime, token_dim, dtype):
        if w_prime < 0:
            raise ValueError("window radius must be non-negative")
        self.dim = int(dim)
        self.w_prime = int(w_prime)
        self.token_dim = int(token_dim)
        self.dtype = np.dtype(dtype)

    @property
    def window_len(self):
        return 2 * self.w_prime + 1

    def _embed(self, table, windows):
        """(B, 2w'+1, d) type vectors of a window matrix, in the model dtype."""
        if table.dim != self.dim:
            raise ValueError(f"table dim {table.dim} != encoder dim {self.dim}")
        return table.vectors[windows].astype(self.dtype, copy=False)

    def _targets(self, table, windows, weights):
        """Type vectors and float64 position weights of a training batch."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.window_len,):
            raise ValueError(f"need {self.window_len} weights, got {weights.shape}")
        return self._embed(table, np.atleast_2d(np.asarray(windows))), weights

    def encode(self, table, windows, out=None):
        """Token embeddings for an (B, 2w'+1) id matrix (or a single window),
        ``ENCODE_BLOCK`` windows per forward pass; written into the
        (B, ``token_dim``) array ``out`` when one is given."""
        rows = np.atleast_2d(windows)
        codes = np.empty((len(rows), self.token_dim), dtype=self.dtype) if out is None else out
        for k in range(0, len(rows), ENCODE_BLOCK):
            codes[k:k + ENCODE_BLOCK] = self._codes(self._embed(table, rows[k:k + ENCODE_BLOCK]))
        return codes[0] if np.ndim(windows) == 1 else codes

    def encode_sentence(self, table, ids):
        """Token embeddings of every position of a sentence of ids."""
        return self.encode(table, windows(ids, [len(ids)], np.arange(-self.w_prime, self.w_prime + 1),
                                          table.vocab.bos_id, table.vocab.eos_id))

    def mean_wre(self, table, windows, weights):
        """Forward-only mean reconstruction error over many windows."""
        total = 0.0
        for k in range(0, len(windows), ENCODE_BLOCK):
            targets = self._embed(table, windows[k:k + ENCODE_BLOCK])
            rec = self.decode(self._codes(targets))
            total += wre_value(rec, targets, weights) * len(targets)
        return total / len(windows)

    def config(self):
        return {"arch": self.arch, "dim": self.dim, "w_prime": self.w_prime,
                "token_dim": self.token_dim}

    def save(self, path, scheme=None):
        cfg = self.config()
        if scheme is not None:
            cfg["scheme"] = asdict(scheme)
        save_model(path, self.arch, cfg, self.params())


class FfnEncoder(WindowEncoder):
    """Feedforward window autoencoder.

    Encoder: dense(d*(2w'+1) -> hidden, relu) then dense(hidden -> d', linear).
    Decoder mirrors it back to the full concatenated window.
    """

    arch = "ffn"

    def __init__(self, dim, w_prime, token_dim, hidden, rng=None, dtype=np.float32):
        super().__init__(dim, w_prime, token_dim, dtype)
        self.hidden = int(hidden)
        width = self.dim * self.window_len
        self.encoder = MLP([width, hidden, token_dim], ["relu", "linear"], rng, dtype)
        self.decoder = MLP([token_dim, hidden, width], ["relu", "linear"], rng, dtype)

    def _codes(self, E):
        codes, _ = self.encoder.forward(E.reshape(len(E), self.dim * E.shape[1]))
        return codes

    def decode(self, codes):
        """Reconstructions (B, 2w'+1, d) from codes (B, d')."""
        codes = np.atleast_2d(np.asarray(codes))
        flat, _ = self.decoder.forward(codes)
        return flat.reshape(len(codes), self.window_len, self.dim)

    def loss_and_grads(self, table, windows, weights):
        targets, weights = self._targets(table, windows, weights)
        B = len(targets)
        codes, enc_cache = self.encoder.forward(targets.reshape(B, -1))
        flat, dec_cache = self.decoder.forward(codes)
        rec = flat.reshape(B, self.window_len, self.dim)
        loss = wre_value(rec, targets, weights)
        diff = rec - targets
        dRec = (2.0 / B) * weights[None, :, None] * diff
        dFlat = dRec.reshape(B, -1).astype(flat.dtype)
        dCodes, dec_grads = self.decoder.backward(dFlat, dec_cache)
        _, enc_grads = self.encoder.backward(dCodes, enc_cache, None)  # types stay fixed
        grads = {f"enc.{k}": v for k, v in enc_grads.items()}
        grads.update({f"dec.{k}": v for k, v in dec_grads.items()})
        return loss, grads

    def params(self):
        return {f"{part}.{k}": v for part, net in (("enc", self.encoder), ("dec", self.decoder))
                for k, v in net.params().items()}

    def config(self):
        return {**super().config(), "hidden": self.hidden}


class Seq2SeqEncoder(WindowEncoder):
    """LSTM window autoencoder.

    The encoder LSTM reads the window left to right from a zero state; its
    final hidden vector is the token embedding.  The decoder LSTM starts with
    hidden state equal to that code (cell state zero), consumes a zero input
    at every step, and each hidden vector is affinely projected to one
    reconstructed type vector, in original window order.  Each LSTM runs
    over the whole window in one ``LstmCell.forward``, and the projection
    maps all the decoder's hidden vectors in one product each way.
    """

    arch = "seq2seq"

    def __init__(self, dim, w_prime, token_dim, rng=None, dtype=np.float32):
        super().__init__(dim, w_prime, token_dim, dtype)
        self.enc_cell = LstmCell(dim, token_dim, rng, dtype)
        self.dec_cell = LstmCell(dim, token_dim, rng, dtype)
        self.proj = Dense(token_dim, dim, "linear", rng, dtype)

    def _codes(self, E):
        H, _ = self.enc_cell.forward(E.transpose(1, 0, 2))
        return H[-1]

    def _decode(self, codes, keep=False):
        """(2w'+1, B, d) reconstructions of (B, d') codes, one product for
        all steps, and with ``keep`` the caches of the decoder and of the
        projection."""
        H, cache = self.dec_cell.forward(h0=codes, steps=self.window_len, keep=keep)
        T, B, h = H.shape
        flat, pcache = self.proj.forward(H.reshape(T * B, h))
        return flat.reshape(T, B, self.dim), cache, pcache

    def decode(self, codes):
        codes = np.atleast_2d(np.asarray(codes, dtype=self.dtype))
        return self._decode(codes)[0].transpose(1, 0, 2)

    def loss_and_grads(self, table, windows, weights):
        targets, weights = self._targets(table, windows, weights)
        B, T = targets.shape[:2]
        E = targets.transpose(1, 0, 2)  # (T, B, d), one block per step
        H, enc_cache = self.enc_cell.forward(E, keep=True)
        rec, dec_cache, pcache = self._decode(H[-1], keep=True)
        loss = wre_value(rec.transpose(1, 0, 2), targets, weights)
        dRec = (2.0 / B) * weights[:, None, None] * (rec - E)
        dH, pgrads = self.proj.backward(dRec.astype(self.dtype).reshape(T * B, -1), pcache)
        # the decoder's initial hidden state is the code, the encoder's last
        # hidden state; the zero initial cell states absorb no gradient
        dcodes, dec_grads = self.dec_cell.backward(dH.reshape(T, B, -1), dec_cache)
        _, enc_grads = self.enc_cell.backward(dcodes[None], enc_cache)
        parts = {"enc": enc_grads, "dec": dec_grads, "proj": pgrads}
        return loss, {f"{part}.{k}": v for part, g in parts.items() for k, v in g.items()}

    def params(self):
        parts = {"enc": self.enc_cell, "dec": self.dec_cell, "proj": self.proj}
        return {f"{part}.{k}": v for part, net in parts.items() for k, v in net.params().items()}


def wre_loss(model, table, windows, weights):
    """Weighted reconstruction error and gradients for every model parameter."""
    return model.loss_and_grads(table, windows, weights)


ARCHS = (FfnEncoder.arch, Seq2SeqEncoder.arch)


def check_encoder_sizes(arch, **sizes):
    """Raise ValueError for a size below 1; ``hidden`` counts for ffn only."""
    for name, size in sizes.items():
        if (name != "hidden" or arch == "ffn") and size < 1:
            raise ValueError(f"{name} must be positive, got {size}")


def build_encoder(arch, dim, w_prime, token_dim=EncoderSizes.token_dim,
                  hidden=EncoderSizes.hidden, rng=None, dtype=np.float32):
    if arch not in ARCHS:
        raise ValueError(f"unknown encoder architecture {arch!r}")
    check_encoder_sizes(arch, dim=dim, token_dim=token_dim, hidden=hidden)
    if arch == "ffn":
        return FfnEncoder(dim, w_prime, token_dim, hidden, rng, dtype)
    return Seq2SeqEncoder(dim, w_prime, token_dim, rng, dtype)


# Header config of an encoder file; only ffn files hold "hidden", any may omit "scheme".
_CONFIG_FIELDS = {"arch": str, "dim": int, "w_prime": int, "token_dim": int,
                 "hidden": int, "scheme": {"name": str, "center_weight": float}}


def load_encoder(path):
    """Load an encoder model file; returns (model, scheme or None)."""
    kind, cfg, tensors = load_model(path)
    if kind not in ARCHS:
        raise ValueError(f"{path}: not an encoder model (kind={kind!r})")
    fields = {k: v for k, v in _CONFIG_FIELDS.items() if kind == "ffn" or k != "hidden"}
    check_config(path, cfg, fields, optional=("scheme",))
    if kind == "ffn":
        width = cfg["dim"] * (2 * cfg["w_prime"] + 1)
        sizes = {"config.hidden": ("enc.0.b", (cfg["hidden"],)),
                 "config.token_dim": ("enc.1.b", (cfg["token_dim"],)),
                 "config.dim, config.w_prime": ("dec.1.b", (width,))}
    else:
        sizes = {"config.token_dim": ("enc.bi", (cfg["token_dim"],)),
                 "config.dim": ("proj.b", (cfg["dim"],))}
    check_sizes(path, tensors, sizes)
    try:
        model = build_encoder(kind, cfg["dim"], cfg["w_prime"], cfg["token_dim"],
                              cfg["hidden"] if kind == "ffn" else None)
        scheme = WeightScheme(**cfg["scheme"]) if "scheme" in cfg else None
    except ValueError as e:
        raise ValueError(f"{path}: config: {e}") from None
    restore_params(model.params(), tensors, path)
    return model, scheme


def train_encoder(model, table, train_sentences, val_sentences, scheme, cfg):
    """Minibatch SGD over every token window of the shuffled corpus, run by
    ``fit`` with the ``FitConfig`` ``cfg``; returns its ``FitResult``.

    Validation WRE (under the training scheme's weights) is measured before
    training, every ``cfg.eval_every`` minibatches, and at each epoch end
    unless the epoch's last minibatch was just measured; the best-scoring
    parameters are kept and restored before returning.
    """
    if not train_sentences:
        raise ValueError("training corpus is empty")
    if not val_sentences:
        raise ValueError("validation corpus is empty")
    train_wins = corpus_windows(table, train_sentences, model.w_prime)
    val_wins = corpus_windows(table, val_sentences, model.w_prime)
    if not len(train_wins) or not len(val_wins):
        raise ValueError("corpus contains no tokens")
    weights = window_weights(scheme, model.w_prime)

    def batch_loss(sel):
        return model.loss_and_grads(table, train_wins[sel], weights)

    def evaluate():
        return model.mean_wre(table, val_wins, weights)

    return fit(model.params(), len(train_wins), batch_loss, evaluate, cfg, maximize=False)
