"""Wrappers the benchmark installs around tokembed functions in a child process.

Two kinds of hook:

* work hooks mark the first entry and last exit of a command's main work
  call, so the parent can split a command's wall time into set-up and work;
  they are installed in every run and cost one clock read per call;
* layer hooks, installed only in traced runs, record a span (name, start,
  end, parent) around each public layer function, or only a call count for
  per-token and per-arc helpers, plus computed FLOPs and bytes.

A function is patched on its defining module or class and under every name
another tokembed module imported it as.  A target that no longer exists is
reported as absent and the run goes on.
"""

import functools
import importlib
import os
import sys
import time

clock = time.perf_counter


def _flops_forward(mlp, X):
    return sum(2 * len(X) * layer.n_in * layer.n_out for layer in mlp.layers)


def _flops_backward(mlp, dY):
    # Every layer computes both dW and dX, each a matmul the size of forward.
    return 2 * _flops_forward(mlp, dY)


def _score_arcs(result):
    return sum(len(cands) for _, cands, _ in result)


def _arc_rows_mb(model, train_sents):
    """Bytes the arc rows of a training corpus take once composed: each
    selected child has one row per candidate (the wall plus the other
    selected tokens), each row ``input_dim`` float32 values wide."""
    rows = sum(sum(s.selected) ** 2 for s in train_sents)
    return rows * model.input_dim * 4 / 1e6


# name -> targets.  "module:attr" or "module:Class.method".
SPANS = {
    "embeddings.load_word2vec_text": ["embeddings:load_word2vec_text"],
    "serialize.load_model": ["serialize:load_model"],
    "serialize.save_model": ["serialize:save_model"],
    "encoder.corpus_windows": ["encoder:corpus_windows"],
    "encoder.ffn.loss_and_grads": ["encoder:FfnEncoder.loss_and_grads"],
    "encoder.seq2seq.loss_and_grads": ["encoder:Seq2SeqEncoder.loss_and_grads"],
    "encoder.mean_wre": ["encoder:FfnEncoder.mean_wre", "encoder:Seq2SeqEncoder.mean_wre"],
    "encoder.encode_sentence": ["encoder:FfnEncoder.encode_sentence",
                                "encoder:Seq2SeqEncoder.encode_sentence"],
    "nn.MLP.forward": ["nn:MLP.forward"],
    "nn.MLP.backward": ["nn:MLP.backward"],
    "nn.LstmCell.step": ["nn:LstmCell.step"],
    "nn.LstmCell.step_backward": ["nn:LstmCell.step_backward"],
    "nn.SgdMomentum.step": ["nn:SgdMomentum.step"],
    "nn.anchored_l2": ["nn:anchored_l2"],
    "tagger.const_features": ["tagger:Tagger.const_features"],
    "tagger.batch_loss_and_grads": ["tagger:batch_loss_and_grads"],
    "tagger.train_tagger": ["tagger:train_tagger"],
    "tagger.Tagger.tag_sentence": ["tagger:Tagger.tag_sentence"],
    "parser.train_parser": ["parser:train_parser"],
    "parser.batch_loss_and_grads": ["parser:batch_loss_and_grads"],
    "parser.Parser.predict_heads": ["parser:Parser.predict_heads"],
    "parser.Parser.score_sentence": ["parser:Parser.score_sentence"],
    "parser.export_arc_scores": ["parser:export_arc_scores"],
    "analysis.index_corpus": ["analysis:index_corpus"],
    "analysis.nearest_neighbors": ["analysis:nearest_neighbors"],
    "analysis.export_embeddings_tsv": ["analysis:export_embeddings_tsv"],
    "cli.main": ["cli:main"],
}

# Per-token and per-arc helpers: counted, never spanned.  extended_features
# also accumulates its time, since its cost is the featuriser's whole cost.
COUNTS = {
    "embeddings.to_ids": ["embeddings:Vocabulary.to_ids"],
    "features.pair_features": ["features:pair_features"],
    "features.word_features": ["features:word_features"],
    "features.extended_features": ["features:extended_features"],
}
TIMED_COUNTS = {"features.extended_features"}

# name -> (quantity, function of (args, result) giving its increment)
EXTRAS = {
    "nn.MLP.forward": ("nn.MLP.flop", lambda a, r: _flops_forward(a[0], a[1])),
    "nn.MLP.backward": ("nn.MLP.flop", lambda a, r: _flops_backward(a[0], a[1])),
    "serialize.save_model": ("serialize.bytes", lambda a, r: os.path.getsize(a[0])),
    "serialize.load_model": ("serialize.bytes", lambda a, r: os.path.getsize(a[0])),
    "parser.Parser.score_sentence": ("parser.Parser.score_sentence.arcs",
                                     lambda a, r: _score_arcs(r)),
    "parser.train_parser": ("parser.arc_rows.mb", lambda a, r: _arc_rows_mb(a[0], a[1])),
}


def _resolve(target):
    """(owner, attribute, original) for a target, or None when it is absent."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module("tokembed." + mod_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    orig = getattr(owner, attr, None)
    return None if orig is None else (owner, attr, orig)


def _patch(target, make_wrapper):
    """Replace a target everywhere tokembed refers to it; False if absent."""
    found = _resolve(target)
    if found is None:
        return False
    owner, attr, orig = found
    wrapper = functools.wraps(orig)(make_wrapper(orig))
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("tokembed"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
    return True


class Recorder:
    """Work interval, spans and counters of one command, kept in memory."""

    def __init__(self):
        self.work_start = None
        self.work_end = None
        self.spans = []    # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.times = {}
        self.extras = {}
        self.absent = []

    def add_work(self, targets):
        for target in targets:
            if not _patch(target, self._work_wrapper):
                self.absent.append(target)

    def _work_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            if self.work_start is None:
                self.work_start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.work_end = time.monotonic()
        return wrapped

    def add_layers(self):
        for name, targets in SPANS.items():
            for target in targets:
                if not _patch(target, lambda fn, n=name: self._span_wrapper(n, fn)):
                    self.absent.append(target)
        for name, targets in COUNTS.items():
            for target in targets:
                if not _patch(target, lambda fn, n=name: self._count_wrapper(n, fn)):
                    self.absent.append(target)

    def _span_wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            self.spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = clock()
                self.stack.pop()
            if extra is not None:
                key, fn_extra = extra
                try:
                    self.extras[key] = self.extras.get(key, 0.0) + fn_extra(args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    self.absent.append(key)  # the call no longer has this shape
            return result
        return wrapped

    def _count_wrapper(self, name, fn):
        timed = name in TIMED_COUNTS

        def wrapped(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            if not timed:
                return fn(*args, **kwargs)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times[name] = self.times.get(name, 0.0) + clock() - t
        return wrapped

    def layer_record(self):
        """Per-name totals: inclusive seconds, self seconds and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_time[k]
            row["calls"] += 1
        for name, n in self.counts.items():
            out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})["calls"] += n
        for name, t in self.times.items():
            out[name]["s"] += t
        return out
