#!/usr/bin/env python3
"""Head prediction on a positional-rule corpus.

Every token attaches to its left neighbor (the first token to the wall), a
rule fully expressible from the arc pair features, so the scorer should reach
perfect attachment F1.  Prints the validation F1 trajectory and a sample
parse, then exports arc scores the way a downstream parser would consume
them.
"""

import argparse
import tempfile

from tokembed import rng as rng_mod
from tokembed.nn import FitConfig
from tokembed.parser import (DepSentence, Parser, ParserConfig, attachment_f1,
                             export_arc_scores, train_parser)
from tokembed.synthetic import chain_dep_corpus, toy_embedding_table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--epochs", type=int, default=60)
    args = ap.parse_args()

    data_rng = rng_mod.stream(args.seed, "data")
    words, sents = chain_dep_corpus(data_rng, n_sentences=250, max_len=6)
    train, val = sents[:200], sents[200:]
    table = toy_embedding_table(words, 8, data_rng)

    model = Parser(ParserConfig(window=0, hidden=32), table,
                   rng=rng_mod.stream(args.seed, "init"))
    cfg = FitConfig(epochs=args.epochs, batch_size=8, learning_rate=0.05, momentum=0.9,
                    seed=args.seed, patience=args.epochs)
    res = train_parser(model, train, val, cfg)
    for epoch, _, f1 in res.history[:: max(1, len(res.history) // 10)]:
        print(f"epoch {epoch:>3}  val F1 {f1:6.2f}")
    print(f"best val F1 {res.best:.2f}")

    pred = [DepSentence(s.tokens, heads, list(s.selected))
            for s, heads in zip(train, model.predict_heads(train))]
    print(f"train F1 {attachment_f1(pred, train)[2]:.2f}")

    sample = val[0]
    heads, = model.predict_heads([sample])
    print("\nsample parse (token <- predicted head, * marks gold):")
    for k, tok in enumerate(sample.tokens):
        mark = "*" if heads[k] == sample.heads[k] else " "
        parent = "WALL" if heads[k] == 0 else sample.tokens[heads[k] - 1]
        print(f"  {tok} <- {parent} {mark}")

    with tempfile.NamedTemporaryFile("r", suffix=".tsv", delete=False) as fh:
        n = export_arc_scores(model, val[:2], fh.name)
        print(f"\nexported {n} arc scores for 2 sentences to {fh.name}")


if __name__ == "__main__":
    main()
