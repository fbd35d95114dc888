#!/usr/bin/env python3
"""Token embeddings carry context a center-word-only tagger cannot see.

The corpus tags a pivot word by its left neighbor.  A tagger whose input is
just the pivot's type embedding is stuck at chance on those tokens; giving
the same tagger one unsupervised token embedding (context radius 1) solves
them.  Prints overall and pivot-only accuracies for both configurations.
"""

import argparse

from tokembed import rng as rng_mod
from tokembed.encoder import FfnEncoder, WeightScheme, train_encoder
from tokembed.nn import FitConfig
from tokembed.synthetic import TAG_PIVOT, pivot_tag_corpus, toy_embedding_table
from tokembed.tagger import (Tagger, TaggerConfig, corpus_tag_ids,
                             tagging_accuracy, train_tagger)


def evaluate(model, corpus):
    overall = tagging_accuracy([model.tag_ids(t) for t, _ in corpus],
                               [g for _, g in corpus])
    hits = total = 0
    for toks, gold in corpus:
        pred = model.tag_ids(toks)
        for j, tok in enumerate(toks):
            if tok == TAG_PIVOT:
                total += 1
                hits += pred[j] == gold[j]
    return overall, 100.0 * hits / total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--sentences", type=int, default=400)
    args = ap.parse_args()

    data_rng = rng_mod.stream(args.seed, "data")
    words, tagset, sentences, _ = pivot_tag_corpus(data_rng, args.sentences)
    table = toy_embedding_table(words, 8, data_rng)
    corpus = corpus_tag_ids(sentences, tagset)
    split = int(0.75 * len(corpus))
    train, val = corpus[:split], corpus[split:]

    enc = FfnEncoder(8, 1, token_dim=8, hidden=32,
                     rng=rng_mod.stream(args.seed, "init"))
    ecfg = FitConfig(epochs=10, batch_size=16, learning_rate=0.02, momentum=0.9,
                     seed=args.seed)
    train_encoder(enc, table, [t for t, _ in train], [t for t, _ in val],
                  WeightScheme("focused", 3.0), ecfg)

    tcfg = FitConfig(epochs=40, batch_size=32, learning_rate=0.05, momentum=0.9,
                     seed=args.seed, patience=10)
    configs = [
        ("baseline w=0", Tagger(TaggerConfig(window=0, hidden=32), tagset,
                                table, rng=rng_mod.stream(args.seed + 1, "init"))),
        ("w=0 + token embedding (w'=1)",
         Tagger(TaggerConfig(window=0, hidden=32), tagset, table,
                encoders=[enc], rng=rng_mod.stream(args.seed + 2, "init"))),
    ]
    print(f"{'configuration':<32}{'val accuracy':>14}{'pivot accuracy':>16}")
    for name, model in configs:
        train_tagger(model, train, val, tcfg)
        overall, pivot = evaluate(model, val)
        print(f"{name:<32}{overall:>13.1f}%{pivot:>15.1f}%")


if __name__ == "__main__":
    main()
