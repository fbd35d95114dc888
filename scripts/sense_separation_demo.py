#!/usr/bin/env python3
"""Token embeddings separate the two uses of an ambiguous word.

Builds a corpus where the pivot word appears in two disjoint context
templates, trains a small window autoencoder, then prints nearest-neighbor
snippets for a few held-out pivot tokens together with the overall 1-NN
classification accuracy by template.
"""

import argparse

from tokembed import rng as rng_mod
from tokembed.analysis import index_corpus, nearest_neighbors
from tokembed.encoder import FfnEncoder, WeightScheme, train_encoder
from tokembed.nn import FitConfig
from tokembed.synthetic import SENSE_PIVOT, toy_embedding_table, two_sense_corpus


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--queries", type=int, default=6)
    args = ap.parse_args()

    data_rng = rng_mod.stream(args.seed, "data")
    words, examples = two_sense_corpus(data_rng, n_per_sense=150)
    train_ex, held_ex = examples[:240], examples[240:]
    table = toy_embedding_table(words, 8, data_rng)

    model = FfnEncoder(8, 1, token_dim=8, hidden=32,
                       rng=rng_mod.stream(args.seed, "init"))
    cfg = FitConfig(epochs=args.epochs, batch_size=16, learning_rate=0.02, momentum=0.9,
                    seed=args.seed)
    train_sents = [toks for toks, _, _ in train_ex]
    res = train_encoder(model, table, train_sents,
                        [toks for toks, _, _ in held_ex],
                        WeightScheme("focused", 2.0), cfg)
    print(f"validation WRE {res.history[0][2]:.4f} -> {res.best:.4f}\n")

    index = index_corpus(model, table, train_sents, type_filter={SENSE_PIVOT})
    sense_of = [s for _, s, _ in train_ex]
    queries = index_corpus(model, table, [toks for toks, _, _ in held_ex],
                           type_filter={SENSE_PIVOT})

    hits = 0
    for qi, (q, (_, sense, _)) in enumerate(zip(queries.codes, held_ex)):
        neighbors = nearest_neighbors(q, index.codes, k=4)
        hits += sense_of[index.sentence[neighbors[0][0]]] == sense
        if qi < args.queries:
            print(f"Q  (template {sense})  {queries.snippet(qi)}")
            for r, (row, d) in enumerate(neighbors):
                print(f"{r + 1}  (template {sense_of[index.sentence[row]]}, "
                      f"d={d:.3f})  {index.snippet(row)}")
            print()
    print(f"1-NN template accuracy over {len(queries)} held-out pivots: "
          f"{100.0 * hits / len(queries):.1f}%")


if __name__ == "__main__":
    main()
