"""Seeded synthetic inputs for the benchmark workloads.

    python perfbench/gen.py WORKLOAD SEED OUT_DIR

Every workload uses the same 20k-word, d=100 word2vec-text file for a given
seed (it is drawn before anything workload-specific).  Words belong to
part-of-speech classes; a word's vector is its class centroid plus noise,
so the class is recoverable from the embedding.  Sentences come from a small
clause grammar with Zipfian word choice inside each class.  Tags and heads
follow fixed rules, so a model that stops learning shows up as a quality
drop:

* tags are the word's class, except that ambiguous noun/verb words take
  NOUN after DET or ADJ and VERB elsewhere;
* heads follow a dependency convention: each clause's verb attaches to the
  wall (sentences may have several roots); determiners, adjectives, numbers
  and prepositions attach to the noun they precede; nouns, conjunctions,
  adverbs and social-media tokens attach to their clause's verb;
  punctuation and URLs are unselected.

Only files reach the program under test.  ``generate`` also returns the
counts the benchmark checks outputs against.
"""

import json
from pathlib import Path

import numpy as np

VOCAB = 20000
DIM = 100
TAGS = ["DET", "ADJ", "NOUN", "VERB", "ADV", "ADP", "PRON", "CONJ", "NUM",
        "PROPN", "X", "PUNCT"]
CLOSED = {
    "DET": ["the", "a", "an", "this", "that", "these", "those", "every", "some",
            "each", "no", "my", "your", "his", "her", "its", "our", "their"],
    "ADP": ["in", "on", "at", "by", "for", "with", "from", "to", "of", "over",
            "under", "into", "about", "after", "before", "near"],
    "PRON": ["i", "you", "he", "she", "it", "we", "they", "someone", "nobody"],
    "CONJ": ["and", "but", "or", "so", "yet"],
    "PUNCT": [",", ".", "!", "?", ":", ";", "...", "-", "(", ")", '"', "!!"],
}
OPEN_SHARE = {"ADJ": 0.15, "VERB": 0.2, "ADV": 0.06, "NUM": 0.03,
              "PROPN": 0.1, "X": 0.06}  # NOUN takes the rest
SUFFIX = {"NOUN": ["", "tion", "ness", "er", "ment"], "VERB": ["ed", "ing", "s", "ize"],
          "ADJ": ["ous", "ful", "ive", "al"], "ADV": ["ly"]}
MAX_SELECTED = 30
SHAPE_SEED = 20170608
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
N_AMBIGUOUS = 400

# Size of each file: tokens, or candidate arcs for the parser, whose cost
# grows with the square of sentence length.  Sentences are drawn until the
# target is reached.  Sizes keep one pipeline iteration between six and
# eleven seconds on a 2-core machine, so a run repeats it several times.
SIZES = {
    "tokens": {"unlabeled.train": 4800, "unlabeled.val": 600, "heldout": 8000},
    "tagger": {"tagged.train": 3000, "tagged.val": 1000, "tagged.heldout": 4000},
    "parser": {"dep.train": 8000, "dep.val": 4000, "dep.test": 32000},
}


def _words(rng):
    """Unique word strings per class, surface shape following the class."""
    seen = set(w for ws in CLOSED.values() for w in ws)
    classes = {k: list(v) for k, v in CLOSED.items()}
    n_open = VOCAB - sum(len(v) for v in CLOSED.values())
    counts = {k: int(share * n_open) for k, share in OPEN_SHARE.items()}
    counts["NOUN"] = n_open - sum(counts.values())

    def stem():
        return "".join(rng.choice(LETTERS, size=int(rng.integers(3, 8))))

    for cls, n in counts.items():
        out = []
        while len(out) < n:
            s = stem()
            if cls in SUFFIX:
                w = s + SUFFIX[cls][int(rng.integers(len(SUFFIX[cls])))]
            elif cls == "PROPN":
                w = s.capitalize()
            elif cls == "NUM":
                w = str(int(rng.integers(0, 10 ** int(rng.integers(1, 6)))))
                w = "$" + w if rng.random() < 0.2 else w
            else:  # X: mentions, hashtags, URLs
                kind = int(rng.integers(3))
                w = ("@" + s, "#" + s, "http://" + s + ".com")[kind]
            if w not in seen:
                seen.add(w)
                out.append(w)
        classes[cls] = out
    return classes


def _vectors(rng, classes, ambiguous):
    centroids = {c: rng.normal(0.0, 0.3, DIM) for c in TAGS}
    words, rows = [], []
    for cls in TAGS:
        for w in classes[cls]:
            center = centroids[cls]
            if w in ambiguous:
                center = 0.5 * (centroids["NOUN"] + centroids["VERB"])
            words.append(w)
            rows.append(center + rng.normal(0.0, 0.2, DIM))
    order = rng.permutation(len(words))
    return [words[k] for k in order], np.asarray(rows, dtype=np.float64)[order]


class _Sampler:
    """Zipfian draws from each class's word list."""

    def __init__(self, rng, classes, ambiguous):
        self.rng = rng
        self.ambiguous = ambiguous
        self.lists = {c: np.array(ws, dtype=object) for c, ws in classes.items()}
        self.lists["URL"] = np.array([w for w in classes["X"] if w.startswith("http")],
                                     dtype=object)
        self.lists["X"] = np.array([w for w in classes["X"] if not w.startswith("http")],
                                   dtype=object)
        self.lists["PUNCT_END"] = np.array([".", "!", "?", "..."], dtype=object)
        self.p = {}
        for c, ws in self.lists.items():
            w = 1.0 / (np.arange(len(ws)) + 2.7) ** 1.07
            self.p[c] = w / w.sum()
        amb = np.array(sorted(ambiguous), dtype=object)
        self.lists["AMB"] = amb
        w = 1.0 / (np.arange(len(amb)) + 2.7) ** 1.07
        self.p["AMB"] = w / w.sum()

    def word(self, cls):
        if cls in ("NOUN", "VERB") and self.rng.random() < 0.2:
            cls = "AMB"
        return str(self.rng.choice(self.lists[cls], p=self.p[cls]))


def _sentence(shape, sampler, long=False):
    """One sentence as (tokens, tags, heads, selected); heads 1-based, 0 = wall.

    ``shape`` draws the structure (clauses, phrases, which tokens are
    selected) and ``sampler`` the words, so structure can be held fixed
    while the words vary with the seed.
    """
    toks, tags, heads, sel = [], [], [], []
    pending = []  # tokens attaching to their clause's verb once it exists

    def add(cls, word=None):
        toks.append(word or sampler.word(cls))
        tags.append("X" if cls == "URL" else cls)
        heads.append(-1)
        sel.append(cls not in ("PUNCT", "URL"))
        return len(toks) - 1

    def noun_phrase():
        deps = []
        if shape.random() < 0.15:
            return [], add("PRON")
        if shape.random() < 0.15:
            return [], add("PROPN")
        if shape.random() < 0.7:
            deps.append(add("DET"))
        if shape.random() < 0.1:
            deps.append(add("NUM"))
        for _ in range(int(shape.integers(0, 3 if long else 2))):
            deps.append(add("ADJ"))
        return deps, add("NOUN")

    n_clauses = int(shape.integers(2, 4)) if long else (1 if shape.random() < 0.7 else 2)
    for c in range(n_clauses):
        if c > 0:
            pending.append(add("CONJ"))
        if shape.random() < 0.1:
            pending.append(add("X"))
        if shape.random() < 0.05:
            add("URL")
        subj_deps, subj = noun_phrase()
        verb = add("VERB")
        heads[verb] = 0
        clause = [(subj, subj_deps)]
        if shape.random() < 0.3:
            pending.append(add("ADV"))
        if shape.random() < 0.7:
            deps, obj = noun_phrase()
            clause.append((obj, deps))
        for _ in range(int(shape.integers(0, 3 if long else 2))):
            adp = add("ADP")
            deps, noun = noun_phrase()
            clause.append((noun, [adp] + deps))
        if shape.random() < 0.3:
            add("PUNCT")
        for noun, deps in clause:
            heads[noun] = verb + 1
            for d in deps:
                heads[d] = noun + 1
        for k in pending:
            heads[k] = verb + 1
        pending.clear()
    add("PUNCT", sampler.word("PUNCT_END"))
    for k in range(len(toks)):  # ambiguous words: NOUN after DET/ADJ, else VERB
        if tags[k] in ("NOUN", "VERB") and toks[k] in sampler.ambiguous:
            tags[k] = "NOUN" if k > 0 and tags[k - 1] in ("DET", "ADJ") else "VERB"
        if not sel[k]:
            heads[k] = -1
    return toks, tags, heads, sel


def _write_lines(path, lines):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_tagged(path, sents):
    _write_lines(path, ["\n".join(f"{t}\t{g}" for t, g in zip(s[0], s[1])) + "\n"
                        for s in sents])


def _write_dep(path, sents):
    _write_lines(path, ["\n".join(f"{k + 1}\t{t}\t{h}\t{int(s)}"
                                  for k, (t, h, s) in enumerate(zip(s[0], s[2], s[3])))
                        + "\n" for s in sents])


def _resources(out, rng, classes, train):
    """Brown clusters, tag dictionary, name list and char n-gram index."""
    brown = []
    for ci, cls in enumerate(TAGS):
        for w in classes[cls][:300]:
            bits = format(ci, "04b") + format(int(rng.integers(16)), "04b")
            brown.append(f"{bits}\t{w}\t{int(rng.integers(1, 100))}")
    _write_lines(out / "brown.txt", brown)
    counts = {}
    for toks, tags, _, _ in train:
        for t, g in zip(toks, tags):
            counts[(t, g)] = counts.get((t, g), 0) + 1
    _write_lines(out / "tagdict.txt", [f"{t}\t{g}\t{c}" for (t, g), c in sorted(counts.items())])
    _write_lines(out / "names.txt", classes["PROPN"][:500])
    grams = {}
    for toks, _, _, _ in train:
        for t in toks:
            for order in (2, 3):
                for k in range(len(t) - order + 1):
                    grams[t[k:k + order]] = grams.get(t[k:k + order], 0) + 1
    top = sorted(sorted(grams, key=lambda g: (-grams[g], g))[:300])
    _write_lines(out / "ngrams.txt", [f"{g}\t{k}" for k, g in enumerate(top)])


def generate(workload, seed, out):
    """Write ``workload``'s inputs under ``out``; return their sizes and the
    expected counts and quality baselines the checks use."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 20171])
    classes = _words(rng)
    pool = classes["NOUN"][:4000] + classes["VERB"][:2000]
    ambiguous = set(rng.choice(np.array(pool, dtype=object), size=N_AMBIGUOUS,
                               replace=False).tolist())
    words, vecs = _vectors(rng, classes, ambiguous)
    row = "%.5f " * (DIM - 1) + "%.5f"
    _write_lines(out / "embeddings.txt", [f"{len(words)} {DIM}"]
                 + [w + " " + row % tuple(v) for w, v in zip(words, vecs)])
    sampler = _Sampler(rng, classes, ambiguous)
    info = {"workload": workload, "seed": seed, "vocab": len(words), "dim": DIM,
            "sizes": {}}

    # Sentence structure comes from a stream that ignores the seed, so every
    # seed yields the same sentence lengths, tags and heads (hence the same
    # amount of work and about the same difficulty); only words and vectors
    # change with the seed.
    shape = np.random.default_rng([SHAPE_SEED, sorted(SIZES).index(workload)])
    corpora = {}
    for name, target in SIZES[workload].items():
        sents, size = [], 0
        while size < target:
            # Parser corpora mix short sentences with long multi-clause ones,
            # capped so the largest sentence, which sets the parser's peak
            # memory, is about the same for every seed.
            sent = _sentence(shape, sampler, workload == "parser" and shape.random() < 0.4)
            if workload == "parser" and sum(sent[3]) > MAX_SELECTED:
                continue
            sents.append(sent)
            size += sum(sent[3]) ** 2 if workload == "parser" else len(sent[0])
        corpora[name] = sents
        info["sizes"][name] = {"sentences": len(sents),
                               "tokens": sum(len(s[0]) for s in sents)}

    if workload == "tokens":
        for name, sents in corpora.items():
            _write_lines(out / f"{name}.txt", [" ".join(s[0]) for s in sents])
    elif workload == "tagger":
        for name, sents in corpora.items():
            _write_tagged(out / f"{name}.tsv", sents)
        _write_lines(out / "heldout.txt", [" ".join(s[0]) for s in corpora["tagged.heldout"]])
        (out / "tagset.txt").write_text("\n".join(TAGS) + "\n", encoding="utf-8")
        _resources(out, rng, classes, corpora["tagged.train"])
        info["baseline_accuracy"] = {}
        for name, sents in corpora.items():
            gold = [g for s in sents for g in s[1]]
            info["baseline_accuracy"][name] = 100.0 * max(map(gold.count, TAGS)) / len(gold)
    else:
        for name, sents in corpora.items():
            _write_dep(out / f"{name}.tsv", sents)
        info["candidate_arcs"] = {name: sum(sum(s[3]) ** 2 for s in sents)
                                  for name, sents in corpora.items()}
        info["selected"] = {name: sum(sum(s[3]) for s in sents)
                            for name, sents in corpora.items()}
        # Expected F1 of a uniform random head: a child with s selected
        # tokens in its sentence has s candidates (the wall and s - 1 others).
        info["baseline_f1"] = {
            name: 100.0 * float(np.mean([1.0 / sum(s[3]) for s in sents for x in s[3] if x]))
            for name, sents in corpora.items()}
    if workload in ("tagger", "parser"):
        from tokembed.encoder import build_encoder
        enc = build_encoder("ffn", DIM, 1, 256, 512, np.random.default_rng([seed, 7]))
        enc.save(str(out / "enc0.bin"))
    info["files"] = sorted(p.name for p in out.iterdir())
    (out / "info.json").write_text(json.dumps(info, indent=1, sort_keys=True))
    return info


if __name__ == "__main__":
    import sys
    import time
    t = time.monotonic()
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
    print(f"{time.monotonic() - t:.2f}s", file=sys.stderr)
