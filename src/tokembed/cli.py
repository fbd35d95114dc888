"""Command-line surface tying the modules into reproducible pipelines.

Every command prints one machine-readable JSON summary on stdout (schema
version, command name, a full config echo, and command-specific metrics) and
human-readable progress on stderr.  Exit codes: 0 success, 1 for config or IO
errors, 2 for numerical failures (non-finite losses).

Options may come from a ``--config`` file of ``key = value`` lines (values
parsed as JSON where possible, then converted and checked like the option's
flag; a repeated key is an error).  Flags on the command line win over the
file in any spelling argparse accepts (``--hid 8``, ``--no-word``, ``-k5``).
Echoing the printed config back through ``--config`` reproduces the run
because a single ``--seed``, an option of the ``train-*`` commands only,
drives every random choice.
"""

import argparse
import dataclasses
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import rng as rng_mod
from .analysis import METRICS, export_embeddings_tsv, index_corpus, nearest_neighbors
from .embeddings import load_corpus, load_table
from .encoder import (ARCHS, SCHEME_NAMES, EncoderSizes, WeightScheme,
                      build_encoder, check_encoder_sizes, load_encoder,
                      train_encoder)
from .features import (ResourceBundle, build_char_ngram_index,
                       load_brown_clusters, load_char_ngram_index,
                       load_name_list, load_tag_dictionary,
                       save_char_ngram_index)
from .nn import FitConfig, TrainingDiverged
from .parser import (DepSentence, Parser, ParserConfig, attachment_f1,
                     check_gold_heads, export_arc_scores, load_dep_corpus,
                     save_dep_corpus, train_parser)
from .serialize import open_text
from .tagger import (Tagger, TaggerConfig, corpus_tag_ids, load_tagged_corpus,
                     load_tagset, save_tagged_corpus, tagging_accuracy,
                     train_tagger)

SCHEMA_VERSION = 1


class CliError(Exception):
    """Configuration problem reportable as a one-line diagnostic."""


def log(msg):
    print(msg, file=sys.stderr)


def _parse_config_file(path):
    """key -> (value, line number) of a ``key = value`` file."""
    values = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in values:
                raise CliError(f"{path}:{lineno}: duplicate key {key!r} "
                               f"(first at line {values[key][1]})")
            raw = raw.strip()
            try:
                values[key] = json.loads(raw), lineno
            except json.JSONDecodeError:
                values[key] = raw, lineno
    return values


def _convert(action, val):
    """``val`` converted and checked the way argparse treats ``action``'s
    flag; raises ValueError or TypeError for a value the flag would refuse."""
    if action.nargs == 0:  # on/off switch
        if not isinstance(val, bool):
            raise ValueError("expected true or false")
        return val
    if val is None and action.default is None:
        return None
    repeatable = isinstance(action, argparse._AppendAction)
    items = [val] if not repeatable or isinstance(val, str) else val
    if not isinstance(items, list):
        raise ValueError("expected a list")
    out = []
    for item in items:
        text = item if isinstance(item, str) else json.dumps(item)
        item = action.type(text) if action.type else text
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"{item!r} is not one of {list(action.choices)}")
        out.append(item)
    return out if repeatable else out[0]


def _apply_config_file(args, argv, command_parser):
    if not getattr(args, "config", None):
        return
    actions = {a.dest: a for a in command_parser._actions}
    given = vars(build_arg_parser(given_only=True).parse_args(argv))
    for key, (val, lineno) in _parse_config_file(args.config).items():
        if key not in actions or not hasattr(args, key) or key == "config":
            raise CliError(f"unknown config key {key!r}")
        if key in given:
            continue  # explicit flags override the file
        try:
            setattr(args, key, _convert(actions[key], val))
        except (TypeError, ValueError) as e:
            raise CliError(f"{args.config}:{lineno}: {key}: {e}") from None


def _emit(args, payload):
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config")}
    summary = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
    summary.update(payload)
    print(json.dumps(summary, sort_keys=True))


def _load_encoders(paths, table):
    models = [load_encoder(p)[0] for p in paths or ()]
    for p, model in zip(paths or (), models):
        if model.dim != table.dim:
            raise CliError(f"{p}: config.dim {model.dim} does not match "
                           f"the embedding table's dim {table.dim}")
    return models


def _load_resources(args):
    if not getattr(args, "extended", False):
        return None
    brown = load_brown_clusters(args.brown) if args.brown else {}
    tagdict = load_tag_dictionary(args.tag_dict) if args.tag_dict else {}
    names = [load_name_list(p) for p in (args.name_list or [])]
    ngrams = load_char_ngram_index(args.ngrams) if args.ngrams else {}
    return ResourceBundle(brown, tagdict, names, ngrams)


def _config(cls, args, **renamed):
    """The config dataclass ``cls`` built from the parsed arguments of the
    same names as its fields; ``renamed`` gives those of other names."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
              if hasattr(args, f.name)}
    return cls(**{**values, **renamed})


def _nonempty_corpus(path, load):
    """The sentences ``load`` reads from ``path``, which must hold some."""
    corpus = load(path)
    if not corpus:
        raise CliError(f"{path}: empty corpus")
    return corpus


def _subsample(sentences, fraction, seed):
    if fraction == 1.0:
        return sentences
    rng = rng_mod.stream(seed, "subsample")
    n = max(1, int(round(fraction * len(sentences))))
    keep = sorted(rng.choice(len(sentences), size=n, replace=False))
    return [sentences[k] for k in keep]


# -- commands ----------------------------------------------------------------


def cmd_train_encoder(args):
    cfg = _config(FitConfig, args, learning_rate=args.lr, eval_every=args.val_every)
    scheme = _config(WeightScheme, args, name=args.scheme)
    if args.w_prime < 1:  # training needs w' >= 1, inference does not
        raise CliError(f"window radius --w-prime must be at least 1 to train, got {args.w_prime}")
    check_encoder_sizes(args.arch, token_dim=args.token_dim, hidden=args.hidden)
    table = load_table(args.embeddings)
    train = _nonempty_corpus(args.train, load_corpus)
    val = _nonempty_corpus(args.val, load_corpus)
    vocab = table.vocab
    for path, corpus in ((args.train, train), (args.val, val)):
        if all(vocab.id_of(t) >= vocab.bos_id for toks in corpus for t in toks):
            raise CliError(f"{path}: no token is in the embeddings vocabulary, "
                           "so every window is all zero rows")
    model = build_encoder(args.arch, table.dim, args.w_prime, args.token_dim,
                          args.hidden, rng_mod.stream(cfg.seed, "init"))
    log(f"training {args.arch} encoder: d={table.dim} d'={args.token_dim} "
        f"w'={args.w_prime} on {len(train)} sentences")
    res = train_encoder(model, table, train, val, scheme, cfg)
    model.save(args.out, scheme)
    initial = res.history[0][2]
    log(f"best validation WRE {res.best:.6f} (initial {initial:.6f}); saved {args.out}")
    # fit restores the best snapshot, so the final model scores res.best
    _emit(args, {"model": args.out, "metrics": {
        "initial_val_wre": initial,
        "best_val_wre": res.best,
        "final_val_wre": res.best,
        "n_minibatches": res.steps,
    }})
    return 0


def _aligned_tags(args, sentences):
    if not getattr(args, "tags", None):
        return None
    tagged = load_tagged_corpus(args.tags)
    if [t for t, _ in tagged] != sentences:
        raise CliError(f"{args.tags}: tokens do not align with the corpus")
    return [tags for _, tags in tagged]


def cmd_embed(args):
    table = load_table(args.embeddings)
    model, = _load_encoders([args.model], table)
    sentences = load_corpus(args.corpus)
    types = set(args.types.split(",")) if args.types else None
    index = index_corpus(model, table, sentences, types, _aligned_tags(args, sentences))
    if types and not index:
        raise CliError(f"{args.corpus}: no token is one of --types {args.types}")
    export_embeddings_tsv(index, args.out)
    log(f"wrote {len(index)} token records to {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_records": len(index)}})
    return 0


def cmd_knn(args):
    if args.k < 1:
        raise CliError(f"-k must be at least 1, got {args.k}")
    table = load_table(args.embeddings)
    model, = _load_encoders([args.model], table)
    sentences = load_corpus(args.corpus)
    if not 0 <= args.sentence < len(sentences):
        raise CliError(f"sentence index {args.sentence} out of range")
    tokens = sentences[args.sentence]
    if not 0 <= args.position < len(tokens):
        raise CliError(f"position {args.position} out of range")
    tags = _aligned_tags(args, sentences)
    query_token = tokens[args.position]
    types = set(args.types.split(",")) if args.types else None
    if args.same_type:
        types = {query_token}
    index = index_corpus(model, table, sentences, types, tags)
    if not index:  # only --types can reject every token of a corpus
        raise CliError(f"{args.corpus}: no token is one of --types {args.types}")
    identity = (args.sentence, args.position)
    query = next((r for r in index if r.identity == identity), None)
    if query is None:  # the type filter rejects the query token
        query = index_corpus(model, table, [tokens])[args.position]
        query.sentence_id = args.sentence
    neighbors = nearest_neighbors(query, index, args.k, args.metric)
    lines = [f"Q  {query.snippet()}"]
    lines += [f"{r + 1}  (d={d:.4f}) {rec.snippet()}"
              for r, (rec, d) in enumerate(neighbors)]
    for line in lines:
        log(line)
    _emit(args, {"report": lines, "query": {
        "sentence_id": args.sentence, "position": args.position,
        "token": query_token,
    }, "neighbors": [
        {"sentence_id": rec.sentence_id, "position": rec.position,
         "token": rec.token, "tag": rec.tag, "distance": d,
         "snippet": rec.snippet()}
        for rec, d in neighbors
    ]})
    return 0


def cmd_train_tagger(args):
    cfg = _config(FitConfig, args, learning_rate=args.lr)
    config = _config(TaggerConfig, args)
    if not 0.0 < args.train_fraction <= 1.0:
        raise CliError("train fraction must be in (0, 1]")
    # with every block one wide, the input is empty only if no block is on
    if Tagger.input_width(config, 1, len(args.encoder or ()), {"extended_width": 1}) == 0:
        raise CliError("tagger input is empty: no embeddings, encoders, or features")
    table = load_table(args.embeddings)
    tagset = load_tagset(args.tagset)
    encoders = _load_encoders(args.encoder, table)
    resources = _load_resources(args)
    train = corpus_tag_ids(_nonempty_corpus(args.train, load_tagged_corpus), tagset,
                           args.train)
    train = _subsample(train, args.train_fraction, cfg.seed)
    val = corpus_tag_ids(_nonempty_corpus(args.val, load_tagged_corpus), tagset, args.val)
    model = Tagger(config, tagset, table, encoders, resources,
                   rng_mod.stream(cfg.seed, "init"))
    log(f"training tagger: input={model.input_dim} hidden={args.hidden} "
        f"tags={len(tagset)} on {len(train)} sentences")
    res = train_tagger(model, train, val, cfg)
    model.save(args.out)
    log(f"best validation accuracy {res.best:.2f}% "
        f"after {res.epochs_run} epochs; saved {args.out}")
    golds = [t for _, ids in val for t in ids.tolist()]
    majority = 100.0 * (max(map(golds.count, set(golds))) / len(golds))  # like the accuracy
    if res.best <= majority:
        log(f"warning: {args.val}: best validation accuracy {res.best:.2f}% is not "
            f"above the majority-tag baseline {majority:.2f}%")
    _emit(args, {"model": args.out, "metrics": {
        "best_val_accuracy": res.best,
        "epochs_run": res.epochs_run,
        "n_train_sentences": len(train),
    }})
    return 0


def _load_model(args, cls):
    """The ``cls`` model saved at ``--model``, over the embedding table, the
    ``--encoder`` files and, for a command with ``--extended``, the resource
    bundle it was trained with."""
    table = load_table(args.embeddings)
    encoders = _load_encoders(args.encoder, table)
    context = {"resources": _load_resources(args)} if "extended" in args else {}
    return cls.load(args.model, table, encoders, **context)


def cmd_tag(args):
    model = _load_model(args, Tagger)
    sentences = load_corpus(args.corpus)
    # a stream: every block of sentences is tagged inside the save call
    save_tagged_corpus(zip(sentences, model.tag_corpus(sentences)), args.out)
    n_tokens = sum(map(len, sentences))
    log(f"tagged {len(sentences)} sentences ({n_tokens} tokens) into {args.out}")
    _emit(args, {"output": args.out, "metrics": {
        "n_sentences": len(sentences), "n_tokens": n_tokens,
    }})
    return 0


def _load_pred_and_gold(args, load, tokens):
    """Both corpora, rejected if either is empty, if their sentence counts
    differ or at the first sentence whose tokens differ."""
    pred, gold = _nonempty_corpus(args.pred, load), _nonempty_corpus(args.gold, load)
    if len(pred) != len(gold):
        raise CliError(f"{args.pred} and {args.gold}: the sentence counts differ, "
                       f"{len(pred)} and {len(gold)}")
    for k, (p, g) in enumerate(zip(pred, gold), start=1):
        if tokens(p) != tokens(g):
            raise CliError(f"{args.pred} and {args.gold}: the tokens of sentence {k} differ")
    return pred, gold


def cmd_eval_tags(args):
    pred, gold = _load_pred_and_gold(args, load_tagged_corpus, lambda s: s[0])
    accuracy = tagging_accuracy([t for _, t in pred], [t for _, t in gold])
    log(f"tagging accuracy {accuracy:.2f}%")
    _emit(args, {"metrics": {"accuracy": accuracy}})
    return 0


def cmd_train_parser(args):
    cfg = _config(FitConfig, args, learning_rate=args.lr)
    config = _config(ParserConfig, args)
    Parser.check_lexical_input(config, args.encoder)
    table = load_table(args.embeddings)
    encoders = _load_encoders(args.encoder, table)
    train = _nonempty_corpus(args.train, load_dep_corpus)
    check_gold_heads(train, args.train)
    if not any(any(sent.selected) for sent in train):
        raise CliError(f"{args.train}: no selected tokens")
    val = _nonempty_corpus(args.val, load_dep_corpus)
    model = Parser(config, table, encoders, rng_mod.stream(cfg.seed, "init"))
    log(f"training parser: input={model.input_dim} hidden={args.hidden} "
        f"on {len(train)} sentences")
    res = train_parser(model, train, val, cfg)
    model.save(args.out)
    log(f"best validation F1 {res.best:.2f} "
        f"after {res.epochs_run} epochs; saved {args.out}")
    # chance F1, the mean over selected tokens of 1/k for k selected in the
    # token's sentence: each sentence with a selected token adds 1 to the sum
    counts = [sum(sent.selected) for sent in val]
    chance = 100.0 * sum(map(bool, counts)) / max(sum(counts), 1)
    if res.best <= chance:
        log(f"warning: {args.val}: best validation F1 {res.best:.2f} is not "
            f"above the chance F1 {chance:.2f}")
    _emit(args, {"model": args.out, "metrics": {
        "best_val_f1": res.best,
        "epochs_run": res.epochs_run,
    }})
    return 0


def cmd_parse(args):
    model = _load_model(args, Parser)
    sentences = load_dep_corpus(args.corpus)
    parsed = [DepSentence(s.tokens, heads, list(s.selected))
              for s, heads in zip(sentences, model.predict_heads(sentences))]
    save_dep_corpus(parsed, args.out)
    n_arcs = sum(sum(1 for h in s.heads if h >= 0) for s in parsed)
    log(f"parsed {len(parsed)} sentences ({n_arcs} arcs) into {args.out}")
    _emit(args, {"output": args.out, "metrics": {
        "n_sentences": len(parsed), "n_arcs": n_arcs,
    }})
    return 0


def cmd_eval_parse(args):
    pred, gold = _load_pred_and_gold(args, load_dep_corpus, lambda s: s.tokens)
    precision, recall, f1 = attachment_f1(pred, gold)
    log(f"attachment P={precision:.2f} R={recall:.2f} F1={f1:.2f}")
    _emit(args, {"metrics": {"precision": precision, "recall": recall, "f1": f1}})
    return 0


def cmd_export_arc_scores(args):
    model = _load_model(args, Parser)
    sentences = load_dep_corpus(args.corpus)
    n_lines = export_arc_scores(model, sentences, args.out)
    log(f"exported {n_lines} arc scores to {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_lines": n_lines}})
    return 0


def cmd_build_ngrams(args):
    tagged = load_tagged_corpus(args.train)
    index = build_char_ngram_index((toks for toks, _ in tagged), args.min_count)
    save_char_ngram_index(index, args.out)
    log(f"indexed {len(index)} character n-grams into {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_ngrams": len(index)}})
    return 0


# -- option groups ---------------------------------------------------------------
# Each group adds options to a subcommand's parser.  Defaults and choices that
# a model module owns are read from it: the config dataclasses' fields,
# ``EncoderSizes``, ``WeightScheme``, ``SCHEME_NAMES``, ``encoder.ARCHS`` and
# ``analysis.METRICS``.


def _fields(cls, *names, **helps):
    """A group of one option per field of the config dataclass ``cls`` (only
    ``names``, if given), of the field's type and default.  A bool is a
    switch, with a ``--no-`` form when it defaults to true.  ``helps`` maps
    field names to help texts."""
    def add(p):
        for f in dataclasses.fields(cls):
            if names and f.name not in names:
                continue
            if f.type is bool:
                kind = {"action": argparse.BooleanOptionalAction if f.default
                        else "store_true"}
            else:
                kind = {"type": f.type}
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                           help=helps.get(f.name), **kind)
    return add


def _fit(epochs, patience=None):
    """A group of the ``FitConfig`` options, with the command's default
    ``--epochs`` and, unless None, ``--patience``."""
    def add(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lr", type=float, default=0.1)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--epochs", type=int, default=epochs)
        if patience is not None:
            p.add_argument("--patience", type=int, default=patience)
    return add


def _encoder_options(p):
    scheme = WeightScheme()
    p.add_argument("--arch", choices=ARCHS, default=ARCHS[0])
    _fields(EncoderSizes)(p)
    p.add_argument("--scheme", choices=SCHEME_NAMES, default=scheme.name)
    p.add_argument("--center-weight", type=float, default=scheme.center_weight)
    p.add_argument("--val-every", type=int, default=1000,
                   help="validate every N minibatches (plus each epoch end)")


def _index_filters(p):
    p.add_argument("--tags", help="aligned tagged corpus supplying gold tags")
    p.add_argument("--types", help="comma-separated type filter")


def _knn_options(p):
    p.add_argument("--sentence", type=int, default=0)
    p.add_argument("--position", type=int, default=0)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--metric", choices=METRICS, default=METRICS[0])
    p.add_argument("--same-type", action="store_true",
                   help="only consider tokens of the query's type")


def _encoders(p):
    p.add_argument("--encoder", action="append",
                   help="token-encoder model file (repeatable)")


def _resources(p):
    p.add_argument("--brown", help="Brown cluster file (bits<TAB>word<TAB>count)")
    p.add_argument("--tag-dict", help="tag dictionary file (word<TAB>tag<TAB>count)")
    p.add_argument("--name-list", action="append",
                   help="name list file, one word per line (repeatable)")
    p.add_argument("--ngrams", help="character n-gram index file")


def _train_fraction(p):
    p.add_argument("--train-fraction", type=float, default=1.0,
                   help="seeded subsample of the training sentences")


def _min_count(p):
    p.add_argument("--min-count", type=int, default=3)


class Command(NamedTuple):
    """A subcommand: its handler, its help, the file options it requires (a
    missing one is reported in this order, once ``--config`` is applied) and
    its option groups."""
    func: Callable
    help: str
    inputs: tuple
    groups: tuple = ()


_EXTENDED_HELP = {"extended": "enable the resource-based feature stack"}
_MODEL_RUN = ("embeddings", "model", "corpus", "out")

COMMANDS = {
    "train-encoder": Command(cmd_train_encoder, "train a token-embedding encoder",
                             ("embeddings", "train", "val", "out"),
                             (_fit(epochs=5), _encoder_options)),
    "embed": Command(cmd_embed, "export token embeddings as TSV", _MODEL_RUN,
                     (_index_filters,)),
    "knn": Command(cmd_knn, "nearest-neighbor token query",
                   ("embeddings", "model", "corpus"), (_knn_options, _index_filters)),
    "train-tagger": Command(cmd_train_tagger, "train the local POS tagger",
                            ("embeddings", "train", "val", "tagset", "out"),
                            (_fit(epochs=30, patience=10),
                             _fields(TaggerConfig, **_EXTENDED_HELP), _resources,
                             _encoders, _train_fraction)),
    "tag": Command(cmd_tag, "tag a plain-text corpus", _MODEL_RUN,
                   (_fields(TaggerConfig, "extended", **_EXTENDED_HELP), _resources,
                    _encoders)),
    "eval-tags": Command(cmd_eval_tags, "tagging accuracy of pred vs gold",
                         ("pred", "gold")),
    "train-parser": Command(cmd_train_parser, "train the head predictor",
                            ("embeddings", "train", "val", "out"),
                            (_fit(epochs=30, patience=10),
                             _fields(ParserConfig, window="-1 drops type embeddings entirely"),
                             _encoders)),
    "parse": Command(cmd_parse, "predict heads for a dependency corpus", _MODEL_RUN,
                     (_encoders,)),
    "eval-parse": Command(cmd_eval_parse, "attachment F1 of pred vs gold", ("pred", "gold")),
    "export-arc-scores": Command(cmd_export_arc_scores,
                                 "dump arc scores for downstream parser features",
                                 _MODEL_RUN, (_encoders,)),
    "build-ngrams": Command(cmd_build_ngrams,
                            "build the character n-gram index from tagged data",
                            ("train", "out"), (_min_count,)),
}


@functools.cache
def build_arg_parser(given_only=False):
    """The ``tokembed`` parser; with ``given_only`` every option defaults to
    ``argparse.SUPPRESS``, so a parse holds only the options the argv gives."""
    ap = argparse.ArgumentParser(prog="tokembed")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value file; explicit flags override")
        for key in command.inputs:
            p.add_argument("--" + key)
        for add in command.groups:
            add(p)
        for action in p._actions if given_only else ():
            action.default = argparse.SUPPRESS
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    command = COMMANDS[args.command]
    parsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    try:
        _apply_config_file(args, argv, parsers.choices[args.command])
        for key in command.inputs:
            if getattr(args, key) is None:
                raise CliError(f"missing required option --{key}")
        return command.func(args)
    except TrainingDiverged as e:
        log(f"numerical failure: {e}")
        return 2
    except (CliError, OSError, ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
