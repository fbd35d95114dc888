"""Command-line surface tying the modules into reproducible pipelines.

Every command prints one machine-readable JSON summary on stdout (schema
version, command name, a full config echo, and command-specific metrics) and
human-readable progress on stderr.  Exit codes: 0 success, 1 for config or IO
errors, 2 for numerical failures (non-finite losses).

Options may come from a ``--config`` file of ``key = value`` lines (values
parsed as JSON where possible, then converted and checked like the option's
flag); explicitly passed flags win over file values.
Echoing the printed config back through ``--config`` reproduces the run
because a single ``--seed`` drives every random choice.
"""

import argparse
import json
import sys

from . import rng as rng_mod
from .analysis import export_embeddings_tsv, index_corpus, nearest_neighbors
from .embeddings import load_corpus, load_word2vec_text
from .encoder import (EncoderTrainConfig, WeightScheme, build_encoder,
                      load_encoder, train_encoder)
from .features import (ResourceBundle, build_char_ngram_index,
                       load_brown_clusters, load_char_ngram_index,
                       load_name_list, load_tag_dictionary,
                       save_char_ngram_index)
from .nn import TrainingDiverged
from .parser import (DepSentence, Parser, ParserConfig, ParserTrainConfig,
                     attachment_f1, export_arc_scores, load_dep_corpus,
                     save_dep_corpus, train_parser)
from .tagger import (Tagger, TaggerConfig, TaggerTrainConfig, corpus_tag_ids,
                     load_tagged_corpus, load_tagset, save_tagged_corpus,
                     tagging_accuracy, train_tagger)

SCHEMA_VERSION = 1


class CliError(Exception):
    """Configuration problem reportable as a one-line diagnostic."""


def log(msg):
    print(msg, file=sys.stderr)


def _parse_config_file(path):
    """key -> (value, line number) of a ``key = value`` file."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            try:
                values[key] = json.loads(raw), lineno
            except json.JSONDecodeError:
                values[key] = raw, lineno
    return values


def _flag_present(argv, flag):
    return any(a == flag or a.startswith(flag + "=") for a in argv)


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
    values = _parse_config_file(args.config)
    for key, (val, lineno) in values.items():
        if key not in actions or not hasattr(args, key) or key == "config":
            raise CliError(f"unknown config key {key!r}")
        spellings = ["--" + key.replace("_", "-"),
                     "--no-" + key.replace("_", "-")]
        if len(key) == 1:
            spellings.append("-" + key)
        if any(_flag_present(argv, f) for f in spellings):
            continue  # explicit flags override the file
        try:
            setattr(args, key, _convert(actions[key], val))
        except (TypeError, ValueError) as e:
            raise CliError(f"{args.config}:{lineno}: {key}: {e}") from None


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) in (None, []):
            raise CliError(f"missing required option --{key.replace('_', '-')}")


def _echo_config(args):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("command", "config", "func")}
    return cfg


def _emit(args, payload):
    summary = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "config": _echo_config(args)}
    summary.update(payload)
    print(json.dumps(summary, sort_keys=True))


def _load_encoders(paths):
    models = []
    for p in paths or []:
        model, _ = load_encoder(p)
        models.append(model)
    return models


def _load_resources(args):
    if not getattr(args, "extended", False):
        return None
    brown = load_brown_clusters(args.brown) if args.brown else {}
    tagdict = load_tag_dictionary(args.tag_dict) if args.tag_dict else {}
    names = [load_name_list(p) for p in (args.name_list or [])]
    ngrams = load_char_ngram_index(args.ngrams) if args.ngrams else {}
    return ResourceBundle(brown, tagdict, names, ngrams)


def _subsample(sentences, fraction, seed):
    if fraction >= 1.0:
        return sentences
    if not 0.0 < fraction <= 1.0:
        raise CliError("train fraction must be in (0, 1]")
    rng = rng_mod.stream(seed, "subsample")
    n = max(1, int(round(fraction * len(sentences))))
    keep = sorted(rng.choice(len(sentences), size=n, replace=False))
    return [sentences[k] for k in keep]


# -- commands ----------------------------------------------------------------


def cmd_train_encoder(args):
    _require(args, "embeddings", "train", "val", "out")
    table = load_word2vec_text(args.embeddings)
    train = load_corpus(args.train)
    val = load_corpus(args.val)
    scheme = WeightScheme(args.scheme, args.center_weight)
    init_rng = rng_mod.stream(args.seed, "init")
    model = build_encoder(args.arch, table.dim, args.w_prime, args.token_dim,
                          args.hidden, init_rng)
    cfg = EncoderTrainConfig(args.epochs, args.batch_size, args.lr,
                             args.momentum, args.val_every, args.seed)
    log(f"training {args.arch} encoder: d={table.dim} d'={args.token_dim} "
        f"w'={args.w_prime} on {len(train)} sentences")
    result = train_encoder(model, table, train, val, scheme, cfg)
    model.save(args.out, scheme)
    log(f"best validation WRE {result.best_val_wre:.6f} "
        f"(initial {result.initial_val_wre:.6f}); saved {args.out}")
    _emit(args, {"model": args.out, "metrics": {
        "initial_val_wre": result.initial_val_wre,
        "best_val_wre": result.best_val_wre,
        "final_val_wre": result.final_val_wre,
        "n_minibatches": result.n_minibatches,
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
    _require(args, "embeddings", "model", "corpus", "out")
    table = load_word2vec_text(args.embeddings)
    model, _ = load_encoder(args.model)
    sentences = load_corpus(args.corpus)
    types = set(args.types.split(",")) if args.types else None
    index = index_corpus(model, table, sentences, types, _aligned_tags(args, sentences))
    export_embeddings_tsv(index, args.out)
    log(f"wrote {len(index)} token records to {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_records": len(index)}})
    return 0


def cmd_knn(args):
    _require(args, "embeddings", "model", "corpus")
    table = load_word2vec_text(args.embeddings)
    model, _ = load_encoder(args.model)
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
    query = next(r for r in index_corpus(model, table, [tokens])
                 if r.position == args.position)
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


def _tagger_config(args):
    return TaggerConfig(
        window=args.window,
        omit_center=args.omit_center,
        hidden=args.hidden,
        word_features=args.word_features,
        extended=args.extended,
        update_embeddings=args.update_embeddings,
        anchor_weight=args.anchor_weight,
        dropout_input=args.dropout_input,
        dropout_hidden=args.dropout_hidden,
    )


def cmd_train_tagger(args):
    _require(args, "embeddings", "train", "val", "tagset", "out")
    table = load_word2vec_text(args.embeddings)
    tagset = load_tagset(args.tagset)
    encoders = _load_encoders(args.encoder)
    resources = _load_resources(args)
    train = corpus_tag_ids(load_tagged_corpus(args.train), tagset)
    train = _subsample(train, args.train_fraction, args.seed)
    val = corpus_tag_ids(load_tagged_corpus(args.val), tagset)
    model = Tagger(_tagger_config(args), tagset, table, encoders, resources,
                   rng_mod.stream(args.seed, "init"))
    cfg = TaggerTrainConfig(args.epochs, args.batch_size, args.lr,
                            args.momentum, args.patience, args.seed)
    log(f"training tagger: input={model.input_dim} hidden={args.hidden} "
        f"tags={len(tagset)} on {len(train)} sentences")
    result = train_tagger(model, train, val, cfg)
    model.save(args.out)
    log(f"best validation accuracy {result.best_val_accuracy:.2f}% "
        f"after {result.epochs_run} epochs; saved {args.out}")
    _emit(args, {"model": args.out, "metrics": {
        "best_val_accuracy": result.best_val_accuracy,
        "epochs_run": result.epochs_run,
        "n_train_sentences": len(train),
    }})
    return 0


def cmd_tag(args):
    _require(args, "embeddings", "model", "corpus", "out")
    table = load_word2vec_text(args.embeddings)
    encoders = _load_encoders(args.encoder)
    resources = _load_resources(args)
    model = Tagger.load(args.model, table, encoders, resources=resources)
    sentences = load_corpus(args.corpus)
    tagged = [(toks, model.tag_sentence(toks)) for toks in sentences]
    save_tagged_corpus(tagged, args.out)
    n_tokens = sum(len(t) for t, _ in tagged)
    log(f"tagged {len(tagged)} sentences ({n_tokens} tokens) into {args.out}")
    _emit(args, {"output": args.out, "metrics": {
        "n_sentences": len(tagged), "n_tokens": n_tokens,
    }})
    return 0


def cmd_eval_tags(args):
    _require(args, "pred", "gold")
    pred = load_tagged_corpus(args.pred)
    gold = load_tagged_corpus(args.gold)
    accuracy = tagging_accuracy([t for _, t in pred], [t for _, t in gold])
    log(f"tagging accuracy {accuracy:.2f}%")
    _emit(args, {"metrics": {"accuracy": accuracy}})
    return 0


def _parser_config(args):
    return ParserConfig(
        window=args.window,
        hidden=args.hidden,
        word_features=args.word_features,
        update_embeddings=args.update_embeddings,
        anchor_weight=args.anchor_weight,
    )


def cmd_train_parser(args):
    _require(args, "embeddings", "train", "val", "out")
    table = load_word2vec_text(args.embeddings)
    encoders = _load_encoders(args.encoder)
    train = load_dep_corpus(args.train)
    val = load_dep_corpus(args.val)
    model = Parser(_parser_config(args), table, encoders,
                   rng_mod.stream(args.seed, "init"))
    cfg = ParserTrainConfig(args.epochs, args.batch_size, args.lr,
                            args.momentum, args.patience, args.seed)
    log(f"training parser: input={model.input_dim} hidden={args.hidden} "
        f"on {len(train)} sentences")
    result = train_parser(model, train, val, cfg)
    model.save(args.out)
    log(f"best validation F1 {result.best_val_f1:.2f} "
        f"after {result.epochs_run} epochs; saved {args.out}")
    _emit(args, {"model": args.out, "metrics": {
        "best_val_f1": result.best_val_f1,
        "epochs_run": result.epochs_run,
    }})
    return 0


def cmd_parse(args):
    _require(args, "embeddings", "model", "corpus", "out")
    table = load_word2vec_text(args.embeddings)
    encoders = _load_encoders(args.encoder)
    model = Parser.load(args.model, table, encoders)
    sentences = load_dep_corpus(args.corpus)
    parsed = [DepSentence(s.tokens, model.predict_heads(s), list(s.selected))
              for s in sentences]
    save_dep_corpus(parsed, args.out)
    n_arcs = sum(sum(1 for h in s.heads if h >= 0) for s in parsed)
    log(f"parsed {len(parsed)} sentences ({n_arcs} arcs) into {args.out}")
    _emit(args, {"output": args.out, "metrics": {
        "n_sentences": len(parsed), "n_arcs": n_arcs,
    }})
    return 0


def cmd_eval_parse(args):
    _require(args, "pred", "gold")
    pred = load_dep_corpus(args.pred)
    gold = load_dep_corpus(args.gold)
    precision, recall, f1 = attachment_f1(pred, gold)
    log(f"attachment P={precision:.2f} R={recall:.2f} F1={f1:.2f}")
    _emit(args, {"metrics": {"precision": precision, "recall": recall, "f1": f1}})
    return 0


def cmd_export_arc_scores(args):
    _require(args, "embeddings", "model", "corpus", "out")
    table = load_word2vec_text(args.embeddings)
    encoders = _load_encoders(args.encoder)
    model = Parser.load(args.model, table, encoders)
    sentences = load_dep_corpus(args.corpus)
    n_lines = export_arc_scores(model, sentences, args.out)
    log(f"exported {n_lines} arc scores to {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_lines": n_lines}})
    return 0


def cmd_build_ngrams(args):
    _require(args, "train", "out")
    tagged = load_tagged_corpus(args.train)
    index = build_char_ngram_index((toks for toks, _ in tagged), args.min_count)
    save_char_ngram_index(index, args.out)
    log(f"indexed {len(index)} character n-grams into {args.out}")
    _emit(args, {"output": args.out, "metrics": {"n_ngrams": len(index)}})
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key = value file; explicit flags override")


def _add_train_common(p):
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)


def _add_resources(p):
    p.add_argument("--extended", action="store_true",
                   help="enable the resource-based feature stack")
    p.add_argument("--brown", help="Brown cluster file (bits<TAB>word<TAB>count)")
    p.add_argument("--tag-dict", help="tag dictionary file (word<TAB>tag<TAB>count)")
    p.add_argument("--name-list", action="append",
                   help="name list file, one word per line (repeatable)")
    p.add_argument("--ngrams", help="character n-gram index file")


def build_arg_parser():
    ap = argparse.ArgumentParser(prog="tokembed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-encoder", help="train a token-embedding encoder")
    _add_common(p)
    _add_train_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--train")
    p.add_argument("--val")
    p.add_argument("--out")
    p.add_argument("--arch", choices=["ffn", "seq2seq"], default="ffn")
    p.add_argument("--w-prime", type=int, default=1)
    p.add_argument("--token-dim", type=int, default=256)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--scheme", choices=["uniform", "focused", "tapered"],
                   default="focused")
    p.add_argument("--center-weight", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--val-every", type=int, default=1000,
                   help="validate every N minibatches (plus each epoch end)")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", help="export token embeddings as TSV")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--tags", help="aligned tagged corpus supplying gold tags")
    p.add_argument("--types", help="comma-separated type filter")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("knn", help="nearest-neighbor token query")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--sentence", type=int, default=0)
    p.add_argument("--position", type=int, default=0)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    p.add_argument("--same-type", action="store_true",
                   help="only consider tokens of the query's type")
    p.add_argument("--types", help="comma-separated type filter")
    p.add_argument("--tags", help="aligned tagged corpus supplying gold tags")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("train-tagger", help="train the local POS tagger")
    _add_common(p)
    _add_train_common(p)
    _add_resources(p)
    p.add_argument("--embeddings")
    p.add_argument("--train")
    p.add_argument("--val")
    p.add_argument("--tagset")
    p.add_argument("--out")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--omit-center", action="store_true")
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--encoder", action="append",
                   help="token-encoder model file (repeatable)")
    p.add_argument("--word-features", action="store_true")
    p.add_argument("--update-embeddings", action="store_true")
    p.add_argument("--anchor-weight", type=float, default=0.01)
    p.add_argument("--dropout-input", type=float, default=0.0)
    p.add_argument("--dropout-hidden", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--train-fraction", type=float, default=1.0,
                   help="seeded subsample of the training sentences")
    p.set_defaults(func=cmd_train_tagger)

    p = sub.add_parser("tag", help="tag a plain-text corpus")
    _add_common(p)
    _add_resources(p)
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--encoder", action="append")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval-tags", help="tagging accuracy of pred vs gold")
    _add_common(p)
    p.add_argument("--pred")
    p.add_argument("--gold")
    p.set_defaults(func=cmd_eval_tags)

    p = sub.add_parser("train-parser", help="train the head predictor")
    _add_common(p)
    _add_train_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--train")
    p.add_argument("--val")
    p.add_argument("--out")
    p.add_argument("--window", type=int, default=0,
                   help="-1 drops type embeddings entirely")
    p.add_argument("--hidden", type=int, default=1024)
    p.add_argument("--encoder", action="append")
    p.add_argument("--word-features", action="store_true", default=True)
    p.add_argument("--no-word-features", dest="word_features", action="store_false")
    p.add_argument("--update-embeddings", action="store_true")
    p.add_argument("--anchor-weight", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=10)
    p.set_defaults(func=cmd_train_parser)

    p = sub.add_parser("parse", help="predict heads for a dependency corpus")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--encoder", action="append")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval-parse", help="attachment F1 of pred vs gold")
    _add_common(p)
    p.add_argument("--pred")
    p.add_argument("--gold")
    p.set_defaults(func=cmd_eval_parse)

    p = sub.add_parser("export-arc-scores",
                       help="dump arc scores for downstream parser features")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--encoder", action="append")
    p.set_defaults(func=cmd_export_arc_scores)

    p = sub.add_parser("build-ngrams",
                       help="build the character n-gram index from tagged data")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--out")
    p.add_argument("--min-count", type=int, default=3)
    p.set_defaults(func=cmd_build_ngrams)

    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    commands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    try:
        _apply_config_file(args, argv, commands.choices[args.command])
        if args.seed < 0:
            raise CliError("seed must be non-negative")
        return args.func(args)
    except TrainingDiverged as e:
        log(f"numerical failure: {e}")
        return 2
    except (CliError, OSError, ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
