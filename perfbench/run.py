#!/usr/bin/env python3
"""tokembed benchmark: CLI pipelines at 20k vocabulary and d=100.

    python3 perfbench/run.py --workload {tokens,tagger,parser} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The run generates the workload's
inputs from the seed (untimed), then repeats the workload's pipeline of real
``tokembed`` CLI commands, one process after another from this single client
(a closed loop), for ``--seconds`` seconds and at least three times.  Each
command's output is checked; a command that exits non-zero, prints anything
but one JSON document, or writes wrong output counts as a failed operation
and yields no throughput.  End-to-end metrics are medians over the
repetitions.

With ``--trace 1`` untraced and traced repetitions alternate; the traced ones
wrap each layer's public functions (perfbench/hooks.py) and give the
per-layer metrics, and the difference in wall time is reported as the
tracing overhead.

Workloads, and why each exists:

* tokens: ffn and seq2seq encoder training, ``embed`` and two ``knn``
  queries.  Exercises encoder, nn and analysis and never the tagger or
  parser, so it is the no-change side for tagger- and parser-only work.
* tagger: ``train-tagger`` with encoder, word and extended features,
  dropout and the anchored embedding update over all 20k rows, then ``tag``.
  The only workload that updates embeddings.
* parser: ``train-parser`` (hidden 1024, no embedding update), ``parse``
  and ``export-arc-scores`` on sentences of mixed length with unselected
  tokens.  Dominated by the quadratic number of candidate arcs.

The last stdout line is the result object; the line before it is a report
with every per-command metric, the environment, the SHA-256 of every model
and output file, the unit cross-checks and any absent trace targets.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
MIN_REPEATS = 3
COMMAND_TIMEOUT_S = 100  # one command; a whole run must end within 180 s
RUN_LIMIT_S = 120

E2E = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "train_units_per_s": "1/s", "infer_units_per_s": "1/s", "quality_pct": "%",
}
LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
LAYERS = [
    "embeddings.load_word2vec_text.s", "embeddings.to_ids.calls",
    "serialize.load_model.s", "serialize.save_model.s",
    "encoder.corpus_windows.s", "encoder.ffn.loss_and_grads.s",
    "encoder.seq2seq.loss_and_grads.s", "encoder.mean_wre.s",
    "encoder.encode_sentence.s", "encoder.encode_sentence.calls",
    "nn.MLP.forward.s", "nn.MLP.backward.s",
    "nn.LstmCell.step.s", "nn.LstmCell.step_backward.s",
    "nn.SgdMomentum.step.s", "nn.anchored_l2.s",
    "features.pair_features.calls", "features.word_features.calls",
    "features.extended_features.calls", "features.extended_features.s",
    "tagger.const_features.s", "tagger.batch_loss_and_grads.s",
    "tagger.train_tagger.self_s", "tagger.Tagger.tag_sentence.s",
    "parser.train_parser.self_s", "parser.batch_loss_and_grads.s",
    "parser.Parser.predict_heads.s", "parser.export_arc_scores.s",
    "analysis.index_corpus.s", "analysis.nearest_neighbors.s",
    "analysis.export_embeddings_tsv.s", "cli.main.self_s",
]
COMPUTED = {"serialize.bytes": "bytes", "nn.MLP.gflop": "GFLOP",
            "nn.MLP.gflop_per_s": "GFLOP/s", "parser.Parser.score_sentence.arcs": "count",
            "parser.arc_rows.mb": "MB", "trace.overhead_s": "s"}


class Command:
    """One CLI invocation of a pipeline, with its checks.

    ``work`` names the functions whose first call starts the command's main
    work; ``role`` is "train" or "infer" (which end-to-end throughput its
    units count toward); ``units`` maps the command's JSON summary to the
    work it did; ``check`` returns a list of problems with its outputs;
    ``outputs`` are the files whose SHA-256 must repeat.  ``rate`` names the
    command's throughput in the report; ``quality`` maps the summary to a
    higher-is-better percentage and ``named`` to further reported values.
    """

    def __init__(self, name, argv, work, role, units, check, outputs, rate=None,
                 quality=None, named=None):
        self.name, self.argv, self.work, self.role = name, argv, work, role
        self.units, self.check, self.outputs = units, check, outputs
        self.rate, self.quality, self.named = rate, quality, named


def _finite_metrics(summary):
    bad = [k for k, v in summary.get("metrics", {}).items()
           if isinstance(v, float) and not math.isfinite(v)]
    return [f"non-finite metric {k}" for k in bad]


def _expect(cond, msg):
    return [] if cond else [msg]


def _read_blocks(path):
    """Blank-line separated blocks of tab-split rows."""
    blocks, rows = [], []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line:
            rows.append(line.split("\t"))
        elif rows:
            blocks.append(rows)
            rows = []
    if rows:
        blocks.append(rows)
    return blocks


# -- pipelines -----------------------------------------------------------------


def _encoder_cmd(arch, data, out, info, seed, epochs, lr):
    n_train = info["sizes"]["unlabeled.train"]["tokens"]
    batch = 64

    def check(s):
        m = s["metrics"]
        return (_expect(m["best_val_wre"] < m["initial_val_wre"],
                        "best validation WRE did not improve on the initial one")
                + _expect(m["n_minibatches"] == epochs * math.ceil(n_train / batch),
                          f"n_minibatches {m['n_minibatches']} != "
                          f"{epochs} x ceil({n_train}/{batch})"))

    return Command(
        f"train-{arch}",
        ["train-encoder", "--arch", arch, "--embeddings", data / "embeddings.txt",
         "--train", data / "unlabeled.train.txt", "--val", data / "unlabeled.val.txt",
         "--out", out / f"{arch}.bin", "--w-prime", "1", "--token-dim", "256",
         "--hidden", "512", "--batch-size", str(batch), "--epochs", str(epochs),
         "--lr", str(lr), "--val-every", "25", "--seed", str(seed)],
        ["encoder:train_encoder"], "train",
        lambda s: epochs * n_train, check, [out / f"{arch}.bin"],
        rate=f"{arch}_train_windows_per_s",
        quality=lambda s: 100.0 * (1.0 - s["metrics"]["best_val_wre"]
                                   / s["metrics"]["initial_val_wre"]),
        named=lambda s: {f"{arch}_val_wre": s["metrics"]["best_val_wre"]})


def tokens_pipeline(data, out, info, seed):
    heldout = [line.split() for line in
               (data / "heldout.txt").read_text(encoding="utf-8").splitlines() if line.split()]
    n_tokens = sum(len(t) for t in heldout)
    width = 6 + 256

    def check_embed(s):
        lines = (out / "tokens.tsv").read_text(encoding="utf-8").splitlines()
        return (_expect(s["metrics"]["n_records"] == n_tokens,
                        f"n_records {s['metrics']['n_records']} != {n_tokens} tokens")
                + _expect(len(lines) == n_tokens + 1, "TSV row count != tokens + header")
                + _expect(all(len(x.split("\t")) == width for x in lines),
                          f"TSV rows are not {width} columns wide"))

    cmds = [_encoder_cmd("ffn", data, out, info, seed, 2, 0.01),
            _encoder_cmd("seq2seq", data, out, info, seed, 1, 0.1),
            Command("embed", ["embed", "--embeddings", data / "embeddings.txt",
                              "--model", out / "ffn.bin", "--corpus", data / "heldout.txt",
                              "--out", out / "tokens.tsv"],
                    ["analysis:index_corpus", "analysis:export_embeddings_tsv"], "infer",
                    lambda s: n_tokens, check_embed, [out / "tokens.tsv"],
                    rate="embed_tokens_per_s")]

    # Two queries: every token under euclidean distance with the ffn encoder,
    # and same-type tokens under cosine distance with the seq2seq encoder.
    # Query positions come from the seed; same-type queries pick a type with
    # more than k occurrences so exactly k neighbours exist.
    rng = np.random.default_rng([seed, 3])
    k = 5
    counts = {}
    for toks in heldout:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    positions = [(si, j) for si, toks in enumerate(heldout) for j in range(len(toks))]
    frequent = [(si, j) for si, j in positions if counts[heldout[si][j]] > k]
    queries = [("ffn", "euclidean", [], positions[rng.integers(len(positions))]),
               ("seq2seq", "cosine", ["--same-type"], frequent[rng.integers(len(frequent))])]
    for q, (arch, metric, extra, (si, j)) in enumerate(queries):
        def check_knn(s, tok=heldout[si][j], same=bool(extra)):
            nb = s["neighbors"]
            return (_expect(len(nb) == k, f"{len(nb)} neighbours, expected {k}")
                    + _expect(s["query"]["token"] == tok, "query token mismatch")
                    + _expect(all(math.isfinite(n["distance"]) for n in nb),
                              "non-finite distance")
                    + _expect(not same or all(n["token"] == tok for n in nb),
                              "same-type query returned another type"))
        cmds.append(Command(
            f"knn-{q}", ["knn", "--embeddings", data / "embeddings.txt",
                         "--model", out / f"{arch}.bin", "--corpus", data / "heldout.txt",
                         "--sentence", str(si), "--position", str(j), "-k", str(k),
                         "--metric", metric] + extra,
            ["analysis:index_corpus", "analysis:nearest_neighbors"], "infer",
            lambda s, n=len(heldout[si]): n_tokens + n, check_knn, []))
    return cmds


def tagger_pipeline(data, out, info, seed):
    res = ["--extended", "--brown", data / "brown.txt", "--tag-dict", data / "tagdict.txt",
           "--name-list", data / "names.txt", "--ngrams", data / "ngrams.txt"]
    common = ["--embeddings", data / "embeddings.txt", "--encoder", data / "enc0.bin"] + res
    train = info["sizes"]["tagged.train"]
    gold = _read_blocks(data / "tagged.heldout.tsv")
    n_tokens = sum(len(b) for b in gold)
    baseline = info["baseline_accuracy"]["tagged.heldout"]
    val_baseline = info["baseline_accuracy"]["tagged.val"]

    def check_train(s):
        m = s["metrics"]
        return (_expect(m["best_val_accuracy"] > val_baseline,
                        f"validation accuracy {m['best_val_accuracy']:.2f} "
                        f"not above majority baseline {val_baseline:.2f}")
                + _expect(m["n_train_sentences"] == train["sentences"],
                          "n_train_sentences mismatch"))

    def tag_accuracy():
        pred = _read_blocks(out / "tagged.tsv")
        if [[r[0] for r in b] for b in pred] != [[r[0] for r in b] for b in gold]:
            return None
        hits = sum(p[1] == g[1] for bp, bg in zip(pred, gold) for p, g in zip(bp, bg))
        return 100.0 * hits / n_tokens

    def check_tag(s):
        acc = tag_accuracy()
        return (_expect(s["metrics"]["n_tokens"] == n_tokens,
                        f"n_tokens {s['metrics']['n_tokens']} != {n_tokens}")
                + _expect(acc is not None, "tagged output tokens differ from the input")
                + _expect(acc is None or acc > baseline, f"held-out accuracy {acc} "
                          f"not above majority baseline {baseline:.2f}"))

    return [
        Command("train-tagger",
                ["train-tagger", "--train", data / "tagged.train.tsv",
                 "--val", data / "tagged.val.tsv", "--tagset", data / "tagset.txt",
                 "--out", out / "tagger.bin", "--window", "1", "--word-features",
                 "--update-embeddings", "--dropout-input", "0.1", "--dropout-hidden", "0.2",
                 "--epochs", "3", "--lr", "0.05", "--seed", str(seed)] + common,
                ["tagger:train_tagger"], "train",
                lambda s: s["metrics"]["epochs_run"] * train["tokens"], check_train,
                [out / "tagger.bin"], rate="tagger_train_tokens_per_s",
                named=lambda s: {"tagger_val_accuracy": s["metrics"]["best_val_accuracy"]}),
        Command("tag", ["tag", "--model", out / "tagger.bin", "--corpus", data / "heldout.txt",
                        "--out", out / "tagged.tsv"] + common,
                ["tagger:Tagger.tag_sentence", "tagger:save_tagged_corpus"], "infer",
                lambda s: n_tokens, check_tag, [out / "tagged.tsv"],
                rate="tag_tokens_per_s", quality=lambda s: tag_accuracy()),
    ]


def _attachment_f1(pred_blocks, gold_blocks):
    def arcs(blocks):
        return {(si, int(r[0]), int(r[2])) for si, b in enumerate(blocks)
                for r in b if r[3] == "1" and int(r[2]) >= 0}
    p, g = arcs(pred_blocks), arcs(gold_blocks)
    return 200.0 * len(p & g) / (len(p) + len(g)) if p or g else 0.0


def parser_pipeline(data, out, info, seed):
    common = ["--embeddings", data / "embeddings.txt", "--encoder", data / "enc0.bin"]
    arcs, selected = info["candidate_arcs"], info["selected"]
    gold = _read_blocks(data / "dep.test.tsv")
    baseline = info["baseline_f1"]["dep.test"]
    val_baseline = info["baseline_f1"]["dep.val"]

    def check_train(s):
        f1 = s["metrics"]["best_val_f1"]
        return _expect(f1 > val_baseline,
                       f"validation F1 {f1:.2f} not above chance {val_baseline:.2f}")

    def test_f1():
        pred = _read_blocks(out / "parsed.tsv")
        if [[r[1] for r in b] for b in pred] != [[r[1] for r in b] for b in gold]:
            return None
        return _attachment_f1(pred, gold)

    def check_parse(s):
        f1 = test_f1()
        return (_expect(s["metrics"]["n_arcs"] == selected["dep.test"],
                        f"n_arcs {s['metrics']['n_arcs']} != {selected['dep.test']} selected")
                + _expect(f1 is not None, "parsed output tokens differ from the input")
                + _expect(f1 is None or f1 > baseline,
                          f"test F1 {f1} not above chance {baseline:.2f}"))

    def check_export(s):
        lines = (out / "arcs.tsv").read_text(encoding="utf-8").splitlines()
        return (_expect(s["metrics"]["n_lines"] == arcs["dep.test"],
                        f"n_lines {s['metrics']['n_lines']} != {arcs['dep.test']} candidates")
                + _expect(len(lines) == arcs["dep.test"], "arc score file line count")
                + _expect(all(math.isfinite(float(x.split("\t")[3])) for x in lines),
                          "non-finite arc score"))

    return [
        Command("train-parser",
                ["train-parser", "--train", data / "dep.train.tsv", "--val", data / "dep.val.tsv",
                 "--out", out / "parser.bin", "--window", "1", "--hidden", "1024",
                 "--epochs", "3", "--batch-size", "2", "--lr", "0.05",
                 "--seed", str(seed)] + common,
                ["parser:train_parser"], "train",
                lambda s: s["metrics"]["epochs_run"] * arcs["dep.train"], check_train,
                [out / "parser.bin"], rate="parser_train_arcs_per_s",
                named=lambda s: {"parser_val_f1": s["metrics"]["best_val_f1"]}),
        Command("parse", ["parse", "--model", out / "parser.bin", "--corpus",
                          data / "dep.test.tsv", "--out", out / "parsed.tsv"] + common,
                ["parser:Parser.predict_heads", "parser:save_dep_corpus"], "infer",
                lambda s: arcs["dep.test"], check_parse, [out / "parsed.tsv"],
                rate="parse_arcs_per_s", quality=lambda s: test_f1()),
        Command("export-arc-scores",
                ["export-arc-scores", "--model", out / "parser.bin", "--corpus",
                 data / "dep.test.tsv", "--out", out / "arcs.tsv"] + common,
                ["parser:export_arc_scores"], "infer",
                lambda s: s["metrics"]["n_lines"], check_export, [out / "arcs.tsv"],
                rate="export_arcs_per_s"),
    ]


PIPELINES = {"tokens": tokens_pipeline, "tagger": tagger_pipeline, "parser": parser_pipeline}

# -- running -------------------------------------------------------------------


def run_command(cmd, work, rep, trace):
    """Spawn one command; return its measurements and the problems found."""
    record = work / f"rec-{rep}-{cmd.name}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "child.py"), str(record), "1" if trace else "0",
            cmd.name, ",".join(cmd.work), "--"] + [str(a) for a in cmd.argv]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {COMMAND_TIMEOUT_S}s"]}
    end = time.monotonic()
    res = {"problems": [], "spawn": spawn, "end": end}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        kind = "diverged" if proc.returncode == 2 else "failed"
        res["problems"].append(f"{kind} with exit {proc.returncode}: {tail[0]}")
        return res
    try:
        summary = json.loads(proc.stdout)
        rec = json.loads(record.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as e:
        res["problems"].append(f"stdout is not one JSON document or no record: {e}")
        return res
    if not isinstance(summary, dict):
        res["problems"].append("stdout JSON is not an object")
        return res
    try:
        res["problems"] += _finite_metrics(summary) + cmd.check(summary)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as e:
        res["problems"].append(f"output check could not run: {e!r}")
    if res["problems"]:
        return res
    start, stop = rec["work"]
    if start is None:  # work targets absent: count all of main as work
        start, stop = rec["main"]
    res.update(summary=summary, rec=rec, setup_s=start - spawn, work_s=stop - start,
               units=cmd.units(summary), rss_mb=rec["maxrss_kb"] / 1024.0,
               quality=cmd.quality(summary) if cmd.quality else None,
               sha={p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in cmd.outputs})
    return res


def run_repeat(cmds, work, rep, trace):
    results = {c.name: run_command(c, work, rep, trace) for c in cmds}
    ok = [r for r in results.values() if "spawn" in r]
    rep_metrics = {}
    if len(ok) == len(cmds):
        rep_metrics["wall_s"] = max(r["end"] for r in ok) - min(r["spawn"] for r in ok)
    good = {n: r for n, r in results.items() if not r["problems"]}
    if len(good) == len(cmds):
        rep_metrics["setup_s"] = sum(r["setup_s"] for r in good.values())
        rep_metrics["peak_rss_mb"] = max(r["rss_mb"] for r in good.values())
        for role in ("train", "infer"):
            rs = [good[c.name] for c in cmds if c.role == role]
            rep_metrics[f"{role}_units_per_s"] = (sum(r["units"] for r in rs)
                                                  / sum(r["work_s"] for r in rs))
        rep_metrics["quality_pct"] = statistics.mean(
            r["quality"] for r in good.values() if r["quality"] is not None)
    named = {}
    for cmd in cmds:
        r = good.get(cmd.name)
        if r is None:
            continue
        if cmd.rate:
            named[cmd.rate] = r["units"] / r["work_s"]
        if cmd.named:
            named.update(cmd.named(r["summary"]))
        if r["quality"] is not None:
            named[f"{cmd.name}.quality_pct"] = r["quality"]
        named[f"{cmd.name}.setup_s"] = r["setup_s"]
        named[f"{cmd.name}.work_s"] = r["work_s"]
        named[f"{cmd.name}.peak_rss_mb"] = r["rss_mb"]
    knn = [r["work_s"] for n, r in good.items() if n.startswith("knn-")]
    if knn:
        named["knn_query_s"] = statistics.median(knn)
    return results, rep_metrics, named


def layer_metrics(results):
    """Per-layer metrics of one traced repetition, summed over its commands."""
    totals, extras = {}, {}
    for r in results.values():
        rec = r.get("rec") or {}
        for name, row in rec.get("layers", {}).items():
            for field, val in row.items():
                totals[f"{name}.{field}"] = totals.get(f"{name}.{field}", 0.0) + val
        for name, val in rec.get("extras", {}).items():
            extras[name] = extras.get(name, 0.0) + val
    out = {name: totals.get(name, 0.0) for name in LAYERS}
    out["serialize.bytes"] = extras.get("serialize.bytes", 0.0)
    out["nn.MLP.gflop"] = extras.get("nn.MLP.flop", 0.0) / 1e9
    mlp_s = out["nn.MLP.forward.s"] + out["nn.MLP.backward.s"]
    out["nn.MLP.gflop_per_s"] = out["nn.MLP.gflop"] / mlp_s if mlp_s else 0.0
    out["parser.Parser.score_sentence.arcs"] = extras.get("parser.Parser.score_sentence.arcs", 0.0)
    out["parser.arc_rows.mb"] = extras.get("parser.arc_rows.mb", 0.0)
    return out


def environment(info):
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "platform": platform.platform()}
    env["blas"] = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and line.split()[-1].endswith(".so")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    break
    except OSError as e:
        env["blas_threads"] = f"unknown ({e})"
    for key, path, prefix in (("cpu_model", "/proc/cpuinfo", "model name"),
                              ("mem_total", "/proc/meminfo", "MemTotal")):
        try:
            with open(path, encoding="utf-8") as fh:
                env[key] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith(prefix)), None)
        except OSError:
            env[key] = None
    try:
        env["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                        text=True, cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        env["git_sha"] = None
    env["workload"] = {k: info[k] for k in ("workload", "seed", "vocab", "dim", "sizes")}
    return env


def warm_up(seconds=1.5):
    """Keep every core busy briefly before timing.

    On an otherwise idle virtual machine the first multi-threaded BLAS call
    after a pause runs about a second late; without this the first
    repetition of a run would carry that stall.
    """
    a = np.ones((768, 768), dtype=np.float32)
    t = time.monotonic()
    while time.monotonic() - t < seconds:
        a @ a


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(PIPELINES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tokembed" / "cli.py").is_file():
        print(f"error: no tokembed sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    work = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    data, out = work / "data", work / "out"
    out.mkdir(parents=True)
    info = gen.generate(args.workload, args.seed, data)
    cmds = PIPELINES[args.workload](data, out, info, args.seed)

    warm_up()
    t0 = time.monotonic()
    reps = []  # (traced, results, e2e metrics, named metrics)
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append((traced, *run_repeat(cmds, work, len(reps), traced)))
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > RUN_LIMIT_S:
            break
        enough = len(reps) >= (2 if args.trace else MIN_REPEATS)
        if enough and elapsed + per_rep > args.seconds:
            break

    attempted = failed = 0
    problems, sha_first, sha_mismatch, absent = [], {}, [], set()
    for rep, (traced, results, _, _) in enumerate(reps):
        for name, r in results.items():
            attempted += 1
            mismatch = [f for f, h in r.get("sha", {}).items()
                        if sha_first.setdefault(f, h) != h]
            if mismatch:
                r["problems"].append(f"output differs from the first repetition: {mismatch}")
                sha_mismatch += mismatch
            if r["problems"]:
                failed += 1
                problems.append({"repeat": rep, "command": name, "problems": r["problems"]})
            absent.update((r.get("rec") or {}).get("absent", []))

    untraced = [m for t, _, m, _ in reps if not t]
    named_all = [n for t, _, _, n in reps if not t]
    report_named = {}
    for key in sorted({k for n in named_all for k in n}):
        report_named[key] = quartiles([n[key] for n in named_all if key in n])
    metrics = {}
    if args.trace:
        traced_layers = [layer_metrics(res) for t, res, _, _ in reps if t]
        for name in LAYERS + list(COMPUTED):
            if name == "trace.overhead_s":
                tw = [m["wall_s"] for t, _, m, _ in reps if t and "wall_s" in m]
                uw = [m["wall_s"] for m in untraced if "wall_s" in m]
                val = statistics.median(tw) - statistics.median(uw) if tw and uw else 0.0
            elif traced_layers:
                val = statistics.median(lm[name] for lm in traced_layers)
            else:
                val = 0.0
            unit = COMPUTED.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]
            metrics[name] = {"value": val, "unit": unit}
    else:
        for name, unit in E2E.items():
            vals = [m[name] for m in untraced if name in m]
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}

    complete = all(k in m for m in untraced for k in E2E)
    if args.trace:
        complete = complete and len(untraced) < len(reps)
    correct = failed == 0 and complete and not sha_mismatch
    report = {
        "report": "tokembed-perfbench", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "repeats": len(reps), "seconds": args.seconds,
        "closed_loop_clients": 1,
        "environment": environment(info),
        "per_command": report_named,
        "end_to_end_samples": {k: [m.get(k) for m in untraced] for k in E2E},
        "sha256_outputs": sha_first,
        "sha256_inputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(data.iterdir())},
        "problems": problems,
        "absent_trace_targets": sorted(absent),
        "work_dir": str(work.relative_to(ROOT)),
    }
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
