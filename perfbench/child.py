"""Run one tokembed CLI command in this process and record how it went.

    python perfbench/child.py RECORD TRACE CMD_ID WORK_TARGETS -- <tokembed args>

WORK_TARGETS is a comma-separated list of the functions that make up the
command's main work (see hooks.py for the target syntax).  With TRACE=1 the
layer hooks are installed too.  Standard output is left to the command, which
prints its single JSON summary there; this process writes its own record
(work interval on the system-wide monotonic clock, peak RSS, and with
tracing the spans and per-layer totals) to RECORD once the command returns.
"""

import json
import resource
import sys
import time

import hooks


def peak_rss_kb():
    """Peak resident set of this process image.

    VmHWM restarts at exec; ru_maxrss does not, so it would report the
    benchmark parent's size at fork when the command itself is smaller.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    record_path, trace, cmd_id, work = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py RECORD TRACE CMD_ID WORK_TARGETS -- ARGS")
    argv = sys.argv[6:]
    from tokembed import cli

    rec = hooks.Recorder()
    if trace == "1":
        rec.add_layers()
    rec.add_work(work.split(","))
    main_start = time.monotonic()
    rc = cli.main(argv)
    main_end = time.monotonic()
    sys.stdout.flush()
    out = {
        "cmd_id": cmd_id,
        "rc": rc,
        "main": [main_start, main_end],
        "work": [rec.work_start, rec.work_end],
        "maxrss_kb": peak_rss_kb(),
        "absent": sorted(set(rec.absent)),
    }
    if trace == "1":
        out["layers"] = rec.layer_record()
        out["extras"] = rec.extras
        out["spans"] = rec.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
