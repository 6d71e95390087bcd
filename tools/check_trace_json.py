#!/usr/bin/env python3
"""Validate a trace artifact (--trace) structurally.

check_bench_json.py gates the artifact's *shape* against the schema;
this script checks the *semantics* Chrome/Perfetto rely on to render
the document:

  * async span pairing — every "e" (span end) must be preceded, within
    its (pid, id, name) key, by an unmatched "b" (span begin). The
    exporter demotes ends whose begins fell off the ring to instants,
    so a dangling "e" means the demotion pass is broken. Unclosed "b"s
    are legal: a request still in flight (or killed by a backend
    crash) never ends its span.
  * flow pairing — per (pid, id) the flow start "s" must come first;
    "t"/"f" steps without a prior "s" draw arrows from nowhere.
    Duplicate-suppression instants can legally emit a "t" after the
    finish "f" (a late response lands after the request resolved), so
    order beyond "s first" is not enforced.
  * per-phase required keys, and "bp":"e" on every flow finish.
  * timestamp order — within each pid (one sweep point) "ts" never
    decreases. Every record, packet stage or span, is written live at
    the simulated time it describes, so the ring is in tick order.
  * metadata ("M") names restricted to thread_name / process_name /
    run_metadata, with run_metadata carrying the deterministic
    bench/preset/seed/build block.

Only the Python standard library is used. Exit 0 when every given
artifact passes, 1 otherwise (one diagnostic per violation).
"""

import argparse
import json
import sys

ERRORS = []

META_NAMES = ("thread_name", "process_name", "run_metadata")
SPAN_PHASES = ("b", "e")
FLOW_PHASES = ("s", "t", "f")


def fail(msg):
    ERRORS.append(msg)


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("%s: %s" % (path, e))
        return None


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def require(ev, keys, where):
    ok = True
    for k in keys:
        if k not in ev:
            fail("%s: missing key %r" % (where, k))
            ok = False
    return ok


def check_ts(ev, where, last_ts):
    ts = ev.get("ts")
    if not is_num(ts):
        fail("%s: ts is not a number: %r" % (where, ts))
        return
    if ts < 0:
        fail("%s: negative ts" % where)
    pid = ev.get("pid")
    prev = last_ts.get(pid)
    if prev is not None and ts < prev:
        fail("%s: ts %r decreases below %r within pid %r" %
             (where, ts, prev, pid))
    else:
        last_ts[pid] = ts


def check_meta(ev, where):
    name = ev.get("name")
    if name not in META_NAMES:
        fail("%s: metadata event is not one of %s: %r" %
             (where, "/".join(META_NAMES), name))
        return
    args = ev.get("args")
    if not isinstance(args, dict):
        fail("%s: %s without args object" % (where, name))
        return
    if name in ("thread_name", "process_name"):
        if not isinstance(args.get("name"), str):
            fail("%s: %s args.name is not a string" % (where, name))
    else:  # run_metadata: the deterministic artifact fingerprint
        for key, pred, kind in (("bench", str, "string"),
                                ("preset", str, "string"),
                                ("build", str, "string")):
            if not isinstance(args.get(key), pred):
                fail("%s: run_metadata args.%s is not a %s" %
                     (where, key, kind))
        if not is_uint(args.get("seed")):
            fail("%s: run_metadata args.seed is not a uint" % where)


def check_artifact(path, require_flows):
    doc = load(path)
    if doc is None:
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("%s: traceEvents must be a non-empty array" % path)
        return

    # (pid, id, name) -> count of unmatched "b"s.
    open_spans = {}
    # (pid, id) -> set of flow phases seen so far.
    flows = {}
    # pid -> latest ts seen.
    last_ts = {}
    saw_begin = saw_flow_start = False

    for i, ev in enumerate(events):
        where = "%s: traceEvents[%d]" % (path, i)
        if not isinstance(ev, dict):
            fail(where + ": not an object")
            continue
        ph = ev.get("ph")

        if ph == "M":
            if not require(ev, ("name", "ph", "pid", "tid"), where):
                continue
            check_meta(ev, where)
            continue

        if ph == "i":
            if require(ev, ("name", "ph", "ts", "pid", "tid"), where):
                check_ts(ev, where, last_ts)
            continue

        if ph in SPAN_PHASES:
            if not require(ev, ("name", "ph", "ts", "pid", "tid",
                                "id", "cat"), where):
                continue
            check_ts(ev, where, last_ts)
            if ev["cat"] != "span":
                fail("%s: %r event with cat %r (want \"span\")" %
                     (where, ph, ev["cat"]))
            key = (ev["pid"], ev["id"], ev["name"])
            if ph == "b":
                saw_begin = True
                open_spans[key] = open_spans.get(key, 0) + 1
            else:
                n = open_spans.get(key, 0)
                if n == 0:
                    fail("%s: span end %r id=%r without a prior "
                         "unmatched begin (demotion pass broken?)" %
                         (where, ev["name"], ev["id"]))
                else:
                    open_spans[key] = n - 1
            continue

        if ph in FLOW_PHASES:
            if not require(ev, ("name", "ph", "ts", "pid", "tid",
                                "id", "cat"), where):
                continue
            check_ts(ev, where, last_ts)
            if ev["cat"] != "flow":
                fail("%s: %r event with cat %r (want \"flow\")" %
                     (where, ph, ev["cat"]))
            key = (ev["pid"], ev["id"])
            seen = flows.setdefault(key, set())
            if ph == "s":
                saw_flow_start = True
                if "s" in seen:
                    fail("%s: duplicate flow start for id %r" %
                         (where, ev["id"]))
            else:
                if "s" not in seen:
                    fail("%s: flow %r for id %r before its start" %
                         (where, ph, ev["id"]))
                if ph == "f" and ev.get("bp") != "e":
                    fail("%s: flow finish without bp=\"e\"" % where)
            seen.add(ph)
            continue

        fail("%s: unexpected phase %r" % (where, ph))

    # A server-mode artifact legitimately holds only packet-stage and
    # governor instants (request spans are a fleet concept), so
    # presence of begins/flows is opt-in for fleet artifacts.
    if require_flows:
        if not saw_begin:
            fail("%s: no span begin events (tracer off or ring "
                 "empty?)" % path)
        if not saw_flow_start:
            fail("%s: no flow start events (no retained root Request "
                 "span)" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("traces", nargs="+",
                    help="trace artifacts (--trace output)")
    ap.add_argument("--require-flows", action="store_true",
                    help="additionally require span begins and flow "
                         "starts (fleet artifacts: request spans "
                         "must be present)")
    args = ap.parse_args()

    for path in args.traces:
        check_artifact(path, args.require_flows)

    if ERRORS:
        for e in ERRORS:
            print("error: " + e, file=sys.stderr)
        print("%d trace violation(s)" % len(ERRORS), file=sys.stderr)
        return 1
    print("trace OK: " + ", ".join(args.traces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
