#!/usr/bin/env python3
"""Layer-attribution self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seconds 10] [--delay-us 100] [--seed 0]

Runs paper-h264 traced twice through run.py: once as is, and once with a
busy-wait of --delay-us inside every traced RTM on_hot_spot_entry span. The
delay must show up in rtm.entry's self time, as (RTM entries per pass) x
delay within 25%, and in no other layer: every other layer, and the
unattributed remainder, may move by at most a tenth of the injected time.
Exits 0 when both hold, 1 otherwise. The two runs are separate, so on a
busy host the other layers drift between them; the default delay makes the
injected time (about 3.4 thread-seconds per pass) large against that drift.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)")


def traced_run(seconds, seed, delay_us):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "paper-h264",
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
               "--entry-delay-us", str(delay_us)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("selftest: run.py exited %d" % done.returncode)
    layers, decisions, section = {}, None, False
    for line in done.stdout.splitlines():
        if line.startswith("traced passes:"):
            section = True
            continue
        match = LINE.match(line)
        if not match:
            continue
        name, value = match.group(1), float(match.group(2))
        if name == "rtm.decisions":
            decisions = value
        elif section and name.endswith("_s"):
            layers[name[:-2]] = value  # self seconds per traced pass
    if decisions is None or "rtm.entry" not in layers:
        sys.exit("selftest: run output lacks the layer lines")
    return layers, decisions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--delay-us", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base, decisions = traced_run(args.seconds, args.seed, 0)
    delayed, _ = traced_run(args.seconds, args.seed, args.delay_us)
    # One decision per RTM hot-spot entry (prefetching is off in paper-h264).
    expected = decisions * args.delay_us * 1e-6
    ok = True
    print("%-24s %12s %12s %12s" % ("layer (s per pass)", "base", "delayed", "delta"))
    for name in sorted(set(base) | set(delayed)):
        delta = delayed.get(name, 0.0) - base.get(name, 0.0)
        if name == "rtm.entry":
            good = abs(delta - expected) <= 0.25 * expected
        else:
            good = abs(delta) <= 0.1 * expected
        ok &= good
        print("%-24s %12.6f %12.6f %12.6f %s" % (name, base.get(name, 0.0),
                                                 delayed.get(name, 0.0), delta,
                                                 "ok" if good else "WRONG LAYER"
                                                 if name != "rtm.entry" else "MISSED"))
    print("injected %.6f s per pass (%d entries x %d us): %s" %
          (expected, decisions, args.delay_us, "PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
