#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory. The last line on standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sphere3-serve", "sphere6-region", "patched-grid")
#: The worker, and any serve process it started, is killed after this long.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole rounds are run until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "hyperboxing" / "__init__.py").is_file():
        print(f"error: no package sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Keep the worker and its serve children on one CPU, off CPU 0, which
    # takes most interrupt and housekeeping work. On the 2-vCPU host this was
    # tuned on, 10 s medians of a fixed job spread 0.06 on CPU 1, 0.16 on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawned_at = perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.returncode != 0:
            # The worker's session also holds any serve process it started.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: worker printed no result line", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        print(f"error: malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
