#!/usr/bin/env python3
"""Checks that tools/trace_summary.py exits quietly when its reader is gone.

The summary of tests/golden/trace_iq_small.jsonl is written into a pipe
whose read end is closed before the script starts, so its first write
fails with EPIPE, as it does under `trace_summary.py t.json | head` once
head has exited. A Python traceback or an "Exception ignored" note on
stderr fails the check.

Usage: check_trace_summary_pipe.py
Exit status: 0 when stderr stays clean, 1 otherwise.
"""

import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
SCRIPT = os.path.join(REPO, "tools", "trace_summary.py")
TRACE = os.path.join(REPO, "tests", "golden", "trace_iq_small.jsonl")


def main() -> int:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, SCRIPT, TRACE],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    noise = [marker for marker in ("Traceback", "Exception ignored",
                                   "BrokenPipeError")
             if marker in proc.stderr]
    if noise:
        print(f"trace_summary.py wrote {noise} to stderr on a closed pipe:")
        print(proc.stderr)
        return 1
    print(f"ok: closed pipe, exit status {proc.returncode}, stderr clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
