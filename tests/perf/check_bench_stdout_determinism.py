#!/usr/bin/env python3
"""Pins the bench pipeline's core invariant: a bench binary's stdout is
byte-identical whether or not the observability machinery is engaged
(ctest leg bench_stdout_determinism_test).

Runs the given bench binary (argv[1], e.g. build/bench/fig6_vary_n) at a
reduced scale four ways —

  1. plain (the historical single-shot invocation),
  2. --profile (stage profile: wall clock and thread CPU time),
  3. --reps=3 --warmup=1 (repetition harness engaged),
  4. --profile --reps=3 --warmup=1 (everything at once)

— and fails unless all four stdouts are byte-identical. Every harness and
profile artifact must ride on stderr or in the --profile JSON; a byte of
drift on stdout means a figure reproduction would depend on how it was
measured.
"""

import os
import subprocess
import sys


def run(binary, *flags):
    env = dict(os.environ, WSNQ_RUNS="2", WSNQ_ROUNDS="20")
    proc = subprocess.run([binary, "--threads=1", *flags],
                          capture_output=True, env=env)
    if proc.returncode != 0:
        print(f"{binary} {' '.join(flags)} exited "
              f"{proc.returncode}:\n{proc.stderr.decode()}", file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def main():
    if len(sys.argv) != 2:
        print("usage: check_bench_stdout_determinism.py BENCH_BINARY",
              file=sys.stderr)
        return 2
    binary = sys.argv[1]
    variants = [
        ("plain", run(binary)),
        ("--profile", run(binary, "--profile")),
        ("--reps=3 --warmup=1", run(binary, "--reps=3", "--warmup=1")),
        ("--profile --reps=3 --warmup=1",
         run(binary, "--profile", "--reps=3", "--warmup=1")),
    ]
    reference_name, reference = variants[0]
    code = 0
    for name, stdout in variants[1:]:
        if stdout != reference:
            print(f"stdout of '{name}' differs from '{reference_name}' "
                  f"({len(stdout)} vs {len(reference)} bytes)",
                  file=sys.stderr)
            code = 1
        else:
            print(f"ok   {name}: stdout byte-identical "
                  f"({len(stdout)} bytes)")
    if code == 0:
        print("bench stdout determinism: all variants byte-identical")
    return code


if __name__ == "__main__":
    sys.exit(main())
