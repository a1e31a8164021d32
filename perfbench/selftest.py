#!/usr/bin/env python3
"""Self-test of the paging benchmark.

    python3 perfbench/selftest.py [workload ...]

Run from the repository root. Checks, per workload:
  1. A run whose server flips one byte of one PAGEIN reply payload (above
     the wire CRC) reports failed accesses and exits non-zero.
  2. Two runs with the same seed repeat every exact count: vm.faults and
     core.rpcs_per_fault (traced run), wire_bytes_per_fault and
     server_bytes_per_page (untraced run).
  3. A run with a second seed passes the integrity check.
Exits 0 only when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["fft-parity-tcp", "mvec-mirror-tier-tcp", "crash-parity-inproc"]
EXACT = {0: ["wire_bytes_per_fault", "server_bytes_per_page"],
         1: ["vm.faults", "core.rpcs_per_fault"]}


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def main():
    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in sys.argv[1:] or WORKLOADS:
        print(f"== {workload}")
        code, result = run(workload, 11, 0, "--corrupt-pagein")
        check(code != 0 and result is not None and result["failed"] > 0,
              f"corrupted PAGEIN reply fails the run (exit {code}, "
              f"failed {result['failed'] if result else '?'})")
        for trace, names in EXACT.items():
            first = run(workload, 7, trace)
            second = run(workload, 7, trace)
            for name in names:
                values = [r[1]["metrics"][name]["value"] if r[1] else None
                          for r in (first, second)]
                check(first[0] == 0 and second[0] == 0 and values[0] == values[1],
                      f"{name} repeats for the same seed ({values[0]} vs {values[1]})")
        code, result = run(workload, 12345, 0)
        check(code == 0 and result is not None and result["correct"],
              f"second seed passes the integrity check (exit {code})")
    print("self-test passed" if not failures else f"self-test FAILED: {len(failures)} checks")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
