#!/usr/bin/env python3
"""Build the benchmark from source and run it (see perfbench/README.md).

    python3 perfbench/run.py --workload inject --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py selftest        # golden perturbation + metric-name contract
    python3 perfbench/run.py record --workload exec   # re-record a golden

Run from anywhere; everything is read and written inside the checkout
that holds this file: the build in _build/, scratch files in
.bench_build/perfbench/.  The benchmark's own output (last line: one JSON
object) goes to standard output; build output goes to standard error.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library, CLI and benchmark sources, for the fingerprint."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s next to the benchmark: run it from a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                       cwd=ROOT, stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")
    os.makedirs(WORK, exist_ok=True)


def bench(args, capture=False):
    argv = [EXE] + args + ["--work", WORK, "--golden", os.path.join(ROOT, "perfbench", "golden"),
                           "--commit", commit(), "--source-digest", source_digest()]
    if capture:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(argv, cwd=ROOT)


def check_contract():
    """Both kinds of run print exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        r = bench(["--workload", "exec", "--seed", "1", "--seconds", "2", "--trace", trace],
                  capture=True)
        last = json.loads(r.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in last["metrics"].items()}
        same = r.returncode == 0 and last["correct"] and want == got
        print("selftest %s metrics match BENCHMARK.json: %s" % (key, "ok" if same else "FAILED"))
        if not same:
            print("  missing %s, extra %s, other units %s" % (
                sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(n for n in want if n in got and want[n] != got[n])))
        ok = ok and same
    return ok


def main():
    build()
    if sys.argv[1:2] == ["selftest"]:
        r = bench(["selftest"])
        sys.exit(0 if r.returncode == 0 and check_contract() else 1)
    sys.exit(bench(sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
