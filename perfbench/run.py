#!/usr/bin/env python3
"""Build and run the cci-lab benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the cci-lab libraries it drives) with CMake under
$CARGO_TARGET_DIR (default .bench_build) in the checkout, runs the harness,
and prints its output.  The last stdout line is the result JSON.  The
deterministic simulated-work counts of every run are kept per seed and
source digest; a later run of the same seed that counts differently is a
failure.  --self-test runs every workload once at tiny size and checks the
metric names it prints against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_LIMIT_S = 175  # a run must end within 180 s


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the harness path."""
    bdir = build_root() / "perfbench-cmake"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=850)
    return bdir / "cci_perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def revision():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(exe, workload, seed, seconds, trace, tiny, digest, rev, limit):
    out_dir = build_root() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir), "--revision", rev, "--digest", digest]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1]), out_dir


def check_counts(lines, result, out_dir, workload, seed, digest):
    """Counts must repeat exactly across runs of one seed and source."""
    counts = next((json.loads(l[len("counts "):]) for l in lines
                   if l.startswith("counts ")), None)
    if counts is None:
        return
    path = out_dir / "counts" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        try:
            prev = json.loads(path.read_text())
        except ValueError:
            prev = {}
        if prev.get("digest") == digest:
            if prev.get("counts") != counts:
                result["failed"] += 1
                result["correct"] = False
                print(f"error deterministic counts differ from an earlier run of seed "
                      f"{seed}: {prev.get('counts')} vs {counts}")
            return
    path.write_text(json.dumps({"digest": digest, "counts": counts}) + "\n")


def self_test(exe, digest, rev):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            try:
                lines, result, _ = run_harness(exe, w["name"], 1, 0.2, trace, True,
                                               digest, rev, RUN_LIMIT_S)
            except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
                problems.append(f"{w['name']} trace {trace}: {e}")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(printed.keys() - declared[trace].keys()):
                problems.append(f"{w['name']} trace {trace}: {name} printed, not declared")
            for name in sorted(declared[trace].keys() - printed.keys()):
                problems.append(f"{w['name']} trace {trace}: {name} declared, not printed")
            for name in sorted(printed.keys() & declared[trace].keys()):
                if printed[name] != declared[trace][name]:
                    problems.append(f"{w['name']} trace {trace}: {name} unit "
                                    f"{printed[name]} vs declared {declared[trace][name]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: not correct: "
                                + "; ".join(l for l in lines if l.startswith("error")))
            print(f"{w['name']} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} operations, {time.monotonic() - t0:.1f} s")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not (ROOT / "src" / "core" / "campaign.hpp").is_file():
        log(f"cci-lab sources not found under {ROOT / 'src'}")
        return 2
    start = time.monotonic()
    try:
        exe = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 3
    digest, rev = source_digest(), revision()
    if args.self_test:
        return self_test(exe, digest, rev)

    # A first run also builds; only the harness itself must fit the limit then.
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 60)
    try:
        lines, result, out_dir = run_harness(exe, args.workload, args.seed, args.seconds,
                                             args.trace, False, digest, rev, limit)
    except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 4
    for line in lines:
        print(line)
    check_counts(lines, result, out_dir, args.workload, args.seed, digest)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
