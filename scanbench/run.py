#!/usr/bin/env python3
"""End-to-end scan benchmark: one command builds, runs and checks a workload.

    python3 scanbench/run.py --workload batch_mixed --seed 1 --seconds 10 --trace 0

It builds the library, `decamctl` and the in-process scanner scan_driver.cpp
from source under .bench_build/ at the repository root, makes the seeded
corpus once per seed (cached under .bench_build/scanbench-corpus/), runs
scan_driver, checks its verdicts against the real `decamctl scan --json` on a
subset of the corpus, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the separate traced run. Everything else (provenance,
sample counts, check details, tracing overhead) goes to stderr and to
.bench_build/scanbench-work/<workload>-seed<N>-trace<T>.result.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "scanbench"
CORPORA = ROOT / ".bench_build" / "scanbench-corpus"
WORK = ROOT / ".bench_build" / "scanbench-work"

# workload -> (corpus kind, threads, extra `decamctl scan` flags)
WORKLOADS = {
    "batch_mixed": ("mixed", 4, []),
    "guard_stream": ("stream", 1, ["--short-circuit"]),
    "batch_defended": ("mixed", 4, ["--defense", "median3"]),
}

END_TO_END = ["images_per_s", "image_ms_p50", "image_ms_p95", "accuracy",
              "setup_s", "peak_rss_mb"]
PER_LAYER = [
    "imaging.decode_ms", "imaging.round_trip_ms", "imaging.rank_filter_ms",
    "imaging.kernel_cache_hit_ratio", "signal.spectrum_ms",
    "signal.plan_cache_hit_ratio", "metrics.filtering_ssim_ms",
    "metrics.scaling_mse_ms", "cv.csp_post_ms", "core.defense_apply_ms",
    "core.members_scored_per_image", "runtime.worker_util",
    "runtime.tail_idle_ms",
]

MIN_COVERAGE = 0.95      # traced layer self-times / traced per-image wall
MIN_BEYOND_P95 = 10      # samples above the reported p95
CONFORMANCE_IMAGES = 8   # corpus images re-scanned by decamctl
KEEP_CORPORA = 16        # cached corpora per kind before the oldest go
DRIVER_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    """scan_driver and decamctl run with the library's telemetry and
    thread/SIMD overrides unset, so every run measures the same thing."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DECAM_")}


def run(cmd, **kwargs):
    return subprocess.run(cmd, env=clean_env(), check=True, **kwargs)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    run(["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator], stdout=sys.stderr)
    run(["cmake", "--build", str(BUILD), "-j4", "--target", "scan_driver",
         "decamctl"], stdout=sys.stderr)


def corpus_dir(kind, seed, tiny):
    """The corpus for (kind, seed), generated on first use. The key holds a
    digest of the generator binary, so a rebuilt generator never reuses a
    corpus an older one made."""
    binary = (BUILD / "scan_driver").read_bytes()
    digest = hashlib.sha256(binary).hexdigest()[:12]
    path = CORPORA / f"{kind}-{seed}{'-tiny' if tiny else ''}-{digest}"
    if not (path / "labels.tsv").exists():
        CORPORA.mkdir(parents=True, exist_ok=True)
        stale = sorted((p for p in CORPORA.glob(f"{kind}-*") if p.is_dir()),
                       key=lambda p: p.stat().st_mtime)
        for old in stale[:max(0, len(stale) - KEEP_CORPORA + 1)]:
            shutil.rmtree(old)
        log(f"generating {kind} corpus for seed {seed}")
        run([str(BUILD / "scan_driver"), "generate", "--corpus", kind,
             "--seed", str(seed), "--out", str(path),
             *(["--tiny"] if tiny else [])], stdout=sys.stderr)
        os.sync()  # no writeback of the new corpus during the timed scan
    os.utime(path)
    return path


def conformance_subset(corpus):
    """Up to CONFORMANCE_IMAGES scanned images covering every (label,
    geometry) pair in corpus order, attacks first."""
    rows = [line.split("\t") for line in
            (corpus / "labels.tsv").read_text().splitlines()]
    picked, seen = [], set()
    for label in ("attack", "benign"):
        for file, row_label, width, height, _ in rows:
            key = (row_label, width, height)
            if row_label == label and key not in seen:
                seen.add(key)
                picked.append(str(corpus / file))
    return picked[:CONFORMANCE_IMAGES]


def check_conformance(workload, report, corpus):
    """Scans a subset with the real CLI and returns the mismatches against
    scan_driver's first-pass verdicts and scores (compared as doubles)."""
    _, threads, flags = WORKLOADS[workload]
    files = conformance_subset(corpus)
    proc = subprocess.run(
        [str(BUILD / "decamctl"), "scan", "--json", "--threads", str(threads),
         "--profile", str(WORK / f"{workload}.profile"), *flags, *files],
        env=clean_env(), capture_output=True, text=True)
    if proc.returncode not in (0, 3):
        return [f"decamctl exited {proc.returncode}: {proc.stderr.strip()}"]
    cli = json.loads(proc.stdout)
    cli = cli if isinstance(cli, list) else [cli]
    scanned = {r["file"]: r for r in report["results"]}
    mismatches = []
    for entry in cli:
        ours = scanned[entry["image"]]
        theirs = [d["score"] for d in entry["detectors"]]
        if entry["verdict"] != ours["verdict"] or theirs != ours["scores"]:
            mismatches.append(f"{entry['image']}: decamctl {entry['verdict']} "
                              f"{theirs} vs scan_driver {ours['verdict']} "
                              f"{ours['scores']}")
    if len(cli) != len(files):
        mismatches.append(f"decamctl reported {len(cli)} of {len(files)}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus (smoke test only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        kind = WORKLOADS[args.workload][0]
        corpus = corpus_dir(kind, args.seed, args.tiny)
        WORK.mkdir(parents=True, exist_ok=True)
        proc = run([str(BUILD / "scan_driver"), "run",
                    "--workload", args.workload, "--corpus", str(corpus),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--work", str(WORK),
                    "--seed", str(args.seed)],
                   capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        mismatches = check_conformance(args.workload, report, corpus)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"{getattr(e, 'stderr', None) or ''}scanbench: {e}")
        return 1

    checks = {
        "deterministic": report["deterministic"],
        "conformance": not mismatches,
    }
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        checks["traced_equal"] = report["traced_equal"]
        checks["coverage"] = report["coverage"] >= MIN_COVERAGE
        attempted += report["traced_images"]
        failed += report["traced_failed"]
        wanted, source = PER_LAYER, report["layers"]
    else:
        checks["samples_beyond_p95"] = (report["images_beyond_p95"]
                                        >= MIN_BEYOND_P95)
        wanted, source = END_TO_END, report["metrics"]
    correct = all(checks.values())

    for line in mismatches:
        log(f"conformance mismatch: {line}")
    log(f"provenance: {json.dumps(report['provenance'])}")
    log(f"checks: {json.dumps(checks)}")
    log(f"timed: {report['attempted']} images in {report['passes']} passes, "
        f"{report['images_beyond_p95']} beyond p95, failed_frac "
        f"{report['metrics']['failed_frac']['value']}")
    if args.trace:
        untraced = report["metrics"]["images_per_s"]["value"]
        log(f"traced: {report['traced_images']} images, layer coverage "
            f"{report['coverage']:.4f}, kernel cache base "
            f"{report['kernel_cache_lookups']} lookups, plan cache base "
            f"{report['plan_cache_lookups']} lookups, images/s untraced "
            f"{untraced:.3f} vs traced {report['traced_images_per_s']:.3f}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: source[name] for name in wanted},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["checks"] = checks
    report["conformance_mismatches"] = mismatches
    (WORK / f"{stem}.result.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
