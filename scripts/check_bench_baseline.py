#!/usr/bin/env python3
"""Compare a fresh `reproduce --json` run against the committed baseline.

Usage:
  check_bench_baseline.py BASELINE.json CURRENT.json
  check_bench_baseline.py --tune-report TUNE.json

Every algorithm in the suite is implemented in-repo and deterministic,
so per-(algorithm, trace kind) compressed sizes must match the baseline
exactly; any deviation means an engine change altered the emitted
streams and fails the check. Throughput numbers are single passes that
vary with the runner's hardware and are printed for information only;
repeated speed runs with medians and spreads are the end-to-end
benchmark's job (`e2ebench`, declared in BENCHMARK.json).

The `TCgen-fast` and `TCgen-balanced` profile rows are the exception:
their backends are free to improve their encodings, so their sizes are
reported but not enforced. Only the default `--profile max` container
(the `TCgen` row) is golden-pinned.

The --tune-report mode summarizes a `tcgen tune --json` report instead:
it prints the tuned-vs-default compressed-size ratio and the evaluation
spend. The ratio tracks auto-tuner quality over time but depends on the
trace and budget, so this mode is informational and always exits 0 (a
malformed report still fails).
"""

import json
import sys


# Profile rows whose compressed sizes are informational, not enforced:
# only the default max-profile container format is golden-pinned.
SIZE_INFORMATIONAL = {"TCgen-fast", "TCgen-balanced"}


def rows(path):
    with open(path) as f:
        data = json.load(f)
    return {(r["algorithm"], r["trace_kind"]): r for r in data["results"]}


def decompress_deltas(baseline, current):
    """Prints per-algorithm decompress-throughput deltas vs the baseline.

    Informational only: throughput depends on the runner's hardware, so
    a delta never fails the check. The line makes decode-path speedups
    (and regressions) visible in the job log next to the size rows they
    ride with.
    """
    for key in sorted(baseline.keys() & current.keys()):
        b, c = baseline[key], current[key]
        bd, cd = b.get("decompress_mb_per_s"), c.get("decompress_mb_per_s")
        if not bd or not cd:
            continue
        delta = (cd / bd - 1.0) * 100.0
        print(
            f"note {'/'.join(key)}: decompress {cd:.1f} MB/s vs baseline "
            f"{bd:.1f} MB/s ({delta:+.0f}%; informational)"
        )


def tune_report(path):
    with open(path) as f:
        report = json.load(f)
    base = report["base_container_bytes"]
    tuned = report["tuned_container_bytes"]
    final = base if report["used_base"] else tuned
    ratio = final / base if base else 1.0
    print(
        f"tune {path}: base {base} bytes, tuned {tuned} bytes, "
        f"ratio {ratio:.4f} ({report['evals']} evaluations over "
        f"{report['sample_records']} of {report['total_records']} records"
        f"{', kept base spec' if report['used_base'] else ''}; informational)"
    )
    if final > base:
        # The tuner's full-trace guard makes this impossible; reaching it
        # means the report is inconsistent.
        sys.exit(f"FAIL {path}: emitted spec is worse than the base spec")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--tune-report":
        tune_report(sys.argv[2])
        return
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = rows(sys.argv[1])
    current = rows(sys.argv[2])
    failed = False
    for key in sorted(baseline.keys() | current.keys()):
        name = "/".join(key)
        b = baseline.get(key)
        c = current.get(key)
        if b is None or c is None:
            side = "baseline" if b is None else "current run"
            print(f"FAIL {name}: missing from the {side}")
            failed = True
            continue
        if b["compressed_bytes"] != c["compressed_bytes"]:
            if key[0] in SIZE_INFORMATIONAL:
                print(
                    f"note {name}: compressed size {c['compressed_bytes']} differs "
                    f"from baseline {b['compressed_bytes']} (informational profile row)"
                )
                continue
            print(
                f"FAIL {name}: compressed size {c['compressed_bytes']} deviates "
                f"from baseline {b['compressed_bytes']}"
            )
            failed = True
        else:
            print(
                f"ok   {name}: {c['compressed_bytes']} bytes "
                f"({c['compress_mb_per_s']:.1f} MB/s compress, "
                f"baseline {b['compress_mb_per_s']:.1f} MB/s; informational)"
            )
    decompress_deltas(baseline, current)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
