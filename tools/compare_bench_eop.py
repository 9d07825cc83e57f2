#!/usr/bin/env python3
"""Guard the Eop efficiency benchmark against regressions.

Compares a freshly produced BENCH_eop.json against the checked-in
baseline (bench/baselines/BENCH_eop.baseline.json) and fails (exit 1)
when either

  * the batched Vlasov Eop throughput regressed more than --tolerance
    (default 15%) below the baseline, or
  * the batched path fell below the B = 1 path (the "scalar" keys)
    measured in the same run — the batched kernels must never be a
    pessimization, or
  * the profiler-enabled Vlasov Eop (eop.vlasov_profiled, present in
    current files once bench_eop grew the instrumented column) fell more
    than --max-overhead (default 2%) below the uninstrumented Eop of the
    same run — enabled instrumentation must stay in the noise, or
  * the BGK cost multiplier (cost_multiplier.bgk: Vlasov+BGK time over
    Vlasov time in the same run) exceeds MAX_BGK_MULTIPLIER = 2.0, the
    paper's "collisions roughly double the cost", or
  * the LBO cost multiplier (cost_multiplier.lbo, likewise) exceeds
    MAX_LBO_MULTIPLIER = 3.0: drag plus recovery diffusion plus the
    moment correction, within 3x of the collisionless step.

Absolute Eop numbers are hardware-dependent, so CI runners should
refresh the baseline when the fleet changes; the B = 1-vs-batched
ordering check is hardware-independent.

Usage: tools/compare_bench_eop.py CURRENT.json [--baseline PATH]
       [--tolerance 0.15] [--max-overhead 0.02]

Exit codes: 0 ok, 1 regression, 2 missing/unreadable input file,
3 malformed JSON schema (missing key).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "baselines" / (
    "BENCH_eop.baseline.json"
)
MAX_BGK_MULTIPLIER = 2.0
MAX_LBO_MULTIPLIER = 3.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", type=pathlib.Path, help="BENCH_eop.json from this run")
    ap.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE)
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression of batched Vlasov Eop vs baseline",
    )
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=0.02,
        help="allowed fractional Eop loss with the profiler enabled (same run)",
    )
    args = ap.parse_args()

    # Actionable one-line failures instead of raw tracebacks: a missing
    # file (fresh runner without a baseline, bench that never ran) exits 2,
    # a schema drift (key renamed/removed) exits 3.
    def load(path: pathlib.Path, label: str) -> dict:
        try:
            return json.loads(path.read_text())
        except OSError as e:
            print(
                f"compare_bench_eop: cannot read {label} '{path}': {e.strerror or e} "
                f"(did the benchmark run / is the baseline checked in?)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        except json.JSONDecodeError as e:
            print(
                f"compare_bench_eop: {label} '{path}' is not valid JSON: {e}",
                file=sys.stderr,
            )
            raise SystemExit(2)

    def pick(doc: dict, path: pathlib.Path, *keys: str) -> float:
        node = doc
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                print(
                    f"compare_bench_eop: '{path}' is missing key "
                    f"'{'.'.join(keys)}' — schema drift? regenerate the file "
                    f"with the current bench_eop",
                    file=sys.stderr,
                )
                raise SystemExit(3)
            node = node[k]
        return node

    cur = load(args.current, "current results")
    base = load(args.baseline, "baseline")

    cur_batched = pick(cur, args.current, "eop", "vlasov")
    cur_scalar = pick(cur, args.current, "eop", "vlasov_scalar")
    cur_bgk = pick(cur, args.current, "cost_multiplier", "bgk")
    cur_lbo = pick(cur, args.current, "cost_multiplier", "lbo")
    base_batched = pick(base, args.baseline, "eop", "vlasov")

    failures = []

    floor = base_batched * (1.0 - args.tolerance)
    if cur_batched < floor:
        failures.append(
            f"batched Vlasov Eop regressed: {cur_batched:.3e} < {floor:.3e} "
            f"(baseline {base_batched:.3e}, tolerance {args.tolerance:.0%})"
        )

    if cur_batched < cur_scalar:
        failures.append(
            f"batched path slower than scalar in the same run: "
            f"batched {cur_batched:.3e} < scalar {cur_scalar:.3e}"
        )

    # Same-run instrumentation overhead gate. Conditional on the key so
    # older BENCH_eop.json files (pre-instrumentation schema) still compare
    # cleanly against the new tool.
    cur_profiled = cur.get("eop", {}).get("vlasov_profiled")
    if cur_profiled is not None:
        prof_floor = cur_batched * (1.0 - args.max_overhead)
        if cur_profiled < prof_floor:
            overhead = cur_batched / cur_profiled - 1.0
            failures.append(
                f"profiler-enabled Eop overhead too high: {cur_profiled:.3e} < "
                f"{prof_floor:.3e} ({overhead:.1%} slowdown, allowed "
                f"{args.max_overhead:.0%})"
            )

    if cur_bgk > MAX_BGK_MULTIPLIER:
        failures.append(
            f"BGK cost multiplier too high: {cur_bgk:.2f}x > "
            f"{MAX_BGK_MULTIPLIER:.2f}x the collisionless step"
        )

    if cur_lbo > MAX_LBO_MULTIPLIER:
        failures.append(
            f"LBO cost multiplier too high: {cur_lbo:.2f}x > "
            f"{MAX_LBO_MULTIPLIER:.2f}x the collisionless step"
        )

    speedup = cur_batched / cur_scalar if cur_scalar else float("nan")
    print(f"eop: batched {cur_batched:.3e}  scalar {cur_scalar:.3e}  speedup {speedup:.2f}x")
    if cur_profiled is not None:
        print(f"profiler-enabled {cur_profiled:.3e}  (allowed floor "
              f"{cur_batched * (1.0 - args.max_overhead):.3e})")
    print(f"BGK cost multiplier {cur_bgk:.2f}x  (allowed {MAX_BGK_MULTIPLIER:.2f}x)")
    print(f"LBO cost multiplier {cur_lbo:.2f}x  (allowed {MAX_LBO_MULTIPLIER:.2f}x)")
    print(f"baseline batched {base_batched:.3e}  (floor {floor:.3e})")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("OK: Eop throughput within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
