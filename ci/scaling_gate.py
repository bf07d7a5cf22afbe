#!/usr/bin/env python3
"""Parse a BENCH_9 report and gate the scaling + scheduler results.

Usage:
    python3 ci/scaling_gate.py BENCH_9.json            # full gate mode
    python3 ci/scaling_gate.py BENCH_9.json --smoke    # structure + booleans only

Both modes print a readable table of the campaign-scaling sweep, the
scheduler sweep (the shared claim cursor on a skewed-cost campaign), and
the large-floorplan sweep (tiled candidate index vs exhaustive scan per
mesh size), then check the report's self-asserted boolean gates
(determinism across jobs, the decision-path advance gate, the
observability overhead gate, the batched-kernel gates, and the tiled
decision-search gate — at least 5x over the exhaustive scan at 32x32).

Gate mode additionally enforces the timing threshold on a multi-core
host: the skewed workload's jobs-4 speedup >= 2.5x. When the report says
the sweep was skipped (host too narrow), the timing gate is skipped with
an explicit log line instead of failing.
"""

import json
import sys


def fail(msg):
    print(f"scaling-gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(ok, msg):
    if not ok:
        fail(msg)
    print(f"scaling-gate: ok: {msg}")


def main():
    args = [a for a in sys.argv[1:] if a != "--smoke"]
    smoke = "--smoke" in sys.argv[1:]
    if len(args) != 1:
        fail("usage: scaling_gate.py BENCH_9.json [--smoke]")

    with open(args[0]) as f:
        report = json.load(f)

    if report.get("bench") != "BENCH_9":
        fail(f"expected a BENCH_9 report, got bench={report.get('bench')!r}")

    scaling = report.get("campaign_scaling")
    sched = report.get("scheduler")
    decision = report.get("decision_path")
    obs = report.get("observability")
    batched = report.get("batched_kernels")
    floorplan = report.get("large_floorplan")
    for name, section in [
        ("campaign_scaling", scaling),
        ("scheduler", sched),
        ("decision_path", decision),
        ("observability", obs),
        ("batched_kernels", batched),
        ("large_floorplan", floorplan),
    ]:
        if not isinstance(section, dict):
            fail(f"report is missing the {name!r} section")

    print(f"campaign scaling: {scaling['config']}")
    if scaling["points"]:
        print(f"  {'jobs':>4}  {'wall (s)':>10}  {'speedup':>8}")
        for p in scaling["points"]:
            print(
                f"  {p['jobs']:>4}  {p['wall_seconds']:>10.3f}"
                f"  {p['speedup_vs_serial']:>7.2f}x"
            )
    else:
        print(f"  (sweep skipped: {scaling.get('sweep_skipped')})")

    print(f"scheduler: {sched['config']}")
    print(f"  skew: {sched['skew']}")
    if sched["points"]:
        print(f"  {'jobs':>4}  {'wall (s)':>10}  {'speedup':>8}")
        for p in sched["points"]:
            print(
                f"  {p['jobs']:>4}  {p['wall_seconds']:>10.3f}"
                f"  {p['speedup_vs_serial']:>7.2f}x"
            )
    else:
        print(f"  (sweep skipped: {sched.get('sweep_skipped')})")
    u = sched["utilization"]
    print(
        f"  busy fraction [jobs={u['jobs']}]:"
        f" min {u['min_busy_fraction']:.2f}"
        f" max {u['max_busy_fraction']:.2f}"
    )
    b8 = batched.get("speedup_at_batch_8")
    b64 = batched.get("speedup_at_batch_64")
    print(f"batched kernels: batch 8 {b8:.2f}x, batch 64 {b64:.2f}x vs serial")

    print(f"large floorplans: {floorplan['setup']}")
    print(
        f"  {'size':>6}  {'cores':>5}  {'exhaustive (ms)':>15}"
        f"  {'tiled (ms)':>10}  {'speedup':>8}  {'epoch (s)':>9}"
    )
    for p in floorplan.get("points", []):
        print(
            f"  {p['size']:>6}  {p['cores']:>5}"
            f"  {p['exhaustive_decision_seconds'] * 1e3:>15.3f}"
            f"  {p['tiled_decision_seconds'] * 1e3:>10.3f}"
            f"  {p['decision_speedup']:>7.2f}x"
            f"  {p['tiled_epoch_seconds']:>9.3f}"
        )
    for s in floorplan.get("skipped", []):
        print(f"  {s['size']:>6}  (skipped: {s['reason']})")

    # Boolean self-gates: checked in both modes. These are asserted by the
    # bench binary itself; re-checking them here catches a stale or
    # hand-edited report.
    check(
        scaling.get("deterministic_across_jobs") is True,
        "campaign export byte-identical across --jobs",
    )
    check(
        decision.get("advance_gate_ok") is True,
        "direct age-curve inversion beats the bisection oracle >= 5x",
    )
    check(
        obs.get("overhead_gate_ok") is True,
        "fleet sketch streaming costs < 2% of campaign wall time",
    )
    check(
        batched.get("batch64_gate_ok") is True,
        "batched kernel composite >= 1.5x at batch 64",
    )
    check(
        isinstance(b8, (int, float)) and b8 >= 1.0,
        f"batch-8 kernel throughput clears serial ({b8:.2f}x >= 1.0x)",
    )
    fp32 = floorplan.get("speedup_at_32x32")
    check(
        floorplan.get("tiled_gate_ok") is True
        and isinstance(fp32, (int, float))
        and fp32 >= 5.0,
        f"tiled decision search >= 5x exhaustive at 32x32 ({fp32:.2f}x)",
    )
    sizes = {p.get("size") for p in floorplan.get("points", [])} | {
        s.get("size") for s in floorplan.get("skipped", [])
    }
    check(
        {"8x8", "16x16", "32x32", "64x64"} <= sizes,
        "large-floorplan sweep records all four mesh sizes",
    )

    if smoke:
        print("scaling-gate: smoke mode, timing gates not enforced — PASS")
        return

    # Timing gates: only meaningful on a host wide enough to run the
    # sweeps. The bench records why it skipped; surface that instead of
    # failing a 1- or 2-core runner on numbers it never measured.
    skipped = scaling.get("sweep_skipped") or sched.get("sweep_skipped")
    if skipped or sched.get("host_parallelism", 0) < 4:
        print(
            "scaling-gate: timing gates SKIPPED:"
            f" {skipped or 'host parallelism below 4'}"
        )
        print("scaling-gate: boolean gates passed — PASS")
        return

    speedup4 = sched.get("speedup_at_4_jobs")
    check(
        isinstance(speedup4, (int, float)) and speedup4 >= 2.5,
        f"skewed-workload speedup at 4 jobs >= 2.5x (got {speedup4:.2f}x)",
    )
    print("scaling-gate: all gates passed — PASS")


if __name__ == "__main__":
    main()
