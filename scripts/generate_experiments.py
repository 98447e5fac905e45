#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: the full paper-vs-measured record.

Runs the complete evaluation grid (7 apps x {standard, nwcache} x
{optimal, naive}) at the paper's data sizes (or ``--scale``) and writes
every table/figure with the paper's numbers alongside, plus a shape
scorecard.

The full 28-cell grid (7 apps x 2 systems x 2 prefetchers) runs through
``repro.core.batch.run_batch``: one forked process per cell, one per
core at a time (``--jobs``), and the content-addressed on-disk result
cache (disable with ``--no-cache``; relocate with ``NWCACHE_CACHE_DIR``).

Usage:
    python scripts/generate_experiments.py [--scale 1.0] [--jobs N]
        [--no-cache] [--out EXPERIMENTS.md]
"""

import argparse
import sys
import time
from pathlib import Path

from repro.apps import APP_NAMES
from repro.core import paper_data, report
from repro.core.batch import grid_specs, run_batch


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: NWCACHE_JOBS or CPUs)")
    ap.add_argument("--no-cache", action="store_true",
                    help="skip the on-disk result cache")
    ap.add_argument("--out", type=Path, default=Path("EXPERIMENTS.md"))
    args = ap.parse_args()

    t_start = time.time()

    def progress(spec, res, cached):
        state = "cache hit" if cached else "ran"
        print(f"  {spec.app:6s} {spec.system:8s} {spec.prefetch:8s} "
              f"({state})", file=sys.stderr)

    specs = grid_specs(
        APP_NAMES, ("standard", "nwcache"), ("optimal", "naive"),
        data_scale=args.scale,
    )
    results = run_batch(
        specs, jobs=args.jobs,
        cache=False if args.no_cache else None,
        progress=progress,
    )
    by_cell = {(s.app, s.system, s.prefetch): r
               for s, r in zip(specs, results)}
    pairs = {
        pf: {
            app: (by_cell[(app, "standard", pf)], by_cell[(app, "nwcache", pf)])
            for app in APP_NAMES
        }
        for pf in ("optimal", "naive")
    }

    opt, nai = pairs["optimal"], pairs["naive"]
    imp_opt = report.improvement_summary(opt, "optimal")
    imp_nai = report.improvement_summary(nai, "naive")

    lines = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w(f"Generated by `python scripts/generate_experiments.py --scale "
      f"{args.scale}` (data sizes at {args.scale:.0%} of Table 2; "
      "Table 1 machine parameters; the paper's best min-free-frames "
      "settings per Section 5).")
    w("")
    w("Absolute numbers are **not** expected to match the paper — our "
      "substrate is the simulator described in DESIGN.md §2, not the "
      "authors' MINT setup — the reproduction target is the *shape*: "
      "who wins, by roughly what factor, and where the crossovers fall.")
    w("")

    w("## Headline (Figures 3 and 4): overall improvement of NWCache")
    w("")
    w("| app | measured, optimal | paper, optimal | measured, naive | paper, naive |")
    w("|---|---|---|---|---|")
    for app in paper_data.APP_ORDER:
        p3 = paper_data.FIG3_IMPROVEMENT_OPTIMAL_PCT[app]
        p4 = paper_data.FIG4_IMPROVEMENT_NAIVE_PCT[app]
        w(
            f"| {app} | {imp_opt[app]:.0f}% | "
            f"{'%.0f%%' % p3 if p3 is not None else '>28% (text)' if app != 'em3d' else '23%'} | "
            f"{imp_nai[app]:.0f}% | {'%.0f%%' % p4 if p4 is not None else '—'} |"
        )
    avg_opt = sum(imp_opt.values()) / len(imp_opt)
    avg_nai = sum(imp_nai.values()) / len(imp_nai)
    w("")
    w(f"Measured averages: **{avg_opt:.0f}%** under optimal prefetching "
      f"(paper: {paper_data.FIG3_AVERAGE_PCT:.0f}%), **{avg_nai:.0f}%** "
      "under naive.")
    w("")

    for pf, title in (("optimal", "Table 3"), ("naive", "Table 4")):
        w(f"## {title}: average swap-out times ({pf} prefetching)")
        w("")
        w("```")
        w(report.table_swapout(pairs[pf], pf))
        w("```")
        w("")
    for pf, title in (("optimal", "Table 5"), ("naive", "Table 6")):
        w(f"## {title}: write combining ({pf} prefetching)")
        w("")
        w("```")
        w(report.table_combining(pairs[pf], pf))
        w("```")
        w("")

    w("## Table 7: NWCache victim-cache hit rates")
    w("")
    w("```")
    w(report.table_hit_rates(
        {a: nai[a][1] for a in APP_NAMES},
        {a: opt[a][1] for a in APP_NAMES},
    ))
    w("```")
    w("")
    w("## Table 8: disk-cache-hit fault latency (naive prefetching)")
    w("")
    w("```")
    w(report.table_disk_hit_latency(nai))
    w("```")
    w("")
    for pf, fig in (("optimal", 3), ("naive", 4)):
        w(f"## Figure {fig}: execution-time breakdown ({pf} prefetching)")
        w("")
        w("```")
        w(report.figure_breakdown(pairs[pf], pf))
        w("```")
        w("")

    w("## Shape scorecard")
    w("")
    checks = []

    def check(name, ok, detail):
        checks.append((name, ok, detail))

    ratios_opt = [opt[a][0].swapout_mean / opt[a][1].swapout_mean
                  for a in APP_NAMES]
    check(
        "Swap-outs 1–3+ orders of magnitude faster (optimal, Table 3)",
        all(r > 10 for r in ratios_opt),
        f"measured ratios {min(ratios_opt):.0f}x–{max(ratios_opt):.0f}x",
    )
    ratios_nai = [nai[a][0].swapout_mean / nai[a][1].swapout_mean
                  for a in APP_NAMES]
    check(
        "Swap-outs far faster under naive too (Table 4)",
        all(r > 2 for r in ratios_nai),
        f"measured ratios {min(ratios_nai):.0f}x–{max(ratios_nai):.0f}x",
    )
    comb = [(opt[a][1].combining.mean - opt[a][0].combining.mean)
            for a in APP_NAMES]
    check(
        "NWCache combining >= standard on average (Table 5)",
        sum(comb) >= 0,
        f"mean gain {sum(comb) / len(comb):+.2f}",
    )
    check(
        "Gauss has the top victim hit rate; Em3d/Radix near the bottom (Table 7)",
        opt["gauss"][1].ring_hit_rate
        >= max(opt["em3d"][1].ring_hit_rate, opt["radix"][1].ring_hit_rate),
        f"gauss {opt['gauss'][1].ring_hit_rate:.0%}, "
        f"em3d {opt['em3d'][1].ring_hit_rate:.0%}, "
        f"radix {opt['radix'][1].ring_hit_rate:.0%}",
    )
    dhl = [(nai[a][0].disk_hit_latency, nai[a][1].disk_hit_latency)
           for a in APP_NAMES]
    check(
        "NWCache lowers disk-cache-hit latency on average (Table 8)",
        sum(n for _, n in dhl) <= sum(s for s, _ in dhl),
        f"mean {sum(s for s, _ in dhl) / 7 / 1e3:.1f}K -> "
        f"{sum(n for _, n in dhl) / 7 / 1e3:.1f}K pcycles",
    )
    nofree_std = sum(opt[a][0].breakdown["nofree"] /
                     sum(opt[a][0].breakdown.values()) for a in APP_NAMES) / 7
    nofree_nwc = sum(opt[a][1].breakdown["nofree"] /
                     sum(opt[a][0].breakdown.values()) for a in APP_NAMES) / 7
    check(
        "NoFree dominates the standard machine under optimal prefetching "
        "and largely disappears with the NWCache (Figure 3)",
        nofree_std > 0.25 and nofree_nwc < 0.5 * nofree_std,
        f"std {nofree_std:.0%} of exec -> nwc {nofree_nwc:.0%}",
    )
    gauss_sor_nofree = (
        opt["gauss"][0].breakdown_fractions()["nofree"],
        opt["sor"][0].breakdown_fractions()["nofree"],
    )
    check(
        "NoFree especially significant for Gauss and SOR (Figure 3 text)",
        all(f > nofree_std * 0.8 for f in gauss_sor_nofree),
        f"gauss {gauss_sor_nofree[0]:.0%}, sor {gauss_sor_nofree[1]:.0%}",
    )
    fault_nai = sum(nai[a][0].breakdown_fractions()["fault"]
                    for a in APP_NAMES) / 7
    check(
        "Execution dominated by page faults under naive prefetching (Figure 4)",
        fault_nai > 0.3,
        f"mean std fault share {fault_nai:.0%}",
    )
    check(
        "Improvements much larger under optimal than naive prefetching "
        "(Discussion)",
        avg_opt > avg_nai + 10,
        f"{avg_opt:.0f}% vs {avg_nai:.0f}%",
    )
    check(
        "Gauss is the best case under naive prefetching (Figure 4: 42%)",
        imp_nai["gauss"] == max(imp_nai.values()),
        f"gauss {imp_nai['gauss']:.0f}%",
    )

    for name, ok, detail in checks:
        w(f"- {'**PASS**' if ok else '**DEVIATION**'} — {name}: {detail}")
    w("")
    w("## Known deviations")
    w("")
    w("- Our overall improvements under optimal prefetching overshoot the "
      "paper's for the near-fitting workloads (gauss especially): with the "
      "Table 1 ratios, memory + ring can hold almost the whole working "
      "set, so the NWCache machine nearly stops touching the disks. The "
      "paper sits closer to the fit boundary (hit rate 58% vs our higher "
      "values). Direction and ordering match; magnitude is amplified.")
    w("- Em3d's optimal-prefetch hit rate exceeds the paper's ~10% because "
      "our driver's value pages are re-read faster than real Em3d's; its "
      "naive-prefetch hit rate and low-improvement character match.")
    w("- Table 8 reductions are smaller than the paper's 24–63% — our "
      "aggregated cache-miss traffic loads the I/O nodes' buses less than "
      "the paper's block-grain coherence traffic did.")
    w("")
    w(f"_Total generation time: {time.time() - t_start:.0f}s; "
      f"{sum(p.events_processed for d in pairs.values() for pr in d.values() for p in pr):,} "
      "simulation events._")
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
