"""Command-line interface: ``python -m repro.bench list|run|compare``.

Examples
--------
List scenarios and suites::

    python -m repro.bench list
    python -m repro.bench list --suite smoke

Run the smoke suite (learner + kNN baseline) and write an artifact::

    python -m repro.bench run --suite smoke --out BENCH_smoke.json

A/B the Step-1 search backends, with per-scenario cProfile dumps::

    python -m repro.bench run --suite scaling --knn-backend jl --profile

Run the opt-in paper-scale suite (scenarios are independent, so a process
pool is safe — records come back in scenario order either way)::

    python -m repro.bench run --suite paper --jobs 4 --out BENCH_paper.json

Fit the million-node tier with the partition-parallel engine (--jobs
becomes the shard-pool width; scenarios run one at a time)::

    python -m repro.bench run --suite huge --engine sharded --parts 16 --jobs 4

Benchmark the serving stack (learn, persist, reload, then answer the same
query set naive / batched / through the asyncio service)::

    python -m repro.bench serve --scenario circuit/medium --queries 512

Benchmark online learning (initial fit, drifting update stream with
versioned registry snapshots, from-scratch refit reference)::

    python -m repro.bench stream --scenario circuit/medium --batches 5

Gate a candidate artifact against a stored baseline (exit code 1 on any
regression beyond the thresholds)::

    python -m repro.bench compare BENCH_main.json BENCH_pr.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro.bench import registry
from repro.bench.baselines import available_baselines
from repro.bench.results import (
    ArtifactError,
    compare,
    load_artifact,
    make_artifact,
    save_artifact,
)
from repro.bench.runner import run_suite
from repro.experiments.reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.bench`` argument parser (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="SGL benchmark harness: scenario registry, timed runner, "
        "JSON artifacts and regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios and suites")
    p_list.add_argument("--suite", default=None, help="restrict to one suite")

    p_run = sub.add_parser("run", help="run scenarios and write a JSON artifact")
    p_run.add_argument("--suite", default=None, help="run every scenario of a suite")
    p_run.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run a single scenario (repeatable; combines with --suite)",
    )
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="artifact path (default: BENCH_<tag>.json)")
    p_run.add_argument("--tag", default=None,
                       help="artifact tag (default: the suite name or 'custom')")
    p_run.add_argument("--repeats", type=int, default=1,
                       help="timed repeats per scenario (default 1)")
    p_run.add_argument("--warmup", type=int, default=0,
                       help="untimed warmup runs per scenario (default 0)")
    p_run.add_argument(
        "--baselines",
        default="knn_baseline",
        help="comma-separated baselines to run alongside SGL "
        f"(default knn_baseline; available: {','.join(available_baselines())}; "
        "'none' disables)",
    )
    p_run.add_argument(
        "--engine",
        choices=("stateless", "incremental", "multilevel", "sharded"),
        default=None,
        help="override SGLConfig.embedding_engine for every scenario "
        "(A/B the warm-started incremental engine and the multilevel "
        "coarsen-solve-refine engine against the recompute-from-scratch "
        "path; 'sharded' selects the partition-parallel ShardedSGLearner "
        "with --parts shards — per-shard embedding engines follow the "
        "scenario settings, and --jobs workers fit shards concurrently; "
        "default: scenario settings)",
    )
    p_run.add_argument(
        "--parts",
        type=int,
        default=4,
        metavar="N",
        help="shards for --engine sharded (default 4; ignored otherwise)",
    )
    p_run.add_argument(
        "--refinement-backend",
        choices=("lobpcg", "inverse-power", "chebyshev"),
        default=None,
        help="override SGLConfig.refinement_backend for every scenario "
        "(A/B the multilevel engine's per-level refinement: preconditioned "
        "LOBPCG, block PINVIT, or mixed-precision Chebyshev-filtered "
        "subspace iteration; only meaningful with --engine multilevel; "
        "default: scenario settings)",
    )
    p_run.add_argument(
        "--linalg-backend",
        choices=("auto", "numpy", "cupy"),
        default=None,
        help="override SGLConfig.linalg_backend for every scenario "
        "(compute backend for the chebyshev filter primitives: 'numpy' "
        "always available, 'cupy' when the GPU stack is importable, "
        "'auto' probes and degrades to numpy; default: scenario settings)",
    )
    p_run.add_argument(
        "--refine-dtype",
        choices=("float32", "float64"),
        default=None,
        help="override SGLConfig.refine_dtype for every scenario (the "
        "chebyshev filter's working precision — acceptance checks always "
        "run in float64; default: scenario settings)",
    )
    p_run.add_argument(
        "--knn-backend",
        choices=("auto", "brute", "kdtree", "jl", "nsw"),
        default=None,
        help="override SGLConfig.knn_backend for every scenario "
        "(A/B the Step-1 search backends: exact KD-tree, blocked-BLAS "
        "brute force, JL-projected search; default: scenario settings)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each scenario once under cProfile and dump "
        "binary stats to <artifact>_profiles/<scenario>.prof",
    )
    p_run.add_argument("--no-memory", action="store_true",
                       help="skip the tracemalloc peak-memory pass")
    p_run.add_argument("--quality-pairs", type=int, default=120,
                       help="node pairs sampled for the resistance metric")
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent scenarios in an N-process pool (records come "
        "back in scenario order with identical quality/graph fields; "
        "co-scheduled wall timings contend for cores — prefer --jobs 1 "
        "for timing baselines)",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="trace every scenario's timed fits with repro.obs: per-scenario "
        "span/metrics/resource artifacts land in DIR (plus a merged "
        "suite_metrics.json; works with --jobs — worker snapshots merge "
        "exactly); inspect with `python -m repro.obs report`",
    )

    p_serve = sub.add_parser(
        "serve",
        help="benchmark the repro.serve stack: save/load a learned artifact, "
        "then measure batched vs naive per-pair query throughput",
    )
    p_serve.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario(s) to learn and serve "
        "(repeatable; default: circuit/tiny and circuit/medium)",
    )
    p_serve.add_argument("--queries", type=int, default=512,
                         help="effective-resistance queries per scenario (default 512)")
    p_serve.add_argument("--batch-size", type=int, default=64,
                         help="pairs per grouped solve / micro-batch (default 64)")
    p_serve.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="micro-batch deadline in ms (default 2)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="service worker threads (default 2)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="query-pair sampling seed (default 0)")
    p_serve.add_argument("--artifact-dir", default=None, metavar="DIR",
                         help="keep the learned .npz artifacts here "
                         "(default: a temporary directory)")
    p_serve.add_argument("--out", default=None, metavar="PATH",
                         help="artifact path (default: BENCH_serving.json)")
    p_serve.add_argument("--tag", default="serving", help="artifact tag")
    p_serve.add_argument("--trace", default=None, metavar="DIR",
                         help="trace the serving paths with repro.obs; "
                         "per-scenario artifacts land in DIR "
                         "(serve_<scenario>.jsonl + metrics/resources)")
    p_serve.add_argument(
        "--load",
        action="store_true",
        help="after the standard three paths, run a load-test sweep: mixed "
        "resistance/neighbors/labels workloads driven closed-loop at each "
        "--concurrency level, one serve_load_c<N> record (qps/p50/p99) per "
        "level",
    )
    p_serve.add_argument(
        "--concurrency",
        default="8,64,512",
        metavar="N,N,...",
        help="comma-separated concurrent-client counts for the --load sweep "
        "(default 8,64,512)",
    )

    p_stream = sub.add_parser(
        "stream",
        help="benchmark repro.stream: incremental update latency and quality "
        "vs a from-scratch refit on a drifting measurement stream",
    )
    p_stream.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario(s) to stream "
        "(repeatable; default: circuit/tiny and circuit/medium)",
    )
    p_stream.add_argument("--batches", type=int, default=5,
                          help="measurement batches to stream (default 5)")
    p_stream.add_argument("--batch-size", type=int, default=None,
                          help="measurements per batch "
                          "(default: a fifth of the initial window)")
    p_stream.add_argument("--mode", choices=("additive", "drift", "shift"),
                          default="drift",
                          help="stream regime (default drift)")
    p_stream.add_argument("--drift-rate", type=float, default=0.02,
                          help="per-batch log-normal weight drift (default 0.02)")
    p_stream.add_argument("--refit-every", type=int, default=0, metavar="N",
                          help="force a full refit after N incremental updates "
                          "(default 0 = only when the detector fires)")
    p_stream.add_argument("--seed", type=int, default=0,
                          help="stream seed (default 0)")
    p_stream.add_argument("--registry-dir", default=None, metavar="DIR",
                          help="publish snapshots into this model registry "
                          "(default: a temporary one)")
    p_stream.add_argument("--out", default=None, metavar="PATH",
                          help="artifact path (default: BENCH_streaming.json)")
    p_stream.add_argument("--tag", default="streaming", help="artifact tag")
    p_stream.add_argument("--trace", default=None, metavar="DIR",
                          help="trace the run with repro.obs; per-scenario "
                          "artifacts land in DIR (stream_<scenario>.jsonl "
                          "+ metrics/resources)")

    p_cmp = sub.add_parser(
        "compare",
        help="diff two artifacts; exit 1 on regressions beyond the thresholds",
    )
    p_cmp.add_argument("baseline", help="reference artifact (e.g. from main)")
    p_cmp.add_argument("candidate", help="artifact under test")
    p_cmp.add_argument("--time-threshold", type=float, default=0.20,
                       help="max relative slowdown of the fastest-repeat wall time "
                       "(default 0.20)")
    p_cmp.add_argument("--quality-threshold", type=float, default=0.05,
                       help="max absolute resistance-correlation drop and max "
                       "relative density growth (default 0.05)")
    return parser


def _cmd_list(args) -> int:
    try:
        names = registry.list_scenarios(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = []
    for name in names:
        spec = registry.get_scenario(name)
        member_of = [s for s in registry.list_suites() if name in registry.list_scenarios(s)]
        rows.append(
            [
                name,
                spec.tier,
                spec.n_measurements,
                f"{spec.noise_level:g}",
                ",".join(member_of) or "-",
                spec.description,
            ]
        )
    print(format_table(
        ["scenario", "tier", "M", "noise", "suites", "description"], rows
    ))
    print(f"\n{len(names)} scenario(s); suites: {', '.join(registry.list_suites())}")
    return 0


def _cmd_run(args) -> int:
    if not args.suite and not args.scenario:
        print("error: provide --suite and/or --scenario", file=sys.stderr)
        return 2
    names: list[str] = []
    try:
        if args.suite:
            names.extend(registry.list_scenarios(args.suite))
        for name in args.scenario or ():
            if name not in names:
                names.append(name)
        specs = [registry.get_scenario(name) for name in names]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    # --engine sharded is a learner selection, not an SGLConfig value: the
    # scenarios keep their per-shard embedding engines and --jobs moves
    # from the scenario pool to the shard pool.
    sharded_parts = None
    shard_jobs = 1
    suite_jobs = args.jobs
    if args.engine == "sharded":
        if args.parts < 1:
            print("error: --parts must be at least 1", file=sys.stderr)
            return 2
        sharded_parts = args.parts
        shard_jobs = args.jobs
        suite_jobs = 1
    sgl_overrides = {}
    if args.engine is not None and args.engine != "sharded":
        sgl_overrides["embedding_engine"] = args.engine
    if args.knn_backend is not None:
        sgl_overrides["knn_backend"] = args.knn_backend
    if args.refinement_backend is not None:
        sgl_overrides["refinement_backend"] = args.refinement_backend
    if args.linalg_backend is not None:
        sgl_overrides["linalg_backend"] = args.linalg_backend
    if args.refine_dtype is not None:
        sgl_overrides["refine_dtype"] = args.refine_dtype
    if sgl_overrides:
        specs = [
            dataclasses.replace(spec, sgl={**spec.sgl, **sgl_overrides})
            for spec in specs
        ]

    baselines: tuple[str, ...] = ()
    if args.baselines and args.baselines.lower() != "none":
        baselines = tuple(name.strip() for name in args.baselines.split(",") if name.strip())
        unknown = set(baselines) - set(available_baselines())
        if unknown:
            print(
                f"error: unknown baseline(s) {sorted(unknown)}; "
                f"available: {available_baselines()}",
                file=sys.stderr,
            )
            return 2

    tag = args.tag or args.suite or "custom"
    out = args.out or f"BENCH_{tag}.json"
    profile_dir = None
    if args.profile:
        out_path = Path(out)
        profile_dir = out_path.with_name(f"{out_path.stem}_profiles")

    def progress(spec, records):
        sgl = records[0]
        print(
            f"  {spec.name:28s} N={sgl.n_nodes:6d}  "
            f"sgl {sgl.mean_seconds:7.3f}s  "
            f"corr={sgl.quality.get('resistance_correlation', float('nan')):.4f}  "
            f"density={sgl.quality.get('density', float('nan')):.3f}"
        )

    print(
        f"running {len(specs)} scenario(s) "
        f"(repeats={args.repeats}, warmup={args.warmup}, "
        f"baselines={list(baselines) or 'none'}, jobs={args.jobs})"
    )
    start = time.perf_counter()
    records = run_suite(
        specs,
        warmup=args.warmup,
        repeats=args.repeats,
        baselines=baselines,
        track_memory=not args.no_memory,
        n_quality_pairs=args.quality_pairs,
        profile_dir=profile_dir,
        trace_dir=args.trace,
        jobs=suite_jobs,
        sharded_parts=sharded_parts,
        shard_jobs=shard_jobs,
        progress=progress,
    )
    elapsed = time.perf_counter() - start

    artifact = make_artifact(
        tag,
        records,
        run_config={
            "suite": args.suite,
            "scenarios": names,
            "repeats": args.repeats,
            "warmup": args.warmup,
            "baselines": list(baselines),
            "track_memory": not args.no_memory,
            "quality_pairs": args.quality_pairs,
            "embedding_engine": args.engine,
            "sharded_parts": sharded_parts,
            "knn_backend": args.knn_backend,
            "refinement_backend": args.refinement_backend,
            "linalg_backend": args.linalg_backend,
            "refine_dtype": args.refine_dtype,
            "profile": str(profile_dir) if profile_dir is not None else None,
            "trace": args.trace,
        },
    )
    path = save_artifact(artifact, out)
    print(f"wrote {len(records)} record(s) to {path} in {elapsed:.1f}s")
    if profile_dir is not None:
        print(f"cProfile dumps in {profile_dir}/ (load with `python -m pstats`)")
    if args.trace is not None:
        merged_path = _merge_suite_metrics(records, args.trace)
        print(
            f"trace artifacts in {args.trace}/ "
            f"(merged metrics: {merged_path}; "
            "inspect with `python -m repro.obs report`)"
        )
    return 0


def _merge_suite_metrics(records, trace_dir) -> Path:
    """Fold every record's per-scenario metrics snapshot into one registry.

    Scenario runs (possibly in ``--jobs`` worker processes) each carry a
    snapshot under ``info["metrics"]``; counters and histograms merge
    exactly, so the suite-level file answers "where did the whole suite's
    time go" regardless of process placement.
    """
    from repro.obs.metrics import MetricsRegistry

    suite = MetricsRegistry()
    for record in records:
        snapshot = record.info.get("metrics")
        if snapshot:
            suite.merge(snapshot)
    return suite.save(Path(trace_dir) / "suite_metrics.json")


def _cmd_serve(args) -> int:
    from repro.bench.serving import run_serve_bench

    scenarios = args.scenario or ["circuit/tiny", "circuit/medium"]
    try:
        for name in scenarios:
            registry.get_scenario(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    load_concurrency = None
    if args.load:
        try:
            load_concurrency = [
                int(level) for level in args.concurrency.split(",") if level.strip()
            ]
            if not load_concurrency or min(load_concurrency) < 1:
                raise ValueError
        except ValueError:
            print(
                "error: --concurrency must be a comma-separated list of "
                "positive integers",
                file=sys.stderr,
            )
            return 2

    def progress(name, records):
        by_method = {record.method: record for record in records}
        naive = by_method["serve_naive"]
        batched = by_method["serve_batched"]
        service = by_method["serve_service"]
        print(
            f"  {name:28s} N={naive.n_nodes:6d}  "
            f"naive {naive.quality['qps']:8.1f} q/s  "
            f"batched {batched.quality['qps']:8.1f} q/s "
            f"({batched.info['speedup_vs_naive']:.1f}x)  "
            f"service {service.quality['qps']:8.1f} q/s "
            f"p99={service.quality['p99_ms']:.2f}ms"
        )
        for record in records:
            if record.method.startswith("serve_load_c"):
                print(
                    f"    load c={record.info['concurrency']:<5d} "
                    f"{record.quality['qps']:8.1f} q/s  "
                    f"p50={record.quality['p50_ms']:.2f}ms  "
                    f"p99={record.quality['p99_ms']:.2f}ms"
                )

    print(
        f"serve bench: {len(scenarios)} scenario(s), "
        f"{args.queries} queries, batch={args.batch_size}, "
        f"deadline={args.max_delay_ms}ms, workers={args.workers}"
    )
    start = time.perf_counter()
    records = run_serve_bench(
        scenarios,
        n_queries=args.queries,
        batch_size=args.batch_size,
        max_delay_ms=args.max_delay_ms,
        workers=args.workers,
        seed=args.seed,
        artifact_dir=args.artifact_dir,
        trace_dir=args.trace,
        load_concurrency=load_concurrency,
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    out = args.out or "BENCH_serving.json"
    artifact = make_artifact(
        args.tag,
        records,
        run_config={
            "scenarios": scenarios,
            "queries": args.queries,
            "batch_size": args.batch_size,
            "max_delay_ms": args.max_delay_ms,
            "workers": args.workers,
            "seed": args.seed,
            "trace": args.trace,
            "load_concurrency": load_concurrency,
        },
    )
    path = save_artifact(artifact, out)
    print(f"wrote {len(records)} record(s) to {path} in {elapsed:.1f}s")
    if args.trace is not None:
        print(
            f"trace artifacts in {args.trace}/ "
            "(inspect with `python -m repro.obs report`)"
        )
    return 0


def _cmd_stream(args) -> int:
    from repro.bench.streaming import run_stream_bench

    scenarios = args.scenario or ["circuit/tiny", "circuit/medium"]
    try:
        for name in scenarios:
            registry.get_scenario(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    def progress(name, records):
        by_method = {record.method: record for record in records}
        update = by_method["stream_update"]
        refit = by_method["stream_refit"]
        print(
            f"  {name:28s} N={update.n_nodes:6d}  "
            f"updates {update.info['n_incremental']}/{update.info['n_updates']} incr  "
            f"mean {1e3 * update.info['mean_update_seconds']:7.1f}ms  "
            f"refit {1e3 * update.info['refit_seconds']:7.1f}ms "
            f"({update.quality['speedup_vs_refit']:.1f}x)  "
            f"corr {update.quality['resistance_correlation']:.3f} "
            f"(refit {refit.quality['resistance_correlation']:.3f})  "
            f"v{update.info['latest_version']}"
        )

    print(
        f"stream bench: {len(scenarios)} scenario(s), "
        f"{args.batches} batches, mode={args.mode}, drift={args.drift_rate}"
    )
    start = time.perf_counter()
    records = run_stream_bench(
        scenarios,
        n_batches=args.batches,
        batch_size=args.batch_size,
        mode=args.mode,
        drift_rate=args.drift_rate,
        max_updates_between_refits=args.refit_every,
        seed=args.seed,
        registry_dir=args.registry_dir,
        trace_dir=args.trace,
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    out = args.out or "BENCH_streaming.json"
    artifact = make_artifact(
        args.tag,
        records,
        run_config={
            "scenarios": scenarios,
            "batches": args.batches,
            "batch_size": args.batch_size,
            "mode": args.mode,
            "drift_rate": args.drift_rate,
            "refit_every": args.refit_every,
            "seed": args.seed,
            "trace": args.trace,
        },
    )
    path = save_artifact(artifact, out)
    print(f"wrote {len(records)} record(s) to {path} in {elapsed:.1f}s")
    if args.trace is not None:
        print(
            f"trace artifacts in {args.trace}/ "
            "(inspect with `python -m repro.obs report`)"
        )
    return 0


def _cmd_compare(args) -> int:
    try:
        baseline = load_artifact(args.baseline)
        candidate = load_artifact(args.candidate)
    except (OSError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(
        baseline,
        candidate,
        time_threshold=args.time_threshold,
        quality_threshold=args.quality_threshold,
    )
    print(report.format())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "compare":
        return _cmd_compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
