"""nadp benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload {release,privacy,sweep} --seed N \
        --seconds S --trace {0,1}

Inputs are generated from the seed by ``perfbench/gen.py`` in a child
process, so this process's peak RSS belongs to the workload alone. The
library is imported from ``src/`` next to this directory; the run fails
without printing a result when it is missing.

``--trace 0`` times ops back to back for about S seconds of op time, and
never fewer than the workload's ``min_ops`` (each op starts when the
previous one ends; checks run between ops, outside the timed interval), and
reports the end-to-end metrics. ``--trace 1`` runs the same
loop with spans around every nadp call, then one traced op of each other
workload so that every layer has spans, then the loop again untraced to
measure tracing overhead; it reports the per-layer metrics and writes the
spans to ``perfbench/work/traces/``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from spans import Tracer, maxrss_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import nadp; print(time.perf_counter() - t)"
)
CHILD_TIMEOUT_S = 170


def die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import nadp from this checkout's src/, never from elsewhere."""
    if not (SRC / "nadp" / "__init__.py").is_file():
        die(f"no nadp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nadp

    if Path(nadp.__file__).resolve().parent != (SRC / "nadp").resolve():
        die(f"imported nadp from {nadp.__file__}, not from {SRC}")


def blas_record() -> dict:
    """BLAS library and thread count, asked of the OpenBLAS numpy loaded."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    record["threads"] = fn()
                    return record
    return record


def l3_bytes() -> int | None:
    text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        raw = text.read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(raw[:-1]) * units[raw[-1]] if raw[-1] in units else int(raw)


def environment(workload: str) -> dict:
    import numpy as np
    import scipy

    from gen import DIM, N_FULL, N_PRIVACY

    n = N_PRIVACY if workload == "privacy" else N_FULL
    l3 = l3_bytes()
    matrix = n * DIM * 8
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "matrix_bytes": matrix,
        "l3_bytes": l3,
        # kNN reads this matrix once per 1024-row block; when it fits in L3
        # the kNN figures are compute-bound, not a memory-bandwidth claim
        "matrix_fits_l3": None if l3 is None else matrix < l3,
    }


def generate_inputs(seed: int, out: Path) -> tuple[dict, dict[str, Path]]:
    """Run gen.py in a child; returns its manifest and the input paths."""
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--seed", str(seed), "--out", str(out)],
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest, {name: out / name for name in manifest}


def import_seconds() -> float:
    """nadp import time in a fresh interpreter: the set-up every CLI call pays."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(proc.stdout)


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    durations: list[float] = field(default_factory=list)  # every op attempted
    elapsed: float = 0.0  # timed wall time

    def __add__(self, other: "Loop") -> "Loop":
        return Loop(
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.durations + other.durations,
            self.elapsed + other.elapsed,
        )

    @property
    def ops_per_s(self) -> float:
        """Ops that passed their check, per second of timed wall time."""
        return (self.attempted - self.failed) / self.elapsed


def more_ops(loop: Loop, seconds: float, min_ops: int, cycle: int) -> bool:
    """Whether a closed loop starts another op: until `min_ops` ran and the
    count is a multiple of `cycle`, then while one more cycle at the mean op
    time so far is predicted to end within `seconds` of op time."""
    if loop.attempted < min_ops or loop.attempted % cycle:
        return True
    return loop.elapsed * (1 + cycle / loop.attempted) <= seconds


def run_loop(wl, seconds: float, min_ops: int, first_op: int = 0, cycle: int = 1) -> Loop:
    """Closed loop: ops back to back for about `seconds` of op time (see
    `more_ops`). Checks run between ops, outside the timed interval."""
    loop = Loop()
    tr = wl.tr
    while more_ops(loop, seconds, min_ops, cycle):
        i = first_op + loop.attempted
        tr.op = i
        res = None
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{wl.name}"):
                res = wl.op(i)
        except Exception:
            traceback.print_exc()
        dt = time.perf_counter() - t0
        tr.op = None
        loop.attempted += 1
        loop.elapsed += dt
        loop.durations.append(dt)
        errs = ["op raised"] if res is None else guarded(wl.check, i, res)
        if errs:
            loop.failed += 1
            for e in errs:
                print(f"FAIL {wl.name} op {i}: {e}", file=sys.stderr)
    return loop


def guarded(fn, *args) -> list[str]:
    """A check's failures; a check that raises fails with its traceback."""
    try:
        return fn(*args)
    except Exception:
        return [traceback.format_exc()]


def per_layer(tr, own: str, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, preferring the run's own workload."""
    from workloads import KINDS

    med = statistics.median

    def spans(name, **match):
        found = tr.select(name, own, **match)
        if not found:
            raise LookupError(f"no {name} span {match or ''}")
        return found

    def dur(name, **match):
        return med(s["end"] - s["start"] for s in spans(name, **match))

    def mb_per_s(name):
        return med(s["bytes"] / 1e6 / (s["end"] - s["start"]) for s in spans(name))

    def count(name, key):
        # counts repeat exactly across ops of one input; take the first
        return spans(name)[0][key]

    def rss_rise_mb(name):
        return max(s["rss_after_kb"] - s["rss_before_kb"] for s in spans(name)) / 1024

    knn_spans = spans("graph.knn")
    # computed, not counted: 2 n^2 d flops for the Gram products
    gflops = med(
        2.0 * s["n"] ** 2 * s["d"] / (s["end"] - s["start"]) / 1e9 for s in knn_spans
    )
    m = {
        "embeddings.load_s": (dur("embeddings.load_embeddings"), "s"),
        "embeddings.load_mb_per_s": (mb_per_s("embeddings.load_embeddings"), "MB/s"),
        "embeddings.save_s": (dur("embeddings.save_embeddings"), "s"),
        "embeddings.save_mb_per_s": (mb_per_s("embeddings.save_embeddings"), "MB/s"),
        "graph.knn_s": (dur("graph.knn"), "s"),
        "graph.knn_gflops": (gflops, "GFLOP/s"),
        "graph.knn_rss_rise_mb": (rss_rise_mb("graph.knn"), "MB"),
        "graph.build_graph_s": (dur("graph.build_graph"), "s"),
        "graph.edges": (count("graph.build_graph", "edges"), "count"),
        "graph.rank_queries_s": (dur("graph.rank_queries", replay=True), "s"),
        "components.build_partition_s": (dur("components.build_partition"), "s"),
        "components.k": (count("components.build_partition", "k"), "count"),
        "components.singleton_words": (
            count("components.build_partition", "singleton_words"), "count"
        ),
        "calibration.solve_u_star_s": (dur("calibration.solve_u_star", replay=True), "s"),
        "mechanisms.perturber_partition_s": (dur("mechanisms.Perturber.partition"), "s"),
        "mechanisms.perturber_density_sets_s": (
            dur("mechanisms.Perturber.density_sets"), "s"
        ),
        "mechanisms.zero_noise_words": (
            count("mechanisms.perturb.nadp", "zero_noise_words"), "count"
        ),
        "privacy.privacy_report_s": (dur("privacy.privacy_report"), "s"),
        "privacy.rss_rise_mb": (rss_rise_mb("privacy.privacy_report"), "MB"),
        "utility.word_similarity_s": (dur("utility.word_similarity_eval"), "s"),
        "utility.sts_s": (dur("utility.sts_eval"), "s"),
        "utility.odd_man_s": (dur("utility.odd_man_eval"), "s"),
        "cli.perturb_s": (dur("cli.main", command="perturb"), "s"),
        "cli.eval_privacy_s": (dur("cli.main", command="eval-privacy"), "s"),
        "trace.overhead_ops_per_s": (overhead, "1/s"),
    }
    for kind in KINDS:
        m[f"mechanisms.{kind}_perturb_s"] = (dur(f"mechanisms.perturb.{kind}"), "s")
    return m


# rows of the stage table in ROADMAP.md, in its order: (label, span name)
STAGES = (
    ("load_embeddings", "embeddings.load_embeddings"),
    ("knn", "graph.knn"),
    ("build_graph", "graph.build_graph"),
    ("build_partition", "components.build_partition"),
    ("nadp_perturb", "mechanisms.perturb.nadp"),
    ("laplacian_perturb", "mechanisms.perturb.laplacian"),
    ("mahalanobis_perturb", "mechanisms.perturb.mahalanobis"),
    ("privacy_report(m=10)", "privacy.privacy_report"),
    ("save_embeddings", "embeddings.save_embeddings"),
)


def stage_table(tr, own: str) -> list[str]:
    """Markdown table of median stage times, one row per STAGES entry."""
    lines = ["| stage | n | median s | spans | from workload |", "|---|---|---|---|---|"]
    for label, name in STAGES:
        found = tr.select(name, own)
        if not found:
            continue
        ns = ",".join(str(n) for n in sorted({s["n"] for s in found}))
        secs = statistics.median(s["end"] - s["start"] for s in found)
        src = ",".join(sorted({s["workload"] for s in found}))
        lines.append(f"| `{label}` | {ns} | {secs:.3f} | {len(found)} | {src} |")
    return lines


def measure_e2e(wl, seconds: float) -> tuple[Loop, dict, list[str]]:
    """Untraced run: set-up several times, then the timed loop."""
    problems: list[str] = []
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    warm = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        warm.append(time.perf_counter() - t0)
    problems += guarded(wl.validate_setup)
    loop = run_loop(wl, seconds, wl.min_ops, cycle=wl.cycle)
    peak_mb = maxrss_kb() / 1024
    problems += guarded(wl.cross_check)
    print(
        f"e2e {wl.name}: {loop.attempted} ops in {loop.elapsed:.2f} s timed, "
        f"error_rate {loop.failed}/{loop.attempted}, import_s "
        f"{statistics.median(imports):.3f}, warm_s {statistics.median(warm):.3f}"
    )
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(warm), "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_s.p50": (statistics.median(loop.durations), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return loop, metrics, problems


def measure_layers(wl, seconds: float, others: list) -> tuple[Loop, dict, list[str]]:
    """Traced run: the workload's own loop, one traced op of each of
    `others` so every layer has spans, then the own loop untraced."""
    tr = wl.tr
    problems: list[str] = []
    wl.setup()
    problems += guarded(wl.validate_setup)
    total = traced = run_loop(wl, seconds, wl.min_ops, cycle=wl.cycle)
    wl.replay()
    problems += guarded(wl.cross_check)
    for other in others:
        tr.workload = other.name
        other.setup()
        problems += guarded(other.validate_setup)
        total += run_loop(other, 0, min_ops=other.coverage_ops)
        other.replay()
        problems += guarded(other.cross_check)
    tr.workload = wl.name
    tr.enabled = False
    plain = run_loop(
        wl, seconds, wl.min_ops, first_op=traced.attempted, cycle=wl.cycle
    )
    total += plain
    try:
        metrics = per_layer(tr, wl.name, traced.ops_per_s - plain.ops_per_s)
    except LookupError as exc:
        die(f"traced run is missing a layer: {exc}")
    print(f"stage table ({wl.name} trace, seed {wl.seed}):")
    print("\n".join(stage_table(tr, wl.name)))
    return total, metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="nadp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest, inputs = generate_inputs(args.seed, work / "inputs")
        env = environment(args.workload)
        print("env", json.dumps(env, sort_keys=True))
        print("inputs", json.dumps(manifest, sort_keys=True))
        tracer = Tracer(enabled=bool(args.trace))
        tracer.workload = args.workload
        wl = WORKLOADS[args.workload](inputs, work, args.seed, tracer)
        if args.trace:
            others = [
                cls(inputs, work, args.seed, tracer)
                for name, cls in WORKLOADS.items()
                if name != args.workload
            ]
            loop, metrics, problems = measure_layers(wl, args.seconds, others)
        else:
            loop, metrics, problems = measure_e2e(wl, args.seconds)
        try:
            counts = wl.counts()
        except Exception:
            counts = {}
            problems.append(f"{wl.name} counts: {traceback.format_exc()}")
        if args.trace:
            tracer.write(
                WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
                env=env, inputs=manifest, counts=counts,
                metrics={k: v for k, (v, _) in metrics.items()},
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("counts", json.dumps(counts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
