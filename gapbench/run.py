"""gapcert benchmark: CLI latency and sweep/chain throughput.

Run from the repository root::

    python3 gapbench/run.py --workload small_corpus --seed 1 --seconds 20 --trace 0

The benchmark writes seeded instance files, then calls
``gapcert.cli.main`` in-process for every operation, so each timing
includes argument parsing, file parsing and rendering.  One pass runs the
workload's fixed operation list over freshly drawn instances; passes
repeat until ``--seconds`` have elapsed.  Every output is checked (see
``checks.py``) after the timed phase.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pass
untraced and traced and prints the per-layer metrics from spans recorded
at gapcert's module boundaries (see ``spans.py``).  The last line
of standard output is one JSON object; a fuller record with provenance,
informational metrics, failures and output digests goes to
``gapbench/out/``.
"""

import os
import sys

# Pinned before numpy is imported; one thread keeps runs steady on a
# shared machine.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "certify_p50_s": "s",
    "sweep_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics every workload exercises (time metrics are never
# structurally zero), plus call counts for the layers only some workloads
# reach.  The self times of perron, cases and estimate_runtime go to the
# result file, because on a workload that skips them they read 0.
PER_LAYER = {
    **{f"layer.{m}.self_s": "s"
       for m in ("cli", "specfile", "paulialg", "spectral", "certifier", "sweep")},
    "cli.main.self_s": "s",
    "cli.render.self_s": "s",
    "specfile.parse_instance.self_s": "s",
    "paulialg.to_matrix.calls": "count",
    "paulialg.to_matrix.self_s": "s",
    "paulialg.HermitianMatrix.calls": "count",
    "paulialg.HermitianMatrix.self_s": "s",
    "spectral.eigensystem.calls": "count",
    "spectral.eigensystem.self_s": "s",
    "spectral.ground_state.self_s": "s",
    "certifier.certify_pair.self_s": "s",
    "certifier.check_condition2.self_s": "s",
    "sweep.sweep_pair.self_s": "s",
    "sweep.refine.calls": "count",
    "sweep.refine.evals": "count",
    "sweep.refine.self_s": "s",
    "sweep.refine.hit_ratio": "ratio",
    "sweep.estimate_runtime.calls": "count",
    "perron.verify_proof_chain_pair.calls": "count",
    "perron.auxiliary_f.calls": "count",
    "perron.primitivity.calls": "count",
    "cases.weight_blocks.calls": "count",
    "cases.certify_block.calls": "count",
    "trace.overhead_s": "s",
}


def load_gapcert():
    """Import gapcert from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gapcert", "cli.py")):
        raise FileNotFoundError(f"gapcert sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import gapcert
    import gapcert.cli

    if not os.path.abspath(gapcert.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gapcert imported from {gapcert.__file__}, not {SRC}")
    return gapcert


def run_op(cli, op: workloads.Op) -> checks.OpResult:
    """One in-process CLI call with stdout/stderr captured and timed."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed operation, reported in full
            error = traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - start
    out_text = None
    if op.out_path is not None and os.path.exists(op.out_path):
        with open(op.out_path, encoding="utf-8") as handle:
            out_text = handle.read()
        os.remove(op.out_path)  # a stale file must not pass the next check
    return checks.OpResult(code, out.getvalue(), err.getvalue(), out_text, seconds, error)


def digest(result: checks.OpResult) -> str:
    h = hashlib.sha256()
    for part in (str(result.code), result.stdout, result.stderr, result.out_text or ""):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "import gapcert.cli"],
        env=env, cwd=ROOT, check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def set_up(cli, name: str, seed: int, work_dir: str) -> tuple[float, list[float]]:
    """Median of repeated set-ups: interpreter + import, generation of the
    first pass's instances, and a warm-up pass on the n = 2 version."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_in_fresh_interpreter()
        workloads.build_workload(name, seed, os.path.join(work_dir, "p0"))
        warm = workloads.build_workload(name, seed, os.path.join(work_dir, "warm"), tiny=True)
        for op in warm.ops:
            run_op(cli, op)
        times.append(time.perf_counter() - start)
    return stats.median(times), times


def timed_phase(gapcert, name: str, seed: int, work_dir: str, seconds: float,
                trace: bool, tracer):
    """Run passes, each over freshly generated instances, until ``seconds``
    have elapsed.  With ``trace``, each pass runs untraced and traced on the
    same instances, alternating which goes first, so the tracing overhead
    is a paired difference."""
    records = []  # (pass index, traced, op, result)
    walls = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        workload = workloads.build_workload(
            name, seed, os.path.join(work_dir, f"p{index}"), pass_index=index
        )
        order = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            restore = spans.install(tracer, gapcert) if traced else None
            try:
                pass_start = time.perf_counter()
                for op in workload.ops:
                    tracer.op = len(records)
                    records.append((index, traced, op, run_op(gapcert.cli, op)))
                walls[traced].append(time.perf_counter() - pass_start)
            finally:
                if restore is not None:
                    restore()
        index += 1
        if time.perf_counter() - start >= seconds:
            return records, walls


def gate(records):
    """Check every operation and digest its output bytes.  An operation run
    twice (untraced and traced) must give the same bytes both times."""
    refs = checks.ReferenceCache()
    failures = []
    digests = {}
    for index, _, op, result in records:
        reason = checks.check(op, result, refs)
        d = digest(result)
        if reason is None and digests.setdefault(op.label, d) != d:
            reason = "output differs between two runs of the operation"
        if reason is not None:
            failures.append({"pass": index, "op": op.label, "reason": reason})
    return failures, digests


def latency_summary(records) -> dict:
    by_kind = defaultdict(list)
    for _, traced, op, result in records:
        if not traced:
            by_kind[op.kind].append(result.seconds)
    out = {}
    for kind, values in sorted(by_kind.items()):
        entry = {"p50_s": stats.median(values), "samples": len(values), "all_s": values}
        tail = stats.tail(values)
        if tail is not None:
            entry["tail_percentile"], entry["tail_s"] = tail
        out[kind] = entry
    return out


def throughput(records, attribute: str):
    """Median over untraced passes of work per second of the operations
    that do that work (``points`` or ``samples``)."""
    per_pass = defaultdict(lambda: [0.0, 0.0])
    for index, traced, op, result in records:
        amount = getattr(op, attribute)
        if not traced and amount:
            per_pass[index][0] += amount
            per_pass[index][1] += result.seconds
    rates = [work / seconds for work, seconds in per_pass.values() if seconds > 0]
    return stats.median(rates) if rates else None


def end_to_end(records, walls, setup_s, peak_rss_mb) -> dict:
    latencies = [r.seconds for _, traced, op, r in records if not traced and op.kind == "certify"]
    return {
        "setup_s": setup_s,
        "wall_s": stats.median(walls[False]),
        "certify_p50_s": stats.median(latencies),
        "sweep_points_per_s": throughput(records, "points"),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, walls) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and everything the spans give."""
    by_name, by_layer, defects = spans.summarize(tracer.spans)
    worst = max(defects.values(), default=0.0)
    if worst > 1e-9:
        raise RuntimeError(f"span self times miss an operation's wall by {worst:.3e}")
    passes = len(walls[True])
    every = {name: value / passes for name, value in sorted(by_name.items())}
    for module in spans.MODULES:
        every[f"layer.{module}.self_s"] = by_layer.get(module, 0.0) / passes
    every["sweep.refine.evals"] = tracer.counts["sweep.refine.evals"] / passes
    refines = by_name.get("sweep.refine.calls", 0.0)
    every["sweep.refine.hit_ratio"] = (
        tracer.counts["sweep.crossings"] / refines if refines else 0.0
    )
    every["trace.overhead_s"] = stats.median(
        [traced - plain for plain, traced in zip(walls[False], walls[True])]
    )
    every["trace.self_sum_defect"] = worst
    reported = {name: every.get(name, 0.0) for name in PER_LAYER}
    return reported, every


def provenance(workload: str, seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == ROOT
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "why": workloads.WORKLOADS[workload],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        gapcert = load_gapcert()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = spans.Tracer()
    try:
        setup_s, setup_runs = set_up(gapcert.cli, args.workload, args.seed, work_dir)
        records, walls = timed_phase(
            gapcert, args.workload, args.seed, work_dir, args.seconds, bool(args.trace), tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, digests = gate(records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = len(records), len(failures)
    e2e = end_to_end(records, walls, setup_s, peak_rss_mb)
    info = {
        "ops_failed_frac": failed / attempted,
        "ops_per_pass": sum(1 for index, *_ in records if index == 0),
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_runs_s": setup_runs,
        "latency": latency_summary(records),
        "chain_samples_per_s": throughput(records, "samples"),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": provenance(args.workload, args.seed),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "info": info,
        "failures": failures,
        "digests": digests,
    }
    if args.trace:
        reported, every = per_layer(tracer, walls)
        result["per_layer"] = every
        metrics = {name: {"value": reported[name], "unit": unit} for name, unit in PER_LAYER.items()}
        with open(os.path.join(OUT, f"{stem}-spans.jsonl"), "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op]) + "\n")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    for failure in failures[:10]:
        print(f"FAILED pass {failure['pass']} {failure['op']}: {failure['reason']}", file=sys.stderr)
    for kind, entry in info["latency"].items():
        tail = (f", p{entry['tail_percentile']:g} {entry['tail_s']:.6f} s"
                if "tail_s" in entry else "")
        print(f"{kind}: p50 {entry['p50_s']:.6f} s{tail} ({entry['samples']} samples)")
    if info["chain_samples_per_s"] is not None:
        print(f"chain_samples_per_s: {info['chain_samples_per_s']:.3f}")
    print(f"ops_failed_frac: {info['ops_failed_frac']:g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
