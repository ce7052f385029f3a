"""framedhom benchmark: one seeded workload, timed end to end, optionally traced.

    python3 bench/run.py --workload {algebra,words,mod2,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a framedhom checkout; it imports the library from
``src`` and writes scratch files and traces under ``.bench_out``.  One
process serves one workload as a closed loop with a single client: each op
starts when the previous one has returned.  The timed phase lasts
``--seconds`` and runs on until at least 100 ops have finished.  Every result
is checked after the timed phase (see ``workloads`` and ``checks``).

Standard output ends with two JSON lines: the run's metadata, then the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, from a run whose first
half runs without spans and whose second half records them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every workload is single-threaded: an OpenBLAS thread pool, started when
# numpy is imported, would compete for the machine's two cores.  Children
# (cli calls, probes, set-up samples) inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
MIN_OPS = 100
SETUP_SAMPLES = 5  # this process plus four fresh set-up-only processes
# The machine's speed drifts by up to 1.6x over seconds to minutes (other
# tenants on the host).  The drift slows a fixed task (the workload's probe)
# about as much as the ops, so op timings are reported in reference seconds:
# wall time times the probe's reference time over its time measured just
# before the op (see workloads.Probe).  Set-up is mostly imports and files,
# so each set-up sample is scaled by the cold-start probe taken next to it.
LAYERS = ("paut", "theta", "kernel", "words", "moves", "framing", "bruteforce", "cli")
CLI_COMMANDS = ("arf", "theta", "kernel-test", "lift", "factor-sp", "act", "match", "stratum")


def process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


@dataclass
class Phase:
    latencies: array = field(default_factory=lambda: array("d"))  # reference seconds
    raw: array = field(default_factory=lambda: array("d"))  # wall-clock seconds
    probes: list = field(default_factory=list)
    wall: float = 0.0  # wall-clock seconds of the phase, probes left out
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)


def run_phase(workload, seconds: float, min_ops: int, first: dict, runs: dict, errors: list,
              tracer=None) -> Phase:
    """Closed loop over the pool from its head for `seconds` and at least `min_ops` ops.

    The first result of every pool op is kept in `first` for the checks;
    later results must equal it.  Each op's wall time is scaled to reference
    seconds by the probes taken between ops just before it.
    """
    pool = workload.pool
    probe = workload.probe
    phase = Phase(probes=[probe.fn() for _ in range(probe.window)])
    n = len(pool)
    start = last_probe = time.perf_counter()
    deadline = start + seconds
    probe_s = 0.0
    i = 0
    while True:
        k = i % n
        op = pool[k]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.fn(*op.args)
            else:
                tracer.op_id = i
                res = tracer.call(op.name, op.fn, *op.args)
        except Exception:  # an op that raises is a failed op; the loop goes on
            t1 = time.perf_counter()
            phase.failed += 1
            errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        else:
            t1 = time.perf_counter()
            if k not in first:
                first[k] = res
            elif res != first[k]:
                phase.failed += 1
                errors.append(f"{op.label}: result differs from the op's first result")
        runs[k] = runs.get(k, 0) + 1
        phase.raw.append(t1 - t0)
        scale = probe.ref_s / median(phase.probes[-probe.window:])
        phase.latencies.append((t1 - t0) * scale)
        i += 1
        if t1 >= deadline and i >= min_ops:
            break
        if t1 - last_probe >= probe.every_s:
            phase.probes.append(probe.fn())
            last_probe = time.perf_counter()
            probe_s += last_probe - t1
    phase.wall = t1 - start - probe_s
    return phase


def check_first_results(pool, first: dict, runs: dict, errors: list) -> int:
    """Failed ops: every run of a pool op whose first result fails its check."""
    failed = 0
    for k, res in first.items():
        try:
            ok = pool[k].check(res)
        except Exception:  # a check that raises counts the op as wrong
            ok = False
            errors.append(f"{pool[k].label}: check raised {traceback.format_exc(limit=3)}")
        if not ok:
            failed += runs[k]
            errors.append(f"{pool[k].label}: wrong result")
    return failed


def setup_samples(args, probe) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes that only set up, each after a probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    walls, probes = [], []
    for _ in range(SETUP_SAMPLES - 1):
        probes.append(probe.fn())
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        walls.append(float(proc.stdout.split()[-1]))
    return walls, probes


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float, failed: int) -> dict:
    lat = phase.latencies
    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1e3 * median(lat),
        "op_p90_ms": 1e3 * quantiles(lat, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_ok_ratio": (phase.ops - failed) / phase.ops,
    }


def per_layer(summary: dict, counts: dict, generate_s: float, untraced: Phase,
              traced: Phase) -> dict:
    """Layer figures of the traced phase; a layer the workload never calls reads 0."""
    p50, busy = summary["p50"], summary["busy_share"]

    def ms(name: str) -> float:
        return 1e3 * p50.get(name, 0.0)

    def us(name: str) -> float:
        return 1e6 * p50.get(name, 0.0)

    def count(name: str, key: str, fn=max) -> float:
        values = [c[key] for c in counts.get(name, ())]
        return fn(values) if values else 0

    out = {
        "paut.factor_sp.ms_p50": ms("paut.factor_sp"),
        "paut.factor_sp.busy_share": busy.get("paut.factor_sp", 0.0),
        "paut.factor_sp.len_p50": count("paut.factor_sp", "len", median),
        "paut.factor_sp.len_max": count("paut.factor_sp", "len"),
        "paut.factor_sp.exp_bits_max": count("paut.factor_sp", "exp_bits"),
        "paut.compose.us_p50": us("paut.compose"),
        "paut.compose.busy_share": busy.get("paut.compose", 0.0),
        "paut.entry_bits_max": max(count("paut.factor_sp", "entry_bits"),
                                   count("paut.compose", "entry_bits")),
        "theta.theta.small_ms_p50": 1e3 * summary["p50_by_cls"].get(("theta.theta", "small"), 0.0),
        "theta.theta.large_ms_p50": 1e3 * summary["p50_by_cls"].get(("theta.theta", "large"), 0.0),
        "theta.theta.busy_share": busy.get("theta.theta", 0.0),
        "theta.q_hat.us_p50": us("theta.q_hat"),
        "theta.v_kappa_star.us_p50": us("theta.v_kappa_star"),
        "kernel.kernel_test.ms_p50": ms("kernel.kernel_test"),
        "kernel.lift_transvection.us_p50": us("kernel.lift_transvection"),
        "kernel.structure_report.ms_p50": ms("kernel.structure_report"),
        "words.word_to_paut.ms_p50": ms("words.word_to_paut"),
        "words.act_framing.ms_p50": ms("words.act_framing"),
        "words.delta_word.ms_p50": ms("words.delta_word"),
        "words.act_rel.us_p50": us("words.act_rel"),
        "moves.match_framings.us_p50": us("moves.match_framings"),
        "moves.match_framings.moves_p50": count("moves.match_framings", "moves", median),
        "framing.arf.us_p50": us("framing.arf"),
        "bruteforce.enumerate_sp2.ms_p50": ms("bruteforce.enumerate_sp2"),
        "bruteforce.enumerate_sp2.order": count("bruteforce.enumerate_sp2", "order"),
        "bruteforce.theta_table.ms_p50": ms("bruteforce.theta_table"),
        "bruteforce.check_theta_edges.ms_p50": ms("bruteforce.check_theta_edges"),
        "bruteforce.kernel_order_mod2.ms_p50": ms("bruteforce.kernel_order_mod2"),
        "bruteforce.qform_census.ms_p50": ms("bruteforce.qform_census"),
        "bruteforce.verify_qhat_crossed.ms_p50": ms("bruteforce.verify_qhat_crossed"),
        "bruteforce.busy_share": summary["layer_busy_share"].get("bruteforce", 0.0),
        "sampling.generate_s": generate_s,
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.untraced_op_p50_ms": 1e3 * median(untraced.latencies),
        "trace.traced_op_p50_ms": 1e3 * median(traced.latencies),
        "trace.overhead_share": untraced.ops_per_s / traced.ops_per_s - 1,
    }
    for name in ("word_to_paut", "act_framing", "delta_word", "act_rel"):
        out[f"words.{name}.busy_share"] = busy.get(f"words.{name}", 0.0)
    for command in CLI_COMMANDS + ("rejected",):
        out[f"cli.{command}.ms_p50"] = ms(f"cli.{command}")
    for layer in LAYERS:
        out[f"{layer}.self_share"] = summary["layer_self_share"].get(layer, 0.0)
    return out


def run_metadata(args, ops: int, pool_len: int, timed: Phase, setup: list[float],
                 setup_probes: list[float], fail_ratio: float) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "framedhom").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "ops": ops,
        "pool_ops": pool_len,
        "op_p90_samples": timed.ops,
        "op_fail_ratio": fail_ratio,
        # wall-clock figures, before scaling to reference seconds
        "probe_ms": 1e3 * median(timed.probes),
        "wall_ops_per_s": timed.ops / timed.wall,
        "wall_op_p50_ms": 1e3 * median(timed.raw),
        "wall_op_p90_ms": 1e3 * quantiles(timed.raw, n=10)[8],
        "setup_samples_s": setup,  # wall-clock
        "setup_probe_ms": [1e3 * p for p in setup_probes],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "words", "mod2", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "framedhom" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a framedhom checkout (needs src/framedhom and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from workloads import WORKLOADS

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        setup_s = process_age()
        if args.setup_only:
            print(setup_s)
            return 0
        return measure(args, spec, workload, setup_s)
    finally:
        workload.close()
        if work.exists() and not any(work.iterdir()):
            work.rmdir()


def measure(args, spec: dict, workload, own_setup_s: float) -> int:
    from workloads import COLD_PROBE

    pool = workload.pool
    setup, setup_probes = [own_setup_s], []
    if not args.trace:
        setup_probes.append(COLD_PROBE.fn())  # just after this process's set-up
    first: dict = {}
    runs: dict = {}
    errors: list[str] = []
    if args.trace:
        from spans import Tracer

        half = args.seconds / 2
        min_ops = max(workload.round_len, MIN_OPS // 2)
        untraced = run_phase(workload, half, min_ops, first, runs, errors)
        # counters come from the first round only, which every traced phase
        # completes, so they repeat exactly for a given seed
        tracer = Tracer(counted_ops=workload.round_len)
        with tracer.installed():
            traced = run_phase(workload, half, min_ops, first, runs, errors, tracer)
        phase_failed = untraced.failed + traced.failed
        attempted = untraced.ops + traced.ops
        timed = traced
    else:
        timed = run_phase(workload, args.seconds, max(MIN_OPS, workload.round_len), first, runs,
                          errors)
        phase_failed = timed.failed
        attempted = timed.ops
    peak_rss_mb = workload.peak_rss_mb()
    failed = min(attempted, phase_failed + check_first_results(pool, first, runs, errors))

    if args.trace:
        summary, counts = tracer.summary(traced.wall, pool)
        extra = workload.traced_extra() if workload.traced_extra else {}
        names = spec["per_layer"]
        # cold-start and verify figures come from the cli workload only
        values = {m["name"]: 0 for m in names if m["name"].startswith(("cli.", "verify."))}
        values.update(per_layer(summary, counts, workload.generate_s, untraced, traced))
        values.update(extra)
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json.gz", pool)
    else:
        walls, probes = setup_samples(args, COLD_PROBE)
        setup += walls
        setup_probes += probes
        setup_s = median(w * COLD_PROBE.ref_s / p for w, p in zip(setup, setup_probes))
        values = end_to_end(timed, setup_s, peak_rss_mb, failed)
        names = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in names}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    for line in errors[:5]:
        print(line, file=sys.stderr)
    meta = run_metadata(args, attempted, len(pool), timed, setup, setup_probes,
                        failed / attempted)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
