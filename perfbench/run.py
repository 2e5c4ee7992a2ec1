"""The qarrow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a qarrow checkout (it needs ``src/qarrow`` and
``tests/randprog.py``).  Prints a few report lines, then one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run, and the spans
are written to ``.bench_out/trace-W-N.json``.  Workloads, metrics and the
layer-to-metric map are described in ``perfbench/README.md``.
"""

import os

# One client on a 2-core machine: keep numpy's BLAS single-threaded, here
# and in every child, so runs do not race their own helper threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import cold  # noqa: E402
import programs  # noqa: E402
from speed import NOMINAL_START_S, Speed  # noqa: E402
import warm  # noqa: E402
from probes import instrument  # noqa: E402
from tracing import median, self_times, tail, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/qarrow/cli.py", "tests/randprog.py")

# Address-space cap for this process and every child.  A request like the
# 64 GiB np.eye of GHZ-4 then fails as MemoryError inside the cap instead
# of reaching the machine; 2 GiB is ten times the CLI's normal footprint.
ADDRESS_SPACE_CAP = 2 << 30

WORKLOADS = ("cli-cold", "circuits", "prover", "frontend")
MIN_PASSES = 3
# Warm workloads follow each README command (about 0.5 s) with this much
# of warm ops, so about half the window goes to cold commands.
WARM_SLICE_S = 0.5
# Warm ops re-time their host-speed reference this often (see ``speed``).
PROBE_EVERY_S = 0.2
LAYERS = ("cli", "stdlib", "parser", "typecheck", "classic", "syntax",
          "evaluator", "linalg", "rewriter")
VERDICTS = {"proved-by-normalization": "norm", "proved-semantically": "sem",
            "not-equal": "refute"}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 tmp: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.tmp = tmp
        self.tr = Tracer(False)
        self.warm_speed = (Speed(*warm.REFERENCE[workload])
                           if workload in warm.REFERENCE else None)
        self.cold_speed = Speed(lambda: cold.start_seconds(tmp), NOMINAL_START_S)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.memory_errors = 0
        self.lines: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def tally(self, label: str, ok: bool, why: str = "wrong output") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {why}")
            self.memory_errors += why.startswith("MemoryError")

    def warm_op(self, op) -> float:
        """Time one op; check its output after the clock stops."""
        self.tr.op += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:          # a failed op; the run goes on
            dt = time.perf_counter() - t0
            kind = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
            self.tally(op.label, False, f"{kind}: "
                       + traceback.format_exc(limit=-3).replace("\n", " | "))
            return dt
        dt = time.perf_counter() - t0
        try:
            ok, why = op.check(out), "wrong output"
        except Exception as e:
            ok, why = False, f"check raised {e!r}"
        self.tally(op.label, ok, why)
        return dt

    def cold_cmd(self, runner, entry) -> float:
        """Run one README command in a fresh process and check its output;
        returns its wall time scaled to the nominal host speed."""
        self.tr.op += 1
        self.cold_speed.probe()
        child = runner.run(entry[1])
        self.tally(" ".join(entry[1]), runner.ok(entry, child),
                   "wrong output" if child.code in (0, 1) else child.error_class())
        wall = self.cold_speed.scale(child.wall)
        self.cold_walls[entry[0]].append(wall)
        self.raw_walls.append(child.wall)
        self.rss.append(child.rss_mb)
        return wall

    def cold_cycles(self, runner, sched, deadline: float, whole: bool) -> list[float]:
        """README commands until the deadline, at least one whole cycle;
        with ``whole`` the deadline is honoured only between cycles.
        Returns the wall times of the complete cycles."""
        k = len(cold.CYCLE)
        cycles, total, n = [], 0.0, 0
        while not (cycles and time.perf_counter() >= deadline
                   and (n % k == 0 or not whole)):
            total += self.cold_cmd(runner, next(sched))
            n += 1
            if n % k == 0:
                cycles.append(total)
                total = 0.0
        return cycles

    def warm_passes(self, ops, deadline: float, runner=None, sched=None) -> list[float]:
        """Passes over ``ops`` until the deadline, at least MIN_PASSES, ending
        on a pass boundary.  With a ``runner``, a README command goes before
        every WARM_SLICE_S of ops, so cold and warm both sample the whole
        window, and the commands the last cycle still lacks follow the
        passes: every command runs equally often.  A pass's time is the sum of
        its ops' times, each scaled to the nominal host speed by a reference
        timed at most PROBE_EVERY_S of ops before it."""
        passes, total, raw, i, n_cold = [], 0.0, 0.0, 0, 0
        next_cold = time.perf_counter() if runner else math.inf
        next_probe = time.perf_counter()
        while True:
            if time.perf_counter() >= next_probe:
                self.warm_speed.probe()
                next_probe = time.perf_counter() + PROBE_EVERY_S
            if time.perf_counter() >= next_cold:
                self.cold_cmd(runner, next(sched))
                n_cold += 1
                next_cold = time.perf_counter() + WARM_SLICE_S
            op = ops[i]
            dt = self.warm_op(op)
            self.op_times[op.slot].append(dt)
            total += self.warm_speed.scale(dt)
            raw += dt
            i = (i + 1) % len(ops)
            if i == 0:
                passes.append(total)
                self.raw_passes.append(raw)
                total = raw = 0.0
                if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
                    break
        while runner and (n_cold == 0 or n_cold % len(cold.CYCLE)):
            self.cold_cmd(runner, next(sched))
            n_cold += 1
        return passes

    # -- the run -------------------------------------------------------------

    def load(self):
        with self.tr.span("cli.import"):
            import qarrow.cli  # noqa: F401
        with self.tr.span("stdlib.prelude"):
            from qarrow.stdlib import load_prelude
            return load_prelude()

    def run(self) -> dict:
        sched = schedule(random.Random(self.seed))
        self.cold_walls = {"static": [], "eval": []}
        self.rss: list[float] = []
        self.raw_walls: list[float] = []
        self.raw_passes: list[float] = []
        self.op_times: dict = defaultdict(list)
        is_cold = self.workload == "cli-cold"

        self.tr.enabled = self.trace and not is_cold
        prelude = self.load()
        ops, usage = ([], (0, 0)) if is_cold else warm.build(
            self.workload, self.seed, self.tr, prelude)
        self.tr.enabled = False
        runner = cold.Cold(self.tmp, self.tr, prelude)

        if not self.trace:
            setup = cold.setup_seconds(self.tmp, self.cold_speed, 2, warm_up=True)
            deadline = time.perf_counter() + self.seconds
            if is_cold:
                passes = self.cold_cycles(runner, sched, deadline, whole=True)
            else:
                passes = self.warm_passes(ops, deadline, runner, sched)
            setup += cold.setup_seconds(self.tmp, self.cold_speed, 3, warm_up=False)
            ghz = self.ladder(runner)
            return self.end_to_end(setup, passes, ghz)

        half = self.seconds / 2
        if is_cold:
            plain = self.cold_cycles(runner, sched, time.perf_counter() + half, True)
            self.tr.enabled = True
            lo = self.tr.op + 1
            traced = self.cold_cycles(runner, sched, time.perf_counter() + half, True)
            hi = self.tr.op
            self.ladder(runner)
        else:
            plain = self.warm_passes(ops, time.perf_counter() + half)
            self.op_times.clear()
            instrument(self.tr)
            self.tr.enabled = True
            lo = self.tr.op + 1
            traced = self.warm_passes(ops, time.perf_counter() + half)
            hi = self.tr.op
        self.tr.enabled = False
        return self.per_layer(plain, traced, lo, hi, usage)

    def ladder(self, runner) -> int:
        """Rungs run correctly count as ops and a wrong density as a failed
        op; the rung that errs or times out ends the climb and is reported
        with its error class, not counted."""
        best, rungs = runner.ladder()
        for n, outcome, _ in rungs:
            if outcome in ("ok", "wrong output"):
                self.tally(f"ghz ladder n={n}", outcome == "ok")
        self.memory_errors += rungs[-1][1] == "MemoryError"
        self.lines.append(f"ghz ladder (RLIMIT_AS {ADDRESS_SPACE_CAP >> 20} MiB): "
                          + ", ".join(f"n={n} {o} {w:.2f}s" for n, o, w in rungs))
        return best

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, setup: list[float], passes: list[float], ghz: int) -> dict:
        m = {"setup_s": (median(setup), "s")}
        for kind in ("static", "eval"):
            xs = self.cold_walls[kind]
            value, pct = tail(xs)
            m[f"cold_{kind}_p50_s"] = (median(xs), "s")
            m[f"cold_{kind}_tail_s"] = (value, "s")
            self.lines.append(f"cold_{kind}_tail_s is p{pct} of {len(xs)} commands")
        value, pct = tail(passes)
        m["pass_p50_s"] = (median(passes), "s")
        m["pass_tail_s"] = (value, "s")
        self.lines.append(f"pass_tail_s is p{pct} of {len(passes)} passes")
        m["ghz_max_n"] = (ghz, "qubits")
        if self.workload == "cli-cold":
            peak = max(self.rss)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["peak_rss_mb"] = (peak, "MB")
        cs = self.cold_speed.readings
        line = (f"times scaled to the nominal host speed; reference child median "
                f"{median(cs):.4f} s (nominal {NOMINAL_START_S} s, {len(cs)} runs), "
                f"raw cold command median {median(self.raw_walls):.4f} s")
        if self.warm_speed:
            ws = self.warm_speed.readings
            line += (f"; {self.warm_speed.measure.__name__} median "
                     f"{median(ws) * 1e3:.2f} ms (nominal "
                     f"{self.warm_speed.nominal * 1e3:.2f} ms, {len(ws)} runs), "
                     f"raw pass median {median(self.raw_passes):.4f} s")
        self.lines.append(line)
        return m

    def per_layer(self, plain, traced, lo, hi, usage) -> dict:
        spans = self.tr.spans
        own = self_times(spans)
        sel = [i for i, s in enumerate(spans) if lo <= s.op <= hi]
        n = len(traced)

        def dur(s):
            return s.end - s.start

        def per_pass(name, key=None, where=lambda s: True):
            return sum((s.attrs.get(key, 0) if key else dur(s))
                       for s in (spans[i] for i in sel)
                       if s.name == name and where(s)) / n

        m = {f"{layer}.self_s": (sum(own[i] for i in sel
                                     if spans[i].layer == layer) / n, "s")
             for layer in LAYERS}
        m["cli.import_s"] = (median([dur(s) for s in spans if s.name == "cli.import"]), "s")
        m["stdlib.prelude_s"] = (median([dur(s) for s in spans
                                         if s.name == "stdlib.prelude"]), "s")
        if self.workload == "cli-cold":
            mains = [spans[i] for i in sel if spans[i].name == "cli.main"]
            reached = sum(s.attrs.get("reached", 0) for s in mains)
            built = sum(s.attrs.get("built", 0) for s in mains)
            m["stdlib.supers_built"] = (median([s.attrs.get("built", 0) for s in mains]), "count")
        else:
            reached, built = usage
            m["stdlib.supers_built"] = (built, "count")
        m["stdlib.supers_used_ratio"] = (reached / built if built else 0.0, "ratio")
        m["parser.parse_s"] = (per_pass("parser.parse"), "s")
        m["parser.bytes"] = (per_pass("parser.parse", "bytes"), "bytes")
        m["typecheck.elaborate_s"] = (per_pass("typecheck.elaborate"), "s")
        m["classic.translate_s"] = (per_pass("classic.translate"), "s")
        m["classic.inverse_s"] = (per_pass("classic.inverse"), "s")
        m["classic.pipeline_nodes"] = (per_pass("classic.translate", "nodes"), "count")
        m["syntax.pretty_s"] = (per_pass("syntax.pretty"), "s")
        m["evaluator.materialize_s"] = (per_pass("evaluator.materialize"), "s")
        m["evaluator.matrix_cells"] = (per_pass("evaluator.materialize", "cells"), "count")
        m["evaluator.memory_errors"] = (self.memory_errors, "count")
        m["linalg.apply_s"] = (per_pass("linalg.apply"), "s")
        m["linalg.states_applied"] = (per_pass("linalg.apply", "states"), "count")
        for kind, short in VERDICTS.items():
            def is_kind(s, kind=kind):
                return s.attrs.get("kind") == kind
            m[f"rewriter.prove_{short}_s"] = (per_pass("rewriter.prove", where=is_kind), "s")
            m[f"rewriter.decided_{short}"] = (
                sum(1 for i in sel if spans[i].name == "rewriter.prove"
                    and is_kind(spans[i])) / n, "count")
        m["rewriter.steps"] = (
            per_pass("rewriter.prove", "steps")
            + per_pass("rewriter.normalize", "steps",
                       lambda s: s.parent < 0 or spans[s.parent].name != "rewriter.prove"),
            "count")
        for slot in programs.CIRCUIT_SLOTS:
            m[f"circuits.{slot}_s"] = (median(self.op_times[slot])
                                       if self.op_times.get(slot) else 0.0, "s")
        m["trace.overhead_s"] = (median(traced) - median(plain), "s")
        m["trace.spans"] = (len(sel) / n, "count")
        self.lines.append(f"traced {n} passes ({len(sel)} spans), untraced {len(plain)}; "
                          "per-pass self time by layer:")
        for layer in LAYERS:
            self.lines.append(f"  {layer:10s} {m[layer + '.self_s'][0]:.6f} s")
        return m


def schedule(rng: random.Random):
    """README commands forever, each cycle in a fresh seeded order."""
    while True:
        order = cold.CYCLE[:]
        rng.shuffle(order)
        yield from order


def result(bench: Bench, metrics: dict) -> dict:
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not inside a qarrow checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    out = ROOT / ".bench_out"
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        res = result(bench, bench.run())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rate = bench.failed / bench.attempted
    print(f"{args.workload} seed {args.seed}: {bench.attempted} ops, "
          f"{bench.failed} failed, error_rate {rate:.4f}")
    for line in bench.lines + bench.failures[:20]:
        print(line)
    if args.trace:
        path = out / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"result": res, "report": bench.lines,
                       "failures": bench.failures, "spans": bench.tr.dump()}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(res, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
