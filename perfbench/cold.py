"""Cold commands: one fresh ``qarrow`` process per command, one at a time.

Covers the README demo cycle, the GHZ-n ladder and the set-up probe.  Each
child is reaped with ``wait4`` so its own peak RSS is known, and is killed
and reaped when it outlives its time limit.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
README = HERE / "readme"

# The console script's entry point, run the way the installed script runs it.
CLI = [sys.executable, "-c",
       "import sys; from qarrow.cli import main; sys.exit(main())"]
CHILD = [sys.executable, str(HERE / "cli_child.py")]
# The cold commands' speed reference (see ``speed``): no qarrow code runs.
START = [sys.executable, "-c", "import numpy"]

COMMAND_LIMIT_S = 20.0
RUNG_LIMIT_S = 3.0              # per GHZ rung, including interpreter start
LADDER_BUDGET_S = 5.0           # no rung starts after this much ladder time
LADDER = range(2, 13)

# The README demo: (kind, argv, expected stdout file or None, exit code).
# ``emit toffoli`` is not in the README; its output is checked by shape.
CYCLE = [
    ("static", ["check", "demo.qarr"], "check.out", 0),
    ("eval", ["run", "demo.qarr", "mix", "--input", "|0>"], "run_mix.out", 0),
    ("eval", ["run", "demo.qarr", "bell", "--input", "|00>"], "run_bell.out", 0),
    ("eval", ["run", "demo.qarr", "teleport", "--input", "(|000>+|100>)/sqrt2"],
     "run_teleport.out", 0),
    ("static", ["normalize", "demo.qarr", "dneg"], "normalize_dneg.out", 0),
    ("eval", ["prove", "demo.qarr", "dneg", "\\@x. [x]"], "prove_dneg.out", 0),
    ("eval", ["prove", "demo.qarr", "\\@q. let h = Had @ q in Had @ h", "\\@q. [q]"],
     "prove_hadhad.out", 0),
    ("eval", ["prove", "demo.qarr", "Had", "QNot"], "prove_had_qnot.out", 1),
    ("static", ["emit", "demo.qarr", "toffoli", "--invert"], None, 0),
]


@dataclass
class Child:
    code: int                   # exit code; -9 when killed at its limit
    wall: float                 # seconds from spawn to reaping
    out: bytes
    err: str
    rss_mb: float
    timed_out: bool

    def error_class(self) -> str:
        if self.timed_out:
            return "Timeout"
        if "MemoryError" in self.err:
            return "MemoryError"
        last = self.err.strip().splitlines()[-1:] or [f"exit {self.code}"]
        return last[0].split(":")[0][:80]


def spawn(argv: list[str], cwd: Path, limit: float) -> Child:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([fd], [], [], limit)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, out.read(), err.read(),
                     usage.ru_maxrss / 1024, timed_out)


class Cold:
    """Runs cold commands in ``tmp``; when traced, through the replay child,
    adopting its spans under a ``cli.process`` span."""

    def __init__(self, tmp: Path, tracer, prelude):
        self.tmp = tmp
        self.tr = tracer
        self.prelude = prelude
        self.checked: dict[bytes, bool] = {}
        (tmp / "demo.qarr").write_bytes((README / "demo.qarr").read_bytes())
        self.expected = {f: (README / f).read_bytes()
                         for _, _, f, _ in CYCLE if f}

    def run(self, argv: list[str], limit: float = COMMAND_LIMIT_S) -> Child:
        if not self.tr.enabled:
            return spawn(CLI + argv, self.tmp, limit)
        spans = self.tmp / "spans.json"
        spans.unlink(missing_ok=True)
        parent = len(self.tr.spans)
        with self.tr.span("cli.process", argv=argv):
            child = spawn(CHILD + ["replay", str(spans)] + argv, self.tmp, limit)
        if spans.exists():
            self.tr.adopt(json.loads(spans.read_text()), parent)
        return child

    def ok(self, entry, child: Child) -> bool:
        _, argv, expected, code = entry
        if child.code != code:
            return False
        if expected:
            return child.out == self.expected[expected]
        if child.out not in self.checked:
            self.checked[child.out] = toffoli_emit_ok(child.out.decode(),
                                                      self.prelude)
        return self.checked[child.out]

    def ladder(self) -> tuple[int, list[tuple[int, str, float]]]:
        """Climb GHZ-n; return the largest n run correctly and each rung's
        (n, outcome, seconds).  The climb stops at the first rung that errs,
        outlives RUNG_LIMIT_S or prints a wrong density, or once
        LADDER_BUDGET_S is spent."""
        from programs import ghz_source
        best, rungs = 1, []
        t0 = time.perf_counter()
        for n in LADDER:
            if time.perf_counter() - t0 > LADDER_BUDGET_S:
                break
            (self.tmp / "ghz.qarr").write_text(ghz_source("ghz", n, "proj"))
            self.tr.op += 1
            child = self.run(["run", "ghz.qarr", "ghz", "--input", "|" + "0" * n + ">"],
                             RUNG_LIMIT_S)
            if child.code != 0 or child.timed_out:
                outcome = child.error_class()
            elif child.out != ghz_text(n):
                outcome = "wrong output"
            else:
                outcome = "ok"
                best = n
            rungs.append((n, outcome, child.wall))
            if outcome != "ok":
                break
        return best, rungs


def start_seconds(tmp: Path) -> float:
    """Wall time of one reference child, START."""
    child = spawn(START, tmp, COMMAND_LIMIT_S)
    if child.code != 0:
        raise RuntimeError(f"reference child failed: {child.err[-500:]}")
    return child.wall


def setup_seconds(tmp: Path, speed, samples: int, warm_up: bool) -> list[float]:
    """Import the CLI and load the prelude in fresh processes, each time
    scaled by ``speed`` to the nominal host speed; a warm-up process,
    untimed, first fills the bytecode and file caches."""
    times = []
    for i in range(samples + warm_up):
        speed.probe()
        child = spawn(CHILD + ["setup"], tmp, COMMAND_LIMIT_S)
        if child.code != 0:
            raise RuntimeError(f"set-up child failed: {child.err[-500:]}")
        if i or not warm_up:
            times.append(speed.scale(float(child.out)))
    return times


def ghz_text(n: int) -> bytes:
    """``qarrow run`` output for GHZ-n from |0..0>: 0.5 at the four corners."""
    d = 2 ** n
    zero, half = "0.000000+0.000000i", "0.500000+0.000000i"
    inner = " ".join([zero] * (d - 2))
    edge = f"{half} {inner} {half}"
    mid = " ".join([zero] * d)
    return ("\n".join([edge] + [mid] * (d - 2) + [edge]) + "\n").encode()


def toffoli_emit_ok(text: str, prelude) -> bool:
    """``emit toffoli --invert``: a balanced pipeline and an arrow program,
    each calling cV twice, Cnot twice and cVdagger once, the program
    typechecking at Toffoli's type."""
    from programs import qubits_type
    from qarrow.parser import parse_term
    from qarrow.typecheck import elaborate_term, TypeCheckError
    lines = text.splitlines()
    if len(lines) != 2:
        return False
    pipe, inv = lines
    gates = {"cV": 2, "Cnot": 2, "cVdagger": 1}
    if (not pipe.startswith("(>>> ") or pipe.count("(") != pipe.count(")")
            or Counter(re.findall(r"\b(cVdagger|cV|Cnot)\b", pipe)) != gates
            or Counter(re.findall(r"\b(cVdagger|cV|Cnot) @", inv)) != gates):
        return False
    try:
        elaborate_term(prelude.types, parse_term(inv), qubits_type(3))
    except (TypeCheckError, SyntaxError):
        return False
    return True

