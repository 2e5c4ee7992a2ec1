"""One-pass smoke test of the benchmark harness, with every check on.

    python -m pytest perfbench/test_smoke.py -q

It lives outside ``tests/`` so the tier-1 suite does not pay for the cold
processes it starts (about 30 s in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cold  # noqa: E402
import programs  # noqa: E402
import warm  # noqa: E402
from speed import array_seconds, interpreter_seconds, Speed, WINDOW  # noqa: E402
from tracing import Tracer, self_times, Span, tail  # noqa: E402

from qarrow.stdlib import load_prelude  # noqa: E402


@pytest.fixture(scope="module")
def prelude():
    return load_prelude()


@pytest.fixture
def scratch(request):
    """A fresh directory under the checkout's .bench_out."""
    path = ROOT / ".bench_out" / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["circuits", "prover", "frontend"])
def test_one_pass_passes_its_checks(prelude, workload):
    tr = Tracer(True)
    ops, (reached, built) = warm.build(workload, 7, tr, prelude)
    assert ops and 0 < reached <= built
    for op in ops:
        assert op.check(op.run()), op.label
    assert tr.spans and all(s.end >= s.start for s in tr.spans)


def test_circuit_rows_follow_the_builder(prelude):
    slots = [c.slot for c in programs.circuits(7, prelude)]
    assert slots == list(programs.CIRCUIT_SLOTS)


def test_warm_checks_reject_wrong_outputs(prelude):
    tr = Tracer(False)
    ops, _ = warm.build("circuits", 7, tr, prelude)
    outs = ops[0].run()
    outs[0] = outs[0] + 1e-6
    assert not ops[0].check(outs)
    ops, _ = warm.build("prover", 7, tr, prelude)
    equal = next(op for op in ops if op.label.startswith("beta_arrow"))
    assert not equal.check(ops[-1].run())          # a not-equal verdict


def test_readme_cycle_and_ladder(prelude, scratch):
    c = cold.Cold(scratch, Tracer(False), prelude)
    for entry in cold.CYCLE:
        child = c.run(entry[1])
        assert c.ok(entry, child), (entry[1], child.err[-500:])
        wrong = cold.Child(child.code, 0.0, child.out + b" ", "", 0.0, False)
        assert not c.ok(entry, wrong)
    best, rungs = c.ladder()
    assert best >= 2 and rungs[0][:2] == (2, "ok")


def test_ladder_answers_are_analytic():
    assert cold.ghz_text(2) == (
        b"0.500000+0.000000i 0.000000+0.000000i 0.000000+0.000000i 0.500000+0.000000i\n"
        + b"0.000000+0.000000i " * 3 + b"0.000000+0.000000i\n"
        + b"0.000000+0.000000i " * 3 + b"0.000000+0.000000i\n"
        + b"0.500000+0.000000i 0.000000+0.000000i 0.000000+0.000000i 0.500000+0.000000i\n")
    ghz = programs.ghz_unitary(3)[:, 0]              # the image of |000>
    assert np.allclose(ghz, np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))


def test_self_time_and_tail():
    spans = [Span("a.x", 0.0, 10.0, -1, 1), Span("b.y", 1.0, 4.0, 0, 1),
             Span("c.z", 5.0, 6.0, 0, 1)]
    assert self_times(spans) == [6.0, 3.0, 1.0]
    assert tail(list(range(10))) == (4.5, 50)
    value, pct = tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90)


def test_speed_scales_by_the_median_of_recent_references():
    refs = iter([9.0] + [1.0] * (WINDOW - 1) + [2.0] * WINDOW)
    speed = Speed(lambda: next(refs), nominal=4.0)
    speed.probe()
    assert speed.scale(3.0) == 3.0 * 4.0 / 9.0
    for _ in range(WINDOW - 1):
        speed.probe()
    assert speed.scale(3.0) == 12.0                     # the 9 is outvoted
    for _ in range(WINDOW):
        speed.probe()
    assert speed.scale(3.0) == 6.0                      # the 1s have left
    assert len(speed.readings) == 2 * WINDOW
    assert interpreter_seconds() > 0 and array_seconds() > 0


def test_output_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = bench("--workload", "prover", "--seed", "1", "--seconds", "1",
                    "--trace", trace)
        assert out.returncode == 0, out.stderr[-2000:]
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    out = bench("--workload", "prover", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=scratch)
    assert out.returncode != 0 and out.stdout == ""
