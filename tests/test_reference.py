"""The reference semantics builds every channel in bounded memory: the
checks run in a child process under a 2 GiB address-space cap."""
import os
import resource
import subprocess
import sys

import numpy as np

from qarrow import (elaborate_program, eval_program, load_prelude,
                    parse_program, pure_density, run_super)
from qarrow.syntax import ArrowAbs

import randprog
from dense_arrow import apply_super
from helpers import dens_close, random_density
from reference import reference_super


def check_every_channel() -> None:
    """The 12 prelude channels against ``SuperV.val``; GHZ-2..5, whose
    matrices take minutes to build, against ``run_super`` on 3 densities."""
    prelude = load_prelude()
    supers = [d for d in prelude.program.defs if isinstance(d.term, ArrowAbs)]
    assert len(supers) == 12
    for d in supers:
        got = reference_super(d.term, dict(prelude.env)).action
        assert np.max(np.abs(got - prelude.env[d.name].val.action)) <= 1e-12
    rng = np.random.default_rng(5)
    for n, style in ((n, s) for n in range(2, 6) for s in ("proj", "tuple")):
        _, el = elaborate_program(parse_program(randprog.ghz_source(n, style)),
                                  dict(prelude.types))
        ghz = eval_program(el, dict(prelude.env))["ghz"]
        ref = reference_super(el.defs[0].term, dict(prelude.env))
        d = 2 ** n
        for rho in (pure_density(np.eye(d)[0]), random_density(rng, d),
                    random_density(rng, d)):
            assert dens_close(apply_super(ref, rho), run_super(ghz, rho),
                              1e-12)


def test_the_reference_builds_every_channel_within_two_gib():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import test_reference as t; t.check_every_channel()"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                 PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 << 30, 2 << 30)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
