"""A fresh process for the cold workloads; ``run.py`` starts it.

    python3 perfbench/cli_child.py setup
        import qarrow's CLI and load the prelude; print the seconds taken
    python3 perfbench/cli_child.py replay SPANS.json ARGV...
        run ``qarrow ARGV...`` as the console script would, with spans
        around the public functions it calls, and write them to SPANS.json

Untraced cold commands do not go through this file: they run the console
script's own entry point, ``qarrow.cli.main``.
"""

import sys
import time


def targets(argv: list[str]) -> list[str]:
    """The definitions or inline terms a CLI command works on."""
    cmd, rest = argv[0], [a for a in argv[1:] if not a.startswith("--")]
    if cmd == "run":
        return rest[1:2]
    return {"check": [], "prove": rest[1:3]}.get(cmd, rest[1:2])


def replay(spans_path: str, argv: list[str]) -> int:
    import traceback

    from probes import instrument, prelude_usage
    from tracing import Tracer

    tr = Tracer(True)
    code, usage = 1, {}
    try:
        with tr.span("cli.import"):
            import qarrow.cli as cli
            from qarrow.parser import parse_program
            from qarrow.stdlib import load_prelude
        instrument(tr)
        with tr.span("cli.main") as usage:
            code = cli.main(argv)
    except Exception:               # what the console script would print
        traceback.print_exc()
    sys.stdout.flush()
    if code in (0, 1) and not any("error" in s.attrs for s in tr.spans):
        with open(argv[1], encoding="utf-8") as fh:
            user = {d.name: d.term for d in parse_program(fh.read()).defs}
        reached, built = prelude_usage(load_prelude(), targets(argv), user)
        usage.update(reached=reached, built=built)
    tr.write(spans_path)
    return code


def main() -> int:
    if sys.argv[1] == "setup":
        t0 = time.perf_counter()
        import qarrow.cli  # noqa: F401
        from qarrow.stdlib import load_prelude
        load_prelude()
        print(repr(time.perf_counter() - t0))
        return 0
    return replay(sys.argv[2], sys.argv[3:])


if __name__ == "__main__":
    sys.exit(main())
