"""Traced CLI process for the ``cli_cold`` workload.

Usage: ``python3 cli_child.py SPANS_OUT SPAWNED_AT COMMAND FILE``.  Records
interpreter start-up from ``SPAWNED_AT`` (the parent's ``perf_counter`` when
it started the process; the clock is system-wide), times ``import
liftspectra.cli``, installs the same span wrappers as the library workloads
(plus ``cli.load_instance`` and the ``cmd_*`` handlers), runs
``liftspectra.cli.main`` and writes its spans to ``SPANS_OUT`` on exit.
"""

from time import perf_counter

STARTED = perf_counter()

import sys  # noqa: E402

from tracing import Recorder, install  # noqa: E402


def main() -> int:
    spans_out, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    rec = Recorder()
    rec.spans.append(("cli.interpreter_start", spawned_at, STARTED, -1, 0))
    idx = rec.open("cli.import")
    import liftspectra.cli as cli

    rec.close(idx)
    extra = [("cli.load_instance", cli.load_instance)] + [
        ("cli.command", getattr(cli, name)) for name in dir(cli) if name.startswith("cmd_")
    ]
    install(rec, extra)
    idx = rec.open("cli.main")
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        rec.close(idx)
        rec.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
