"""Run one ``bidfm`` command with span tracing on.

Usage: ``python traced_cli.py SPANS_FILE SUBCOMMAND [ARGS...]``.  The spans,
the import time of ``bidfm.cli`` and the tracer's own check results are
written to SPANS_FILE when the command ends; the exit code is the CLI's.
"""
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import bidfm.cli

    import_s = time.perf_counter() - start
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = bidfm.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], {"import_s": import_s})
    sys.exit(code)
