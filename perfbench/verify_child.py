"""Child process of cold_verify: one suite as `coxshuffle verify` runs it.

    python3 perfbench/verify_child.py <suite>
    python3 perfbench/verify_child.py --import-only

Runs ``coxshuffle.cli`` as ``python -m coxshuffle.cli verify <suite>`` would
(``runpy``, the module run as ``__main__``), with its report captured, or
with ``--import-only`` only imports ``coxshuffle.cli``.  Timed with
``speed.Speed`` from the script's first statement to the CLI's return (or
the import's end), scaled by a reference sampled every 50 ms on this
process's thread.  The interpreter's own start-up, the same for any Python
program, is left out, and nothing but ``sys`` and ``speed`` is imported
before the timing starts.  The last line of standard output is one JSON
object: exit code, report, scaled and raw seconds, kernel backend.
"""

import sys

from speed import Speed

speed = Speed()
start = speed.mark()
speed.start()


def main() -> None:
    import io
    import json

    code, report = None, ""
    if sys.argv[1] == "--import-only":
        import coxshuffle.cli  # noqa: F401

        code = 0
    else:
        import runpy

        sys.argv = ["coxshuffle", "verify", sys.argv[1]]
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            runpy.run_module("coxshuffle.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash: no report, counted as a failed op
            import traceback

            traceback.print_exc()
        finally:
            report, sys.stdout = sys.stdout.getvalue(), out
    speed.stop()
    end = speed.mark()
    import coxshuffle

    print(json.dumps({
        "code": code, "report": report,
        "scaled_s": speed.scaled(start, end), "raw_s": speed.raw(start, end),
        "kernel_backend": getattr(coxshuffle, "KERNEL_BACKEND", "none")}))


if __name__ == "__main__":
    main()
