"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py MANIFEST RESULTS

The manifest names the package's source directory, the CLI calls to make and
whether to trace.  Each call goes through ``hyperlab.cli.main(argv)`` with
stdout captured, one after another.  The results file gets the moment the
calls could start (``time.monotonic``, comparable with the parent's clock on
Linux), each call's exit code, seconds and output, and the per-layer metrics
when tracing.  Nothing is shared between rounds: module-level caches start
empty, as they do for every CLI user.
"""

import sys
import time


def main() -> int:
    manifest_path, results_path = sys.argv[1:3]
    import contextlib
    import io
    import json
    from pathlib import Path

    import hyperlab.cli

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = Path(manifest["src"]).resolve()
    if src not in Path(hyperlab.__file__).resolve().parents:
        print(f"hyperlab was imported from {hyperlab.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if manifest["trace"]:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    ready = time.monotonic()

    calls = []
    for argv in manifest["calls"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = hyperlab.cli.main(argv)
        except Exception as exc:  # a call that raises is a failed op, not a failed round
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        calls.append({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                      "error": error or err.getvalue()[-500:]})

    result = {"ready": ready, "calls": calls}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unmeasured"] = tracer.missing()
        tracer.write_spans(manifest["spans"])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
