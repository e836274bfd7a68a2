"""One quc CLI invocation, measured from inside a fresh Python process.

    python3 child.py RESULT_JSON TRACE CONFIG -- QUC_ARGS...

Set-up is ``import quc.cli`` plus ``parse_config(CONFIG)``; wall time is the
``quc.cli.main(QUC_ARGS)`` call; peak memory is the process's maximum
resident set.  With TRACE=1 the layer seams are wrapped before the call
and the layer metrics and spans are written too.  The result is a JSON
object in RESULT_JSON; quc's own output goes to stdout and stderr.
"""

import json
import resource
import sys
import time


def main(argv):
    result_path, trace, config = argv[0], argv[1] == "1", argv[2]
    quc_args = argv[argv.index("--") + 1:]

    t0 = time.perf_counter()
    import quc.cli
    from quc.config import parse_config
    parse_config(config)
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    t1 = time.perf_counter()
    code = quc.cli.main(quc_args)
    wall_s = time.perf_counter() - t1

    result = {
        "quc_file": quc.__file__,
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing_seams"] = sorted(tracer.missing)
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
