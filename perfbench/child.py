"""Run one ccawalk CLI command in this process and record how long it took.

    python3 child.py RECORD TRACE OP_ID ARGV...

Imports ``ccawalk.cli``, then times ``cli.main(ARGV)`` from "imports done"
to "main returned" in wall (CLOCK_MONOTONIC, comparable with the parent's
spawn timestamp) and process CPU (all threads).  With TRACE=1 it first
wraps each public function at the module attribute through which ``cli``,
``verify`` and ``observables`` call it, keeps one span per call in memory
and adds them to RECORD, a JSON file written when main has returned.  The
exit code is main's; an uncaught exception is recorded and exits 70.
"""

import functools
import json
import sys
import time
import traceback


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _byte_count(text) -> int:
    return len(text.encode("utf-8"))


# module -> {attribute: function computing the span's counts from (args, result)}
TRACED = {
    "cli": {
        "apply_overrides": None,
        "config_from_dict": None,
        "decompose": None,
        "correlation_matrix": None,
        "tpd_series": lambda args, res: {"pts": len(args[2])},
        "render": lambda args, res: {"rows": len(args[3]), "bytes": _byte_count(res)},
        "write_text": lambda args, res: {"bytes": _byte_count(args[0])},
        "run_verification": None,
    },
    "verify": {
        "decompose": None,
        "propagator_columns": None,
        "propagator_matrix": None,
        "correlation_matrix": None,
        "tpd_degree": None,
        "build_two_photon_hamiltonian": lambda args, res: {"dim": res.shape[0]},
        "evolve": None,
        "oracle_correlation": None,
    },
    "observables": {"propagator_columns": None},
}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, counts].

    ``parent_index`` is -1 for a span called directly by ``cli.main``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, package) -> None:
        """Wrap every TRACED attribute the package still has; absent ones read 0."""
        for module_name, attributes in TRACED.items():
            module = getattr(package, module_name)
            for attribute, counter in attributes.items():
                fn = getattr(module, attribute, None)
                if callable(fn):
                    setattr(module, attribute, self._wrap(fn, counter))

    def _wrap(self, fn, counter):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, {}]
            if counter is not None:
                try:
                    self.spans[index][4] = counter(args, result)
                except (TypeError, IndexError, AttributeError):
                    pass  # a changed signature loses the count, never the op
            return result

        return traced


def main() -> int:
    record_path, trace, op_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[4:]
    import ccawalk
    import ccawalk.cli

    record = {"op": op_id, "import_done_ns": now(), "spans": []}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(ccawalk)
    start, cpu_start = now(), time.process_time_ns()
    try:
        code = ccawalk.cli.main(argv)
    except Exception:  # recorded for the parent, which counts the op as failed
        record["exception"] = traceback.format_exc()
        code = 70
    end, cpu_end = now(), time.process_time_ns()
    record.update(start_ns=start, end_ns=end, cpu_ns=cpu_end - cpu_start,
                  exit=code, module_file=ccawalk.__file__)
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
