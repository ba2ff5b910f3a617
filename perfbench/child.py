"""Fresh-interpreter probes, started by ``run.py`` with ``src`` on ``PYTHONPATH``.

``child.py setup RULES``
    Prints the seconds from the first ``import urdustem.cli`` to a parsed
    ``RuleSet`` for RULES.
``child.py rss OUT ARG...``
    Runs ``urdustem.cli.main(ARG...)`` once with stdout going to the file
    OUT, and prints a JSON object with the exit code and the process's
    peak resident set size.
"""

import sys
from time import perf_counter


def setup(rules_path: str) -> None:
    t0 = perf_counter()
    import urdustem.cli  # noqa: F401  (the import is what is timed)
    from urdustem.rules import parse_rule_file

    with open(rules_path, "rb") as f:
        parse_rule_file(f.read().decode("utf-8"))
    print(repr(perf_counter() - t0))


def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB (Linux).

    ``getrusage(RUSAGE_SELF).ru_maxrss`` would be the natural source, but
    Linux carries it across ``exec``: a process started by fork-then-exec
    from the benchmark reports the benchmark's own size whenever that is
    larger.  ``VmHWM`` belongs to the image that ``exec`` created.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def rss(out_path: str, argv: list[str]) -> None:
    import contextlib
    import json

    from urdustem import cli

    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps({"exit": code, "peak_rss_mb": peak_rss_mb()}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        rss(sys.argv[2], sys.argv[3:])
