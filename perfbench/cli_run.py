"""Run ``python -m massflat.cli`` and save the process's own peak RSS.

Usage: python perfbench/cli_run.py RSS_OUT <cli args...>

Stdout, stderr and the exit code are the CLI's own; the peak resident set
size (``VmHWM``, in MiB) goes to RSS_OUT.  The parent cannot take it from
``wait4``: a child's ``ru_maxrss`` keeps the high-water mark of the process
that spawned it, here the much larger load process.
"""

import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def main() -> None:
    out_path = sys.argv[1]
    sys.argv = sys.argv[:1] + sys.argv[2:]
    try:
        runpy.run_module("massflat.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_mb()!r}\n")


if __name__ == "__main__":
    main()
