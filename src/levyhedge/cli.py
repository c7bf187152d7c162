"""Batch command-line interface.

Subcommands:
  qtable        q versus move size per option (CSV)
  converge      term-by-term convergence report for one option (CSV)
  pnl           per-scenario hedge residuals per strategy (CSV + summary)

Each subcommand takes two flags: ``--config``, the JSON config every
input is read from, and ``--out``, the CSV path (default: ``output.dir``).
Exit code is 0 only if every requested row computed cleanly.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from . import harness
from .config import load_config


def _out_paths(cfg, args) -> tuple:
    """The CSV path and its summary's (only pnl writes one): ``--out`` and
    ``--out`` + ".summary", or <command>.csv and <command>_summary.csv in
    ``output.dir``.  Their directory is made here, before the run, so a
    path that cannot be written fails first."""
    if args.out:
        paths = args.out, args.out + ".summary"
    else:
        paths = tuple(os.path.join(cfg.output_dir, f"{args.command}{suffix}.csv")
                      for suffix in ("", "_summary"))
    os.makedirs(os.path.dirname(paths[0]) or ".", exist_ok=True)
    return paths


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every ``main`` call reads the same one."""
    parser = argparse.ArgumentParser(prog="levyhedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("qtable", "converge", "pnl"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    return parser


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# The ceiling glibc's own adaptive rule can raise the mmap threshold to on
# 64-bit systems; the trim threshold is twice it, as that rule sets it.
_MMAP_THRESHOLD = 32 * 2**20


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed path-sized arrays in the heap, once per process.

    glibc serves a block above its mmap threshold by a fresh mapping and
    returns the top of the heap to the system once more than twice that
    threshold lies free there.  The threshold starts at 128 KiB and rises
    only to the largest mapped block freed so far, so a run whose largest
    arrays are one path-sized column (5e4 paths: 400 KB) keeps it near one
    column: a pair of such temporaries freed together is handed back, and
    the next pair faults fresh pages, or not, as the heap's holes happen to
    fall.  Fixing both thresholds at the values the adaptive rule reaches
    after a 32 MiB array makes every run take the no-fault path.  Elsewhere
    than glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)

    cfg = load_config(args.config)
    path, sum_path = _out_paths(cfg, args)
    ok, summary = True, ""
    if args.command == "qtable":
        header, rows, ok = harness.run_qtable(cfg)
    elif args.command == "converge":
        header, rows = harness.run_converge(cfg)
    else:
        header, rows, sum_header, summaries = harness.run_pnl(cfg)
        harness.write_csv(sum_path, sum_header, summaries)
        summary = f"; summary in {sum_path}"
    harness.write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}{summary}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
