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


def _out_path(cfg, args, default_name):
    if args.out:
        return args.out
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, default_name)


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

    if args.command == "qtable":
        header, rows, ok = harness.run_qtable(cfg)
        path = _out_path(cfg, args, "qtable.csv")
        harness.write_csv(path, header, rows)
        print(f"wrote {len(rows)} rows to {path}")
        return 0 if ok else 1

    if args.command == "converge":
        header, rows = harness.run_converge(cfg)
        path = _out_path(cfg, args, "converge.csv")
        harness.write_csv(path, header, rows)
        print(f"wrote {len(rows)} rows to {path}")
        return 0

    header, rows, sum_header, summaries = harness.run_pnl(cfg)
    path = _out_path(cfg, args, "pnl.csv")
    harness.write_csv(path, header, rows)
    sum_path = _out_path(cfg, args, "pnl_summary.csv") if not args.out else args.out + ".summary"
    harness.write_csv(sum_path, sum_header, summaries)
    print(f"wrote {len(rows)} rows to {path}; summary in {sum_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
