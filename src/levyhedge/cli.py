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
import os
import sys

from . import harness
from .config import load_config


def _out_path(cfg, args, default_name):
    if args.out:
        return args.out
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, default_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levyhedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("qtable", "converge", "pnl"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

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
