"""Command line entry point.

    mssflow <mode> --config <path> [--force] [--out <dir>]

with mode one of solve, check_hypothesis, density_oracle, exterior.  The
machine-readable summary line on stdout is

    mode=<m> outcome=<o> residual=<r> max_lambda=<lambda>
"""

import argparse
import sys

from . import driver
from .config import MODES, ConfigError, load_config
from .domains import DomainError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mssflow",
        description="Dirichlet solver for the minimal surface system via "
                    "graphical mean curvature flow")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--force", action="store_true",
                        help="run the flow even if the hypothesis check fails")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, mode=args.mode)
        return driver.run(cfg, out_dir=args.out, force=args.force)
    except (ConfigError, DomainError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return driver.EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
