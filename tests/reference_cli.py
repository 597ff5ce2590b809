"""The argparse parser that `regcov.cli` read its argv with before its flag
table: the reference for `cli._read_argv`, which must read the same fields
from every argv this parser accepts, and refuse every argv it refuses.  Two
differences are by design: `member` takes no `--against`, and a flag is
given by its full name, not by a unique prefix."""

import argparse
import functools


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="regcov",
        description="Decide covering, separation and membership of regular "
                    "languages for the classes at, sigma1, bsigma1, sigma2, fo2, fo.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("cover", "separate", "member", "imprint", "oracle"):
        p = sub.add_parser(name)
        if name == "oracle":
            p.add_argument("--which", required=True,
                           choices=["sigma1-sep", "pt-k", "at"])
        else:
            p.add_argument("--class", dest="cls", help="language class (or 'chain' for imprint)")
        p.add_argument("--alphabet")
        p.add_argument("--target")
        p.add_argument("--against", action="append")
        p.add_argument("--instance", help="JSON instance file")
        if name in ("cover", "separate", "member"):
            p.add_argument("--emit-cover", action="store_true")
            p.add_argument("--verify", action="store_true")
        else:
            p.set_defaults(emit_cover=False, verify=False)
        p.add_argument("--json", action="store_true")
        p.add_argument("--max-elements", type=int)
        p.add_argument("--max-k", type=int)
        p.add_argument("--max-states", type=int)
    return parser
