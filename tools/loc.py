#!/usr/bin/env python3
"""Count non-test Rust source lines, per file and per crate.

A line counts when it is not blank, does not start with `//` (after its
indentation; this drops `//!` and `///` doc lines too), and comes before
the file's first `#[cfg(test)]`. Files are grouped by crate: the directory
under `crates/`, or the first path component for anything else.

    python3 tools/loc.py                          # every crates/*/src file
    python3 tools/loc.py crates/lca crates/units  # files under these paths
    python3 tools/loc.py --crates crates/engine/src/server.rs

Paths are taken relative to the current directory. `--crates` prints only
the per-crate totals and the grand total.
"""

import argparse
import os
import sys
from collections import defaultdict


def count_lines(text):
    """Non-blank, non-`//` lines before the first `#[cfg(test)]`."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#[cfg(test)]"):
            break
        if stripped and not stripped.startswith("//"):
            n += 1
    return n


def rust_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith(".rs"):
                    yield os.path.join(root, name)


def crate_of(path):
    parts = os.path.normpath(path).split(os.sep)
    if len(parts) > 1 and parts[0] == "crates":
        return parts[1]
    return parts[0]


def count(paths):
    """Map file -> count for every `.rs` file under `paths`."""
    result = {}
    for path in rust_files(paths):
        with open(path, encoding="utf-8") as f:
            result[os.path.normpath(path)] = count_lines(f.read())
    return result


def per_crate(files):
    totals = defaultdict(int)
    for path, n in files.items():
        totals[crate_of(path)] += n
    return dict(totals)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", help="files or directories (default: crates/*/src)")
    parser.add_argument("--crates", action="store_true", help="print per-crate totals only")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(
        os.path.join("crates", c, "src") for c in os.listdir("crates")
        if os.path.isdir(os.path.join("crates", c, "src")))
    files = count(paths)
    if not files:
        sys.exit("loc.py: no .rs files under " + " ".join(paths))
    if not args.crates:
        for path in sorted(files):
            print(f"{files[path]:7d}  {path}")
        print()
    for crate, n in sorted(per_crate(files).items()):
        print(f"{n:7d}  {crate}")
    print(f"{sum(files.values()):7d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
