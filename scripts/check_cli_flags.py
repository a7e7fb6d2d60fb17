#!/usr/bin/env python3
"""Checks that documented example and bench invocations use declared flags.

Every `main` under examples/ and bench/ rejects a flag it does not read
(util::run_main), so a stale flag in the README, the CI workflow or a
script is a command that fails.  This script finds each invocation of a
built binary (`./build/examples/quickstart --n 64`, `./bench/bench_lbm
--n 16`, with backslash continuations joined), asks that binary for its
`--help` listing, and reports every flag the listing does not declare.

    python3 scripts/check_cli_flags.py --build build README.md \
        .github/workflows/ci.yml scripts

Binaries whose --help is not the run_main listing (bench_sync is
google-benchmark's main) are skipped.  Exits 1 on a stale flag.
"""
import argparse
import pathlib
import re
import subprocess
import sys

INVOCATION = re.compile(r"(?:^|[\s(])(?:\./)?(?:build/)?(examples|bench)/([a-z_0-9]+)(?=\s|$)")
# Shell tokens that end the binary's argument list.
STOP = re.compile(r"\s(?:\||;|&&|>|<|#)|`|\)|$")
FLAG = re.compile(r"(?:^|\s)--([A-Za-z_][\w-]*)")
DECLARED = re.compile(r"^  --([\w-]+)", re.M)


def declared_flags(binary, cache):
    if binary not in cache:
        cache[binary] = None
        if binary.is_file():
            out = subprocess.run([str(binary), "--help"], capture_output=True,
                                 text=True, timeout=60)
            if out.returncode == 0 and out.stdout.startswith("usage: "):
                cache[binary] = set(DECLARED.findall(out.stdout))
    return cache[binary]


def logical_lines(path):
    """(line number, text) with backslash-continued lines joined."""
    joined, start = "", None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if start is None:
            start = number
        if line.rstrip().endswith("\\"):
            joined += line.rstrip()[:-1] + " "
            continue
        yield start, joined + line
        joined, start = "", None
    if start is not None:
        yield start, joined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, type=pathlib.Path,
                        help="CMake build directory holding examples/, bench/")
    parser.add_argument("paths", nargs="+", type=pathlib.Path,
                        help="files or directories to scan")
    args = parser.parse_args()

    files = []
    for p in args.paths:
        files += sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() \
            else [p]

    cache, checked, stale = {}, 0, []
    for path in files:
        for number, line in logical_lines(path):
            for m in INVOCATION.finditer(line):
                flags = declared_flags(args.build / m.group(1) / m.group(2),
                                       cache)
                if flags is None:
                    continue
                rest = line[m.end():]
                rest = rest[:STOP.search(rest).start()]
                checked += 1
                for flag in FLAG.findall(rest):
                    if flag not in flags:
                        stale.append(f"{path}:{number}: {m.group(2)} does not "
                                     f"declare --{flag}")
    for s in stale:
        print(s)
    print(f"{checked} invocations checked, {len(stale)} stale flags")
    if checked == 0:
        print("no invocation of a built binary found: wrong --build?")
        return 1
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
