#!/usr/bin/env python3
"""Fail on exported library functions that no shipped binary keeps.

check_reached_headers.py sees whole headers; this gate sees functions.
It builds every non-test binary (fppn_tool, fppn_serve, bench/bench_*,
the examples/ programs and perfbench) at -O0 with -ffunction-sections
-fdata-sections and links them with -Wl,--gc-sections, so the linker
drops every function no binary can call and nothing is inlined away.
An exported function of libfppn.a (`nm` type T, under fppn::) that no
binary still defines is code only the tests run: delete it, move it
to the test side (tests/, or src/testing: fppn::testing:: is excluded
as a whole), or give it a user. ALLOWED lists the few kept on purpose,
each with its reason.
Inline and template code is not exported and not seen.

Run from anywhere: python3 scripts/check_reached_symbols.py
The builds go to build-symbols/ and build-symbols-perfbench/ at the
repository root and are reused on a rerun.

Exit status: 0 when every function is reached, 1 otherwise (each
unreached function is listed, and so is each allow-list entry that a
binary now keeps or the library no longer exports), 2 when a build
fails or an expected binary is missing (a bench-only user would
otherwise look unreached, e.g. on a host without google-benchmark).
"""

import subprocess
import sys
from pathlib import Path

FLAGS = [
    "-G", "Ninja",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Kept although no binary calls them: name -> reason.
ALLOWED = {
    "fppn::operator<<(std::ostream&, fppn::Time const&)":
        "gtest failure messages print Time",
    "fppn::operator<<(std::ostream&, fppn::Duration const&)":
        "gtest failure messages print Duration",
    "fppn::operator<<(std::ostream&, fppn::Rational const&)":
        "gtest failure messages print Rational",
}


def run(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        print(f"command failed: {' '.join(cmd)}")
        sys.exit(2)
    return result.stdout


def build(source, binary_dir, *options):
    run(["cmake", "-S", str(source), "-B", str(binary_dir), *FLAGS, *options])
    run(["cmake", "--build", str(binary_dir), "-j"])


def defined(path):
    """(type, demangled name) of every symbol the file defines."""
    out = run(["nm", "-C", "--defined-only", str(path)])
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            symbols.append((parts[1], parts[2]))
    return symbols


def main():
    root = Path(__file__).resolve().parent.parent
    lib_dir = root / "build-symbols"
    bench_dir = root / "build-symbols-perfbench"
    build(root, lib_dir, "-DFPPN_BUILD_TESTS=OFF")
    build(root / "perfbench", bench_dir)

    binaries = [lib_dir / "fppn_tool", lib_dir / "fppn_serve", bench_dir / "perfbench"]
    binaries += [lib_dir / p.stem for p in sorted((root / "bench").glob("bench_*.cpp"))]
    binaries += [lib_dir / f"example_{p.stem}" for p in sorted((root / "examples").glob("*.cpp"))]
    missing = [str(b.relative_to(root)) for b in binaries if not b.is_file()]
    if missing:
        for name in missing:
            print(f"missing binary: {name}")
        return 2

    exported = {name for kind, name in defined(lib_dir / "libfppn.a")
                if kind == "T" and name.startswith("fppn::")
                and not name.startswith("fppn::testing::")}
    kept = set()
    for binary in binaries:
        kept.update(name for _, name in defined(binary))
    unreached = sorted(exported - kept - ALLOWED.keys())
    # An entry a binary now keeps, or the library no longer exports, goes.
    stale = sorted(name for name in ALLOWED if name in kept or name not in exported)
    for name in unreached:
        print(f"unreached function: {name}")
    for name in stale:
        print(f"stale allow-list entry: {name}")
    print(f"{len(exported)} exported functions, {len(unreached)} unreached, "
          f"{len(ALLOWED)} allowed, {len(binaries)} binaries")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
