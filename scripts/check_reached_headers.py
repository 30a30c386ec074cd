#!/usr/bin/env python3
"""Fail on library headers that no user of the library includes.

A header under src/ is reached when some file outside tests/ includes
it: a source file under src/ other than the header's own .cpp, or a
file under tools/, bench/, examples/ or perfbench/src/. A header that
only its own .cpp and the tests include is code nothing runs, a deletion
candidate. Includes are the quoted `#include "dir/file.hpp"` form,
resolved against src/ or the including file's directory.

Run from anywhere: python3 scripts/check_reached_headers.py

Exit status: 0 when every header is reached, 1 otherwise (each
unreached header is listed relative to src/).
"""

import re
import sys
from pathlib import Path

USER_DIRS = ("src", "tools", "bench", "examples", "perfbench/src")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    headers = {path.resolve() for path in src.rglob("*.hpp")}
    reached = set()
    for user_dir in USER_DIRS:
        for path in sorted((root / user_dir).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE_RE.findall(text):
                for base in (src, path.parent):
                    target = (base / name).resolve()
                    if target in headers and target != path.with_suffix(".hpp").resolve():
                        reached.add(target)
                        break
    unreached = sorted(str(h.relative_to(src)) for h in headers - reached)
    for name in unreached:
        print(f"unreached header: {name} (included only by its own .cpp and tests/)")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
