#!/usr/bin/env python3
"""Fail when a src/ file is reached by no program.

The programs are the sources under bench/, examples/ and perfbench/. The
check follows their quoted ``#include`` lines transitively, resolving each
against the including file's directory and then src/. A reached src/
header also reaches the .cpp of the same name beside it, whose includes
are followed in turn. Every src/*.hpp or src/*.cpp outside that closure is
code only tests run; the check names each such file and exits non-zero.

Usage:
  python3 scripts/check_src_reachability.py
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SRC = os.path.join(ROOT, "src")
PROGRAM_DIRS = ("bench", "examples", "perfbench")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_EXTS = (".hpp", ".cpp")


def sources_under(top):
    found = []
    for dirpath, _, names in os.walk(top):
        found += [os.path.join(dirpath, n) for n in names if n.endswith(SOURCE_EXTS)]
    return sorted(found)


def resolve(include, including_file):
    for base in (os.path.dirname(including_file), SRC):
        path = os.path.normpath(os.path.join(base, include))
        if os.path.isfile(path):
            return path
    return None


def closure(roots):
    reached = set()
    stack = list(roots)
    while stack:
        path = stack.pop()
        if path in reached:
            continue
        reached.add(path)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for include in INCLUDE_RE.findall(text):
            target = resolve(include, path)
            if target is not None:
                stack.append(target)
        if path.startswith(SRC + os.sep) and path.endswith(".hpp"):
            impl = path[: -len(".hpp")] + ".cpp"
            if os.path.isfile(impl):
                stack.append(impl)
    return reached


def main():
    roots = []
    for d in PROGRAM_DIRS:
        roots += sources_under(os.path.join(ROOT, d))
    reached = closure(roots)
    unreached = [p for p in sources_under(SRC) if p not in reached]
    for p in unreached:
        print(f"{os.path.relpath(p, ROOT)}: reached by no bench, example or perfbench source")
    if unreached:
        print(f"{len(unreached)} src/ file(s) only tests reach: wire them into a program or delete them")
        return 1
    print(f"all {len(sources_under(SRC))} src/ files are reached from {', '.join(PROGRAM_DIRS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
