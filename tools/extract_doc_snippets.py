#!/usr/bin/env python3
"""Extracts fenced ```cpp blocks from a markdown file into numbered .cpp
files so the docs_snippets ctest (tools/doc_snippets.cmake) can compile them
against the library — documented example code that stops compiling fails
tier-1 instead of rotting.

Usage: extract_doc_snippets.py <doc.md> <out-dir>

Every ```cpp block is written as <out-dir>/snippet_NN.cpp. Blocks fenced as
```cpp no-compile are skipped (for deliberate fragments). Prints one path
per extracted snippet.
"""

import os
import re
import sys


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <doc.md> <out-dir>", file=sys.stderr)
        return 2
    doc, out_dir = argv[1], argv[2]
    os.makedirs(out_dir, exist_ok=True)

    with open(doc, encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    snippets = []
    current = None   # list of lines inside a compiled block
    skipping = False  # inside a no-compile block
    for line in lines:
        stripped = line.strip()
        if current is None and not skipping:
            match = re.match(r"^```cpp\s*(.*)$", stripped)
            if match:
                skipping = match.group(1) == "no-compile"
                current = None if skipping else []
            continue
        if stripped == "```":
            if current is not None:
                snippets.append("\n".join(current) + "\n")
            current, skipping = None, False
            continue
        if current is not None:
            current.append(line)

    if not snippets:
        print(f"no ```cpp snippets found in {doc}", file=sys.stderr)
        return 1
    for index, snippet in enumerate(snippets):
        path = os.path.join(out_dir, f"snippet_{index:02d}.cpp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"// extracted from {doc} (snippet {index})\n")
            handle.write(snippet)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
