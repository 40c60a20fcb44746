#!/usr/bin/env python3
"""Markdown link checker; the docs_links ctest runs it on README.md,
DESIGN.md and docs/.

Walks the given markdown files/directories and verifies every inline link
`[text](target)`:

  * relative file targets must exist (resolved against the linking file's
    directory), and a `#fragment` on a markdown target must match a heading
    anchor in that file (GitHub slug rules: lowercase, punctuation dropped,
    spaces -> dashes);
  * bare `#fragment` targets must match a heading in the linking file;
  * http(s)/mailto targets are only checked for well-formedness (no
    network access in CI).

Exits non-zero listing every broken link. Fenced code blocks are skipped,
so `[i]`-style array indexing in snippets is not misread as a link.
"""

import functools
import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")


def strip_fenced_blocks(lines):
    kept, in_fence = [], False
    for line in lines:
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        kept.append(line if not in_fence else "")
    return kept


def github_slug(heading):
    heading = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading, flags=re.UNICODE)
    return heading.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def heading_anchors(path):
    anchors = {}
    with open(path, encoding="utf-8") as handle:
        lines = strip_fenced_blocks(handle.read().splitlines())
    for line in lines:
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        # Duplicate headings get -1, -2, ... suffixes on GitHub.
        count = anchors.get(slug, 0)
        anchors[slug] = count + 1
        if count:
            anchors[f"{slug}-{count}"] = 1
    return set(anchors)


def check_file(path, errors):
    directory = os.path.dirname(path) or "."
    with open(path, encoding="utf-8") as handle:
        lines = strip_fenced_blocks(handle.read().splitlines())
    for lineno, line in enumerate(lines, 1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            where = f"{path}:{lineno}"
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                if github_slug(target[1:]) not in heading_anchors(path):
                    errors.append(f"{where}: no heading for anchor "
                                  f"'{target}'")
                continue
            file_part, _, fragment = target.partition("#")
            resolved = os.path.normpath(os.path.join(directory, file_part))
            if not os.path.exists(resolved):
                errors.append(f"{where}: missing file '{target}'")
                continue
            if fragment and resolved.endswith(".md"):
                if github_slug(fragment) not in heading_anchors(resolved):
                    errors.append(f"{where}: '{file_part}' has no heading "
                                  f"for anchor '#{fragment}'")


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} <file-or-dir>...", file=sys.stderr)
        return 2
    files = []
    for arg in argv[1:]:
        if os.path.isdir(arg):
            for root, _, names in os.walk(arg):
                files.extend(os.path.join(root, name) for name in names
                             if name.endswith(".md"))
        else:
            files.append(arg)
    errors = []
    for path in sorted(files):
        check_file(path, errors)
    for error in errors:
        print(f"BROKEN LINK: {error}", file=sys.stderr)
    print(f"checked {len(files)} file(s): "
          f"{'FAIL' if errors else 'OK'} ({len(errors)} broken)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
