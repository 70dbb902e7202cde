#!/usr/bin/env python
"""Documentation gate: markdown link check + executable docs smoke.

Two checks, both offline and stdlib-only:

1. **Link check** — every markdown link in README.md, ROADMAP.md, and
   docs/*.md whose target is a local path must resolve to an existing file,
   and every ``file.md#anchor`` / ``#anchor`` fragment must match a heading
   in the target file (GitHub-style slugs).  External http(s) links are
   counted but not fetched (CI has no network guarantee).

2. **Snippet smoke** — every fenced ``python`` code block in the
   executable docs (README.md, docs/serving.md, docs/observability.md,
   docs/adaptive.md, docs/graph_planning.md) is extracted and executed
   *in order in one shared namespace per file*, from a fresh temporary
   working directory (so files a snippet writes, such as README's Chrome
   trace, land outside the checkout), so the documented quickstarts
   provably run against the current code.

Usage:
    python scripts/check_docs.py
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Files whose links are checked (docs/*.md are added dynamically).
LINKED_FILES = ["README.md", "ROADMAP.md"]

#: Documentation files whose python blocks must execute.
EXECUTABLE_DOCS = ["README.md",
                   os.path.join("docs", "serving.md"),
                   os.path.join("docs", "observability.md"),
                   os.path.join("docs", "adaptive.md"),
                   os.path.join("docs", "graph_planning.md")]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"^```([A-Za-z0-9_+-]*)\s*$")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (lowercase, punctuation dropped)."""
    text = heading.strip().lower()
    out = []
    for char in text:
        if char.isalnum() or char in (" ", "-", "_"):
            out.append(char)
    return "".join(out).replace(" ", "-")


def heading_slugs(markdown: str) -> set:
    """Every anchor a markdown document exposes.

    Fenced code blocks are stripped first: a ``# comment`` inside a code
    block is not a heading and must not become a phantom anchor.
    """
    slugs = set()
    for match in _HEADING.finditer(_strip_code(markdown)):
        slugs.add(github_slug(match.group(1)))
    return slugs


def _strip_code(markdown: str) -> str:
    """Remove fenced code blocks (their contents are not hyperlinks)."""
    lines = []
    in_fence = False
    for line in markdown.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append(line)
    return "\n".join(lines)


def check_links(files: List[str]) -> Tuple[int, int, List[str]]:
    """Validate local link targets + anchors; returns (checked, external, errors)."""
    contents: Dict[str, str] = {}
    for path in files:
        with open(os.path.join(ROOT, path), "r", encoding="utf-8") as handle:
            contents[path] = handle.read()

    checked = 0
    external = 0
    errors: List[str] = []
    for path, markdown in contents.items():
        base = os.path.dirname(os.path.join(ROOT, path))
        for match in _LINK.finditer(_strip_code(markdown)):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                external += 1
                continue
            checked += 1
            file_part, _, anchor = target.partition("#")
            if file_part:
                resolved = os.path.normpath(os.path.join(base, file_part))
                if not os.path.exists(resolved):
                    errors.append(f"{path}: broken link -> {target}")
                    continue
                anchor_source = resolved
            else:
                anchor_source = os.path.join(ROOT, path)
            if anchor:
                try:
                    with open(anchor_source, "r", encoding="utf-8") as handle:
                        slugs = heading_slugs(handle.read())
                except (OSError, UnicodeDecodeError):
                    errors.append(f"{path}: unreadable anchor target -> {target}")
                    continue
                if anchor not in slugs:
                    errors.append(f"{path}: missing anchor -> {target}")
    return checked, external, errors


def extract_python_blocks(path: str) -> List[Tuple[int, str]]:
    """Return (first_line_number, source) for every fenced python block."""
    blocks: List[Tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    collecting = False
    start = 0
    buffer: List[str] = []
    for number, line in enumerate(lines, start=1):
        fence = _FENCE.match(line.strip())
        if fence and not collecting and fence.group(1) == "python":
            collecting = True
            start = number + 1
            buffer = []
            continue
        if fence and collecting:
            collecting = False
            blocks.append((start, "\n".join(buffer)))
            continue
        if collecting:
            buffer.append(line)
    return blocks


def run_python_blocks(path: str) -> List[str]:
    """Execute every python block sequentially in one namespace, from a
    fresh temporary working directory."""
    blocks = extract_python_blocks(os.path.join(ROOT, path))
    namespace: Dict[str, object] = {"__name__": "__docs__"}
    errors: List[str] = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for index, (line, source) in enumerate(blocks, start=1):
                try:
                    code = compile(source, f"{path}:block{index}@line{line}", "exec")
                    exec(code, namespace)  # noqa: S102 - executing our own docs is the point
                except BaseException as error:  # noqa: BLE001 - report, keep format
                    errors.append(f"{path} block {index} (line {line}): "
                                  f"{type(error).__name__}: {error}")
                    break  # later blocks depend on earlier state; stop at first failure
        finally:
            os.chdir(cwd)
    print(f"executed {len(blocks)} python blocks from {path}")
    return errors


def main() -> int:
    """Run both gates; returns a process exit code."""
    files = list(LINKED_FILES)
    docs_dir = os.path.join(ROOT, "docs")
    if os.path.isdir(docs_dir):
        files.extend(sorted(
            os.path.join("docs", name)
            for name in os.listdir(docs_dir) if name.endswith(".md")
        ))
    checked, external, errors = check_links(files)
    print(f"link check: {checked} local links verified across {len(files)} files "
          f"({external} external links not fetched)")

    for doc in EXECUTABLE_DOCS:
        errors.extend(run_python_blocks(doc))
    if errors:
        print("\nFAILURES:")
        for line in errors:
            print(f"  {line}")
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
