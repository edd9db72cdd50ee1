#!/usr/bin/env python
"""Check the documentation: links resolve, snippets compile, options and spans exist.

Usage::

    python scripts/check_docs.py                 # README.md + docs/*.md
    python scripts/check_docs.py README.md docs/ARCHITECTURE.md

Two checks per markdown file, one more on ``docs/ARCHITECTURE.md``, and --
when no file is named -- one on the span table of the repository benchmark:

* **Dead links** — every relative markdown link ``[text](target)`` must
  point at an existing file or directory (resolved against the linking
  file's directory; ``#fragment`` suffixes are stripped).  External
  schemes (``http:``, ``https:``, ``mailto:``) and pure in-page anchors
  are skipped — CI must not depend on the network.
* **Snippets** — every fenced ```` ```python ```` block must at least
  *compile* (``compile(..., "exec")``).  Snippets are illustrative, not
  executed, so this catches syntax rot without requiring each block to be
  self-contained.
* **Option matrix** — every option named in the "System option matrix"
  table of ``docs/ARCHITECTURE.md`` must be a parameter of
  ``P2PMSystem.__init__`` whose default equals the documented one, and
  every parameter of the constructor must have a row.
* **Span table** — every dotted path in ``SPANS`` of ``perf/layers.py`` must
  resolve to an attribute defined under ``src/``: the tracer patches these
  entry points by name, so a renamed one would otherwise break only the
  ``perf/run.py --trace 1`` runs.

Exit code 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OPTION_MATRIX_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
OPTION_MATRIX_HEADING = "## System option matrix"

#: ``[text](target)`` — target captured up to the closing paren (no nesting)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
EXTERNAL = ("http://", "https://", "mailto:")
#: a matrix row: ``| `option` | values | `default` | ...`` (rows of the
#: compatibility table below it name ``option="value"`` and do not match)
OPTION_ROW_RE = re.compile(r"^\| `(\w+)` \|[^|]*\| `([^`]+)` \|")


def iter_links(text: str):
    """Yield (line_number, target) for every markdown link in ``text``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def iter_python_snippets(text: str):
    """Yield (first_line_number, source) per ```python fenced block."""
    lines = text.splitlines()
    block: list[str] | None = None
    start = 0
    for lineno, line in enumerate(lines, start=1):
        fence = FENCE_RE.match(line)
        if block is None:
            if fence and fence.group(1) == "python":
                block = []
                start = lineno + 1
        elif fence:
            yield start, "\n".join(block)
            block = None
        else:
            block.append(line)


def check_option_matrix(text: str, rel: Path) -> list[str]:
    """Documented ``P2PMSystem`` options vs the constructor's signature."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.monitor import P2PMSystem

    parameters = inspect.signature(P2PMSystem.__init__).parameters
    problems = []
    in_section = False
    documented_options = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.strip() == OPTION_MATRIX_HEADING
            continue
        match = OPTION_ROW_RE.match(line) if in_section else None
        if match is None:
            continue
        option, documented = match.groups()
        documented_options.add(option)
        if option not in parameters:
            problems.append(
                f"{rel}:{lineno}: option `{option}` is not a P2PMSystem parameter"
            )
        elif ast.literal_eval(documented) != parameters[option].default:
            problems.append(
                f"{rel}:{lineno}: option `{option}` documents default {documented}, "
                f"the signature says {parameters[option].default!r}"
            )
    for option in parameters:
        if option != "self" and option not in documented_options:
            problems.append(
                f"{rel}: P2PMSystem parameter `{option}` has no row under {OPTION_MATRIX_HEADING!r}"
            )
    return problems


def check_span_table() -> list[str]:
    """Dotted paths of ``perf/layers.py`` ``SPANS`` vs the code under ``src/``."""
    for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perf.layers import SPANS

    problems = []
    for dotted, span, *_ in SPANS:
        parts = dotted.split(".")
        target = None
        # the longest importable prefix is the module, the rest attributes
        for split in range(len(parts) - 1, 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ModuleNotFoundError:
                continue
            source = Path(getattr(target, "__file__", "") or "").resolve()
            if not source.is_relative_to(REPO_ROOT / "src"):
                target = None
            for part in parts[split:]:
                target = getattr(target, part, None)
            break
        if target is None:
            problems.append(
                f"perf/layers.py: span {span!r} names {dotted}, which does not resolve under src/"
            )
    return problems


def check_file(path: Path) -> list[str]:
    problems = []
    text = path.read_text(encoding="utf-8")
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:  # explicit argument outside the repo
        rel = path

    for lineno, target in iter_links(text):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{rel}:{lineno}: dead link -> {target}")

    for lineno, source in iter_python_snippets(text):
        try:
            compile(source, f"{rel}:{lineno}", "exec")
        except SyntaxError as exc:
            problems.append(
                f"{rel}:{lineno}: snippet does not compile "
                f"(line {exc.lineno}: {exc.msg})"
            )
    if path == OPTION_MATRIX_DOC:
        problems.extend(check_option_matrix(text, rel))
    return problems


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(arg).resolve() for arg in argv]
    else:
        files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    problems = []
    for path in files:
        if not path.exists():
            problems.append(f"{path}: no such file")
            continue
        problems.extend(check_file(path))
    if not argv:
        problems.extend(check_span_table())
    for problem in problems:
        print(problem)
    print(f"check_docs: {len(files)} file(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
