"""Strict documentation checker: dead links, stale names and CLI examples fail.

Checked over ``README.md`` and every ``docs/*.md`` (repo paths and
references also over the docstrings and comments of ``src/**/*.py`` and
``tools/*.py``):

* **intra-repo markdown links** — ``[text](path)`` targets (non-http)
  must exist relative to the file (anchors are stripped; bare ``#...``
  anchors are skipped);
* **repo paths in prose/code spans** — any mention of a path under
  ``src``, ``docs``, ``tests``, ``benchmarks``, ``tools`` or
  ``examples`` must resolve to at least one file (globs allowed, so
  ``tests/golden/*.json`` is fine);
* **references** — every fully-qualified name in a code span
  (`` `repro.coherence.smp.simulate_streaming` ``, ``:func:`~repro.…` ``)
  must resolve: its longest importable module prefix is imported and
  the rest looked up with ``getattr``, so a renamed or deleted function
  fails;
* **bare names** — every code span of ``README.md`` and ``docs/*.md``
  holding one identifier that contains ``_`` or is written ``name()``
  (`` `run_sweep` ``, `` `smp_run()` ``) must be a name the project
  binds: a def, class, argument, attribute, keyword, import,
  assignment target or identifier-shaped string key in ``src``,
  ``tools``, ``perfbench``, ``tests`` or ``examples``, or a token of
  ``src/**/*.c``;
* **CLI examples** — every ``$ ... python -m repro.cli ...`` (or
  ``jetty-repro ...``) line in a fenced code block must parse against
  the real argument parser, and any workload, filter, or preset names it
  mentions must exist.  A renamed flag or a deleted workload makes the
  example — and therefore CI — fail.

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 when clean, 1 with one line per problem otherwise.
CI runs this as the ``docs`` job; ``tests/test_docs.py`` runs it in the
tier-1 suite.
"""

from __future__ import annotations

import ast
import functools
import glob
import importlib
import io
import re
import shlex
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REPO_PATH_RE = re.compile(
    r"\b(?:src|docs|tests|benchmarks|tools|examples)/[A-Za-z0-9_.*/-]+"
)
REFERENCE_RE = re.compile(r"`~?(repro(?:\.\w+)+)`")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
BARE_NAME_RE = re.compile(r"([A-Za-z_]\w*)(\(\))?")
NAME_ROOTS = ("src", "tools", "perfbench", "tests", "examples")
FENCE_RE = re.compile(r"^(```|~~~)")


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def source_files() -> list[Path]:
    return sorted(REPO_ROOT.glob("src/**/*.py")) + sorted(
        REPO_ROOT.glob("tools/*.py")
    )


def source_prose(text: str) -> str:
    """The docstrings and comments of a Python source."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)
    parts = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(text)) if isinstance(node, documented)
    ]
    parts += [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT
    ]
    return "\n".join(parts)


def _strip_fences(text: str) -> tuple[str, list[str]]:
    """Split a markdown document into (prose, fenced-block lines)."""
    prose_lines: list[str] = []
    code_lines: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        (code_lines if in_fence else prose_lines).append(line)
    return "\n".join(prose_lines), code_lines


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    prose, _code = _strip_fences(text)
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: dead link -> {target}")
    return errors


def check_repo_paths(path: Path, text: str) -> list[str]:
    errors = []
    for mention in set(REPO_PATH_RE.findall(text)):
        candidate = mention.rstrip(".")
        if glob.glob(str(REPO_ROOT / candidate)):
            continue
        # Mentions like ``src/repro/analysis/exhibits.run`` name an attribute
        # of a module; the file to resolve is the module itself.
        stem = candidate.rsplit(".", 1)[0]
        if glob.glob(str(REPO_ROOT / (stem + ".py"))):
            continue
        errors.append(f"{path.name}: missing repo path -> {candidate}")
    return errors


def check_references(path: Path, text: str) -> list[str]:
    errors = []
    for name in sorted(set(REFERENCE_RE.findall(text))):
        parts = name.split(".")
        for i in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                continue
            try:
                functools.reduce(getattr, parts[i:], module)
            except AttributeError:
                errors.append(f"{path.name}: stale reference -> {name}")
            break
    return errors


@functools.lru_cache(maxsize=None)
def bound_names() -> frozenset[str]:
    """Every name the project's Python binds, and every C-core token."""
    names: set[str] = set()
    for root in NAME_ROOTS:
        for source in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    names.add(node.asname or node.name)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store
                ):
                    names.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ) and node.value.isidentifier():
                    names.add(node.value)  # a key: "next_index", "REPRO_STORE"
    for source in (REPO_ROOT / "src").rglob("*.c"):
        names.update(re.findall(r"[A-Za-z_]\w*", source.read_text()))
    return frozenset(names)


def check_bare_names(path: Path, text: str) -> list[str]:
    errors = []
    prose, _code = _strip_fences(text)
    for span in sorted(set(CODE_SPAN_RE.findall(prose))):
        match = BARE_NAME_RE.fullmatch(span)
        if match is None or not (match[2] or "_" in match[1]):
            continue
        if match[1] not in bound_names():
            errors.append(f"{path.name}: stale name -> {span}")
    return errors


def _command_lines(code_lines: list[str]) -> list[str]:
    """Join continuation lines and keep the ``$``-prefixed commands."""
    commands: list[str] = []
    pending: str | None = None
    for line in code_lines:
        stripped = line.strip()
        if pending is not None:
            pending += " " + stripped.rstrip("\\").strip()
            if not stripped.endswith("\\"):
                commands.append(pending)
                pending = None
            continue
        if not stripped.startswith("$ "):
            continue
        command = stripped[2:].strip()
        if command.endswith("\\"):
            pending = command.rstrip("\\").strip()
        else:
            commands.append(command)
    if pending is not None:
        commands.append(pending)
    return commands


def _cli_argv(command: str) -> list[str] | None:
    """Extract repro-CLI argv from a shell command line, if it is one."""
    try:
        tokens = shlex.split(command)
    except ValueError:
        return None
    for i, token in enumerate(tokens):
        if token == "jetty-repro":
            return tokens[i + 1:]
        if token == "repro.cli" and i >= 2 and tokens[i - 1] == "-m":
            return tokens[i + 1:]
    return None


def check_cli_examples(path: Path, text: str) -> list[str]:
    from repro.cli import build_parser
    from repro.core.config import parse_filter_name
    from repro.errors import ReproError
    from repro.traces.workloads import get_workload

    errors = []
    _prose, code_lines = _strip_fences(text)
    for command in _command_lines(code_lines):
        argv = _cli_argv(command)
        if argv is None:
            continue
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            errors.append(f"{path.name}: stale CLI example -> {command}")
            continue
        names = list(getattr(args, "workloads", None) or ())
        if getattr(args, "workload", None):
            names.append(args.workload)
        filters = list(getattr(args, "filters", None) or ())
        if getattr(args, "filter", None):
            filters.append(args.filter)
        try:
            for name in names:
                get_workload(name)
            for filter_name in filters:
                parse_filter_name(filter_name)
        except ReproError as error:
            errors.append(f"{path.name}: stale CLI example ({error}) -> {command}")
    return errors


def main() -> int:
    files = doc_files()
    errors: list[str] = []
    if not (REPO_ROOT / "README.md").exists():
        errors.append("README.md is missing")
    for path in files:
        text = path.read_text()
        errors += check_links(path, text)
        errors += check_repo_paths(path, text)
        errors += check_references(path, text)
        errors += check_bare_names(path, text)
        errors += check_cli_examples(path, text)
    sources = source_files()
    for path in sources:
        prose = source_prose(path.read_text())
        errors += check_repo_paths(path, prose)
        errors += check_references(path, prose)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    checked = ", ".join(p.relative_to(REPO_ROOT).as_posix() for p in files)
    print(f"checked {len(files)} file(s): {checked}, and the docstrings "
          f"and comments of {len(sources)} source file(s) -> "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
