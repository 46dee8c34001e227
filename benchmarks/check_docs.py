"""Docs-consistency check: CLI subcommands and environment variables vs
what the docs claim.

Four invariants, all cheap enough for CI:

1. every ``python -m repro <subcommand>`` named anywhere in the user
   docs (README.md, DESIGN.md, EXPERIMENTS.md, docs/) resolves to a real
   subcommand dispatched by ``src/repro/__main__.py`` — no stale or
   aspirational CLI examples;
2. every ``python -m repro cache <verb>`` named there is a verb that
   ``src/repro/sql/cache_cli.py`` registers;
3. every subcommand the CLI actually dispatches is documented in
   README.md — no silent features;
4. every ``REPRO_*`` environment variable named in README.md, DESIGN.md
   or docs/ is read by some file under ``src/`` — no settings that
   were deleted from the code but not from the docs (EXPERIMENTS.md is
   a record of past runs and may name them).

Subcommands, verbs and variables are extracted from the source itself
(the ``argv[0] == "<name>"`` chain, the ``add_parser("<verb>")`` calls
and the quoted ``"REPRO_..."`` names), so the check cannot drift from
the code the way a hand-maintained list would.  Run directly (exit 1 on
any violation) or through ``tests/test_docs_consistency.py``.
"""

from __future__ import annotations

import glob
import os
import re
import sys

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)

#: user-facing docs audited for `python -m repro <sub>` mentions
DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

_DISPATCH_RE = re.compile(r'argv\[0\] == "([a-z][a-z0-9-]*)"')
_MENTION_RE = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")
_VERB_RE = re.compile(r'add_parser\(\s*"([a-z][a-z0-9-]*)"')
_CACHE_MENTION_RE = re.compile(r"python -m repro\s+cache\s+([a-z][a-z0-9-]*)")
_ENV_MENTION_RE = re.compile(r"REPRO_[A-Z_]+")
_ENV_READ_RE = re.compile(r"[\"'](REPRO_[A-Z_]+)[\"']")

#: docs that record past runs, exempt from the environment-variable audit
HISTORY_DOC_FILES = {"EXPERIMENTS.md"}


def _source_names(relpath: str, pattern: re.Pattern) -> set[str]:
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
        return set(pattern.findall(handle.read()))


def dispatched_subcommands() -> set[str]:
    """The subcommands ``python -m repro`` actually routes, from source."""
    return _source_names("src/repro/__main__.py", _DISPATCH_RE)


def cache_verbs() -> set[str]:
    """The verbs ``python -m repro cache`` registers, from source."""
    return _source_names("src/repro/sql/cache_cli.py", _VERB_RE)


def read_env_vars() -> set[str]:
    """The ``REPRO_*`` variables code under ``src/`` reads, by their
    quoted names."""
    names: set[str] = set()
    pattern = os.path.join(REPO_ROOT, "src", "**", "*.py")
    for path in glob.glob(pattern, recursive=True):
        with open(path, encoding="utf-8") as handle:
            names.update(_ENV_READ_RE.findall(handle.read()))
    return names


def doc_paths() -> list[str]:
    paths = [os.path.join(REPO_ROOT, name) for name in DOC_FILES]
    paths.extend(
        sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "**", "*.md"),
                         recursive=True))
    )
    return [path for path in paths if os.path.exists(path)]


def documented_subcommands(
    pattern: re.Pattern = _MENTION_RE,
) -> dict[str, set[str]]:
    """Map doc path -> set of names *pattern* captures in it (by default
    the ``python -m repro`` subcommands it mentions)."""
    mentions: dict[str, set[str]] = {}
    for path in doc_paths():
        with open(path, encoding="utf-8") as handle:
            found = set(pattern.findall(handle.read()))
        if found:
            mentions[os.path.relpath(path, REPO_ROOT)] = found
    return mentions


def check() -> list[str]:
    """Return a list of human-readable violations (empty = consistent)."""
    real = dispatched_subcommands()
    violations: list[str] = []

    for path, names in sorted(documented_subcommands().items()):
        for name in sorted(names - real):
            violations.append(
                f"{path}: documents `python -m repro {name}` but the CLI "
                f"has no such subcommand (has: {', '.join(sorted(real))})"
            )

    verbs = cache_verbs()
    for path, names in sorted(documented_subcommands(_CACHE_MENTION_RE).items()):
        for name in sorted(names - verbs):
            violations.append(
                f"{path}: documents `python -m repro cache {name}` but the "
                f"cache CLI has no such verb (has: {', '.join(sorted(verbs))})"
            )

    env_vars = read_env_vars()
    for path, names in sorted(documented_subcommands(_ENV_MENTION_RE).items()):
        if os.path.basename(path) in HISTORY_DOC_FILES:
            continue
        for name in sorted(names - env_vars):
            violations.append(
                f"{path}: documents `{name}` but no file under src/ reads it"
            )

    readme = os.path.join(REPO_ROOT, "README.md")
    with open(readme, encoding="utf-8") as handle:
        readme_named = set(_MENTION_RE.findall(handle.read()))
    for name in sorted(real - readme_named):
        violations.append(
            f"README.md: `python -m repro {name}` is dispatched by "
            "src/repro/__main__.py but never documented"
        )
    return violations


def main() -> int:
    real = dispatched_subcommands()
    print(f"dispatched subcommands: {', '.join(sorted(real))}")
    for path, names in sorted(documented_subcommands().items()):
        print(f"  {path}: mentions {', '.join(sorted(names))}")
    violations = check()
    if violations:
        print()
        for violation in violations:
            print(f"DRIFT: {violation}")
        return 1
    print("docs and CLI agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
