"""Docs/CLI consistency gate — see ``benchmarks/check_docs.py``.

Every ``python -m repro <subcommand>`` (and ``cache <verb>``) the docs
mention must exist, and every subcommand the CLI dispatches must appear
in README.md.  Running
the checker as a test keeps stale CLI examples out of the docs without a
separate CI wiring step.
"""

import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"),
)

import check_docs


def test_subcommand_extraction_is_nonempty():
    subs = check_docs.dispatched_subcommands()
    # the dispatch chain in __main__.py; a regression here means the
    # extraction regex broke, not that the CLI lost all subcommands
    assert {"lint", "vis-lint", "explain", "trace", "eval", "cache",
            "chaos"} <= subs


def test_docs_name_only_real_subcommands_and_readme_names_all():
    violations = check_docs.check()
    assert not violations, "\n".join(violations)


def test_cache_verb_extraction_is_nonempty():
    assert {"stats", "clear", "budget"} <= check_docs.cache_verbs()


def test_unknown_cache_verb_is_drift(tmp_path, monkeypatch):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "python -m repro cache stats\n"
        "python -m repro cache flush\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "doc_paths", lambda: [str(doc)])
    violations = check_docs.check()
    assert [v for v in violations if "`python -m repro cache flush`" in v]
    assert not [v for v in violations if "cache stats`" in v]


def test_unread_env_var_is_drift(tmp_path, monkeypatch):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "REPRO_SQL_RESCACHE_BYTES=1024 sizes the result cache.\n"
        "REPRO_SQL_TURBO=1 turns on a setting nothing reads.\n",
        encoding="utf-8",
    )
    history = tmp_path / "EXPERIMENTS.md"
    history.write_text("REPRO_SQL_TURBO=1 was measured once.\n",
                       encoding="utf-8")
    monkeypatch.setattr(check_docs, "doc_paths",
                        lambda: [str(doc), str(history)])
    violations = [v for v in check_docs.check() if "REPRO_" in v]
    assert len(violations) == 1
    assert "stale.md: documents `REPRO_SQL_TURBO`" in violations[0]
