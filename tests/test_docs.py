"""Documentation stays true: dead links, stale names and CLI examples fail CI.

Runs the same checker as the CI ``docs`` job (``tools/check_docs.py``)
inside the tier-1 suite, plus a few self-tests of the checker so a
regression in the checker itself cannot silently green-light rot.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_repo_docs_are_clean(capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


def test_required_docs_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "experiment-engine.md").exists()


class TestCheckerCatchesRot:
    def test_dead_link(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text("see [here](no/such/file.md)\n")
        assert check_docs.check_links(doc, doc.read_text())

    def test_anchor_and_http_links_ok(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text("[a](#anchor) [b](https://example.com/x)\n")
        assert not check_docs.check_links(doc, doc.read_text())

    def test_missing_repo_path(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text("code lives in `src/repro/not_a_module.py`\n")
        assert check_docs.check_repo_paths(doc, doc.read_text())

    def test_stale_path_in_source_docstrings_and_comments(
        self, tmp_path, monkeypatch, capsys
    ):
        source = tmp_path / "x.py"
        source.write_text(
            '"""Compared by ``benchmarks/bench_ablation_hashed.py``."""\n'
            "def f():\n"
            "    # see tools/no_such_tool.py\n"
            '    return "src/code_not_prose.py"\n'
        )
        monkeypatch.setattr(check_docs, "source_files", lambda: [source])
        assert check_docs.main() == 1
        err = capsys.readouterr().err
        assert "benchmarks/bench_ablation_hashed.py" in err
        assert "tools/no_such_tool.py" in err
        assert "code_not_prose" not in err

    def test_stale_reference_in_source_and_docs(
        self, tmp_path, monkeypatch, capsys
    ):
        source = tmp_path / "x.py"
        source.write_text(
            '"""Cut by :func:`repro.coherence.smp.no_such_name`, run by\n'
            ':func:`~repro.coherence.smp.simulate_streaming`."""\n'
            "# drawn by ``repro.traces.synth.MixStream.no_such_method``\n"
        )
        monkeypatch.setattr(check_docs, "source_files", lambda: [source])
        assert check_docs.main() == 1
        err = capsys.readouterr().err
        assert "repro.coherence.smp.no_such_name" in err
        assert "repro.traces.synth.MixStream.no_such_method" in err
        assert "simulate_streaming" not in err
        doc = tmp_path / "x.md"
        doc.write_text("`repro.no_such_module.f` and `repro.coherence.smp`\n")
        assert check_docs.check_references(doc, doc.read_text()) == [
            "x.md: stale reference -> repro.no_such_module.f"
        ]

    def test_glob_repo_path_ok(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text("pinned in `tests/golden/*.json`\n")
        assert not check_docs.check_repo_paths(doc, doc.read_text())

    def test_stale_cli_flag(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text(
            "```console\n$ python -m repro.cli sweep --no-such-flag\n```\n"
        )
        assert check_docs.check_cli_examples(doc, doc.read_text())

    def test_stale_workload_name(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text(
            "```console\n$ python -m repro.cli coverage gone EJ-32x4\n```\n"
        )
        errors = check_docs.check_cli_examples(doc, doc.read_text())
        assert errors and "unknown workload" in errors[0]

    def test_valid_example_with_continuation(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text(
            "```console\n"
            "$ PYTHONPATH=src python -m repro.cli sweep --stream \\\n"
            "      --workloads lu --filters EJ-32x4 --accesses 2e6\n"
            "```\n"
        )
        assert not check_docs.check_cli_examples(doc, doc.read_text())

    def test_stale_bare_name(self, tmp_path):
        doc = tmp_path / "x.md"
        doc.write_text(
            "the node binds `_l2_frames` and calls `gone_helper()`; "
            "`run_sweep`, `smp_run()`, `next_index` and `lu` are fine\n"
            "```\n`_in_a_fence` is code, not prose\n```\n"
        )
        assert check_docs.check_bare_names(doc, doc.read_text()) == [
            "x.md: stale name -> _l2_frames",
            "x.md: stale name -> gone_helper()",
        ]
