"""Tests for the command-line interface and text renderers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.report_text import (
    render_digest,
    render_earnings,
    render_table1,
    render_table5,
    render_table7,
    render_table8,
)
from repro.forum import load_dataset

CLI_WORLD = ["--seed", "3", "--scale", "0.006"]
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 7
        assert args.scale == 0.02
        assert args.annotate == 1000
        assert args.fault_profile is None
        assert args.payload_profile is None
        assert args.resume is None
        assert args.lenient is False

    def test_payload_profile_choices(self):
        args = build_parser().parse_args(["run", "--payload-profile", "hostile"])
        assert args.payload_profile == "hostile"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--payload-profile", "bogus"])

    def test_fault_profile_choices(self):
        args = build_parser().parse_args(["run", "--fault-profile", "flaky"])
        assert args.fault_profile == "flaky"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault-profile", "bogus"])

    def test_resume_default_const(self):
        args = build_parser().parse_args(["run", "--resume"])
        assert str(args.resume) == "crawl.checkpoint.json"
        args = build_parser().parse_args(["run", "--resume", "custom.json"])
        assert str(args.resume) == "custom.json"

    def test_lenient_flag(self):
        args = build_parser().parse_args(["run", "--lenient"])
        assert args.lenient is True


RESUME_WITH_STORE = (
    "--resume cannot be combined with --store: a store-backed run commits "
    "each epoch atomically and has no crawl checkpoint"
)


class TestArgumentChecks:
    """Out-of-range options stop at the CLI boundary with one line."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--scale", "0"], "--scale must be in (0, 2], got 0"),
            (["run", "--scale", "-1"], "--scale must be in (0, 2], got -1"),
            (["build", "--scale", "0", "--out", "w.jsonl"], "--scale must be"),
            (["drift", "--scale", "3"], "--scale must be in (0, 2], got 3"),
            (["run", "--annotate", "-5"], "--annotate must be >= 10, got -5"),
            (["run", "--epoch-total", "0"], "--epoch-total must be >= 1, got 0"),
            (["run", "--epoch-total", "2"], "--epoch-total requires --store"),
            (["run", "--epoch", "1"], "--epoch requires --store"),
        ],
        ids=["scale-0", "scale-negative", "build-scale-0", "drift-scale-3",
             "annotate-negative", "epoch-total-0", "epoch-total-without-store",
             "epoch-without-store"],
    )
    def test_rejected(self, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code).startswith(message)

    @pytest.mark.parametrize(
        "epoch_args,message",
        [
            (["--epoch", "0"], "--epoch must be in [1, 1] (--epoch-total), got 0"),
            (["--epoch", "3", "--epoch-total", "2"],
             "--epoch must be in [1, 2] (--epoch-total), got 3"),
            (["--epoch", "1", "--epoch-total", "0"],
             "--epoch-total must be >= 1, got 0"),
            (["--resume"], RESUME_WITH_STORE),
            (["--resume", "c.json"], RESUME_WITH_STORE),
        ],
        ids=["epoch-0", "epoch-above-total", "epoch-total-0",
             "resume-default-with-store", "resume-path-with-store"],
    )
    def test_store_epoch_rejected(self, tmp_path, monkeypatch, epoch_args, message):
        monkeypatch.chdir(tmp_path)
        store = tmp_path / "s.sqlite"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--store", str(store), *epoch_args])
        assert excinfo.value.code == message
        assert list(tmp_path.iterdir()) == []  # no store, no checkpoint

    def test_one_line_and_nonzero_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--scale", "0"],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stderr.splitlines() == ["--scale must be in (0, 2], got 0"]


class TestRenderers:
    def test_table1_totals_line(self, report):
        text = render_table1(report)
        assert "TOTAL" in text
        assert "Hackforums" in text

    def test_table5_groups(self, report):
        text = render_table5(report)
        assert "packs" in text and "previews" in text

    def test_table7_currencies(self, report):
        text = render_table7(report.currency_exchange)
        for currency in ("PayPal", "BTC", "AGC"):
            assert currency in text

    def test_table8_rows(self, report):
        text = render_table8(report)
        assert ">= 1" in text and ">= 1000" in text

    def test_earnings_block(self, report):
        text = render_earnings(report.earnings)
        assert "mean transaction" in text

    def test_digest_contains_all_sections(self, report):
        digest = render_digest(report)
        for marker in ("§3", "§4.1", "§4.2", "§4.3", "§4.4", "§4.5", "§5", "§6"):
            assert marker in digest


@pytest.mark.slow
class TestCommands:
    def test_build_round_trip(self, tmp_path, capsys):
        out = tmp_path / "world.jsonl"
        code = main(["build", *CLI_WORLD, "--out", str(out)])
        assert code == 0
        dataset = load_dataset(out)
        assert dataset.n_posts > 100

    def test_run_prints_digest(self, capsys):
        code = main(["run", *CLI_WORLD, "--annotate", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "== selection (§3) ==" in output
        assert "key actors:" in output

    def test_run_prints_each_block_once(self, tmp_path, capsys):
        out = tmp_path / "tables"
        code = main(["run", *CLI_WORLD, "--annotate", "200", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        funnel_header = [line for line in lines if line.split() == ["stage", "count"]]
        assert len(funnel_header) == 1
        for prefix in ("vision cache:", "crawl:", "breakers:", "quarantine:"):
            assert sum(line.startswith(prefix) for line in lines) == 1, prefix
        # the digest file is the measurement alone: no run-mode counters
        digest = (out / "digest.txt").read_text()
        assert "vision cache" not in digest and "metrics:" not in digest

    def test_run_with_fault_profile_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "crawl.json"
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200",
             "--fault-profile", "flaky", "--resume", str(ckpt)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "-- crawl resilience --" in output
        assert "retries:" in output
        assert ckpt.exists()
        # a second run resumes from the completed checkpoint and succeeds
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200",
             "--fault-profile", "flaky", "--resume", str(ckpt)]
        )
        assert code == 0

    def test_run_with_payload_profile_reports_quarantine(self, capsys):
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200", "--payload-profile", "hostile"]
        )
        assert code == 0
        output = capsys.readouterr().out
        # the run still completes and renders the digest ...
        assert "== selection (§3) ==" in output
        # ... and both quarantine surfaces carry the ledger
        assert "== quarantine (record-level faults) ==" in output
        assert "-- quarantine --" in output
        assert "records quarantined" in output

    def test_tables_writes_files(self, tmp_path, capsys):
        out = tmp_path / "tables"
        code = main(["tables", *CLI_WORLD, "--annotate", "200", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"table1_forums.txt", "digest.txt"} <= names
