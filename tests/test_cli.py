"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_maintain_defaults(self):
        args = build_parser().parse_args(["maintain"])
        assert args.query == "groups"
        assert args.delta == 100
        assert not args.no_bloom


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro.imp" in output
        assert "repro.sketch" in output
        # Every document it points to is at the repo root.
        root = Path(__file__).resolve().parent.parent
        named = re.findall(r"[\w-]+\.md", output)
        assert named and all((root / name).is_file() for name in named)

    def test_demo_runs_the_running_example(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Apple" in output
        assert "HP" in output
        assert output.endswith("Sketch-based answer matches full evaluation. Done.\n")

    def test_maintain_reports_speedups(self, capsys):
        exit_code = main(
            [
                "maintain",
                "--query",
                "groups",
                "--rows",
                "800",
                "--groups",
                "40",
                "--delta",
                "20",
                "--batches",
                "2",
                "--fragments",
                "16",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "IMP (ms)" in output
        assert "speedup" in output
        assert "join sides built" in output

    def test_maintain_with_optimizations_disabled(self, capsys):
        exit_code = main(
            [
                "maintain",
                "--query",
                "joinsel",
                "--rows",
                "600",
                "--groups",
                "30",
                "--delta",
                "10",
                "--batches",
                "1",
                "--fragments",
                "8",
                "--no-bloom",
                "--no-pushdown",
            ]
        )
        assert exit_code == 0
        assert "statistics" in capsys.readouterr().out

    def test_compare_runs_all_three_systems(self, capsys):
        exit_code = main(
            [
                "compare",
                "--rows",
                "600",
                "--groups",
                "30",
                "--operations",
                "9",
                "--ratio",
                "1U2Q",
                "--delta",
                "5",
                "--fragments",
                "16",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "no-sketch" in output
        assert "full-maintenance" in output
        assert "fastest system" in output

    def test_serve_repl_snapshot_isolation(self, capsys, monkeypatch):
        """The REPL pins sessions: a commit is invisible until .refresh."""
        import io

        script = "\n".join(
            [
                ".open",
                "SELECT COUNT(id) AS n FROM r",
                ".commit 25",
                "SELECT COUNT(id) AS n FROM r",
                ".refresh",
                "SELECT COUNT(id) AS n FROM r",
                ".sessions",
                ".close",
                ".quit",
                "",
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", "--rows", "300", "--groups", "10"]) == 0
        output = capsys.readouterr().out
        assert "opened session 1 pinned at version 2" in output
        # Pinned before and after the commit, then refreshed.
        assert output.count("(300,)") == 2
        assert "(325,)" in output
        assert "closed session 1" in output

    def test_serve_repl_surfaces_errors_without_dying(self, capsys, monkeypatch):
        import io

        script = ".open\nSELECT nope FROM missing\n.bogus\n.quit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", "--rows", "100", "--groups", "5"]) == 0
        output = capsys.readouterr().out
        assert "error:" in output
        assert "unknown command" in output

    def test_serve_demo_reports_stable_snapshots(self, capsys):
        exit_code = main(
            [
                "serve",
                "--demo",
                "--rows",
                "400",
                "--groups",
                "15",
                "--readers",
                "2",
                "--commits",
                "3",
                "--delta",
                "10",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "snapshot stability: OK" in output
        assert "maintenance:" in output


class TestDurableServing:
    def _serve(self, monkeypatch, data_dir, script_lines, extra_args=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([*script_lines, ""])))
        return main(
            [
                "serve",
                "--rows",
                "120",
                "--groups",
                "8",
                "--data-dir",
                str(data_dir),
                *extra_args,
            ]
        )

    def test_serve_data_dir_persists_across_runs(self, capsys, monkeypatch, tmp_path):
        data_dir = tmp_path / "serving"
        script = [
            ".open",
            "SELECT COUNT(id) AS n FROM r",
            ".commit 30",
            ".checkpoint",
            ".quit",
        ]
        assert self._serve(monkeypatch, data_dir, script) == 0
        first = capsys.readouterr().out
        assert "durable: " in first
        assert "(120,)" in first
        assert "checkpoint written at version 3" in first

        # A second run recovers the directory instead of reloading synthetic
        # data: the committed rows are still there.
        script = [".open", "SELECT COUNT(id) AS n FROM r", ".quit"]
        assert self._serve(monkeypatch, data_dir, script) == 0
        second = capsys.readouterr().out
        assert "recovered existing data directory:" in second
        assert "(150,)" in second
        assert "table r with 150 rows at version 3" in second

    def test_serve_accepts_fsync_policy(self, capsys, monkeypatch, tmp_path):
        script = [".commit 5", ".quit"]
        code = self._serve(
            monkeypatch,
            tmp_path / "d",
            script,
            extra_args=["--fsync", "off", "--checkpoint-every", "1"],
        )
        assert code == 0
        assert "committed 5 rows" in capsys.readouterr().out
        # --checkpoint-every wrote checkpoints without an explicit command.
        assert any(
            p.name.startswith("checkpoint-") for p in (tmp_path / "d").iterdir()
        )

    def test_checkpoint_requires_durable_serving(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(".checkpoint\n.quit\n"))
        assert main(["serve", "--rows", "50", "--groups", "5"]) == 0
        assert "error:" in capsys.readouterr().out

    def test_recover_reports_integrity(self, capsys, monkeypatch, tmp_path):
        data_dir = tmp_path / "serving"
        script = [".commit 10", ".checkpoint", ".commit 7", ".quit"]
        assert self._serve(monkeypatch, data_dir, script) == 0
        capsys.readouterr()

        assert main(["recover", str(data_dir)]) == 0
        output = capsys.readouterr().out
        assert "recovery report:" in output
        assert "checkpoint-000000000003.ckpt" in output
        assert "1 commits + 0 DDL replayed" in output
        assert "table r: 137 rows" in output
        assert "integrity: OK (version 4)" in output
        assert "sha256=" in output

    def test_recover_truncates_a_torn_tail(self, capsys, monkeypatch, tmp_path):
        data_dir = tmp_path / "serving"
        assert self._serve(monkeypatch, data_dir, [".commit 5", ".quit"]) == 0
        capsys.readouterr()
        with open(data_dir / "wal.log", "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef half a record")
        assert main(["recover", str(data_dir)]) == 0
        output = capsys.readouterr().out
        assert "torn tail truncated: 18 bytes" in output
        assert "integrity: OK (version 3)" in output

    def test_recover_missing_directory_fails(self, capsys, tmp_path):
        assert main(["recover", str(tmp_path / "nope")]) == 1
        assert "no such data directory" in capsys.readouterr().out

    def test_recover_rejects_garbage(self, capsys, tmp_path):
        data_dir = tmp_path / "bad"
        data_dir.mkdir()
        (data_dir / "wal.log").write_bytes(b"certainly not a log file")
        assert main(["recover", str(data_dir)]) == 1
        assert "recovery failed:" in capsys.readouterr().out
