"""Command-line interface tests: run, compare, serve and sample-front."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hyperboxing import reference
from hyperboxing.cli import _report_dict, main, write_points_csv
from hyperboxing.engine import RunConfig, Session, run_representation
from hyperboxing.geometry import Box
from hyperboxing.problems import make_problem
from hyperboxing.scalarization import decode_query, encode_miss, encode_solution, solve_quadric_ps
from test_engine import miss_queries


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRunCommand:
    def test_writes_points_and_report(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--problem", "sphere", "--m", "2", "--epsilon", "0.25",
            "--out", str(out), "--report", str(report_path), "--samples", "500",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f1,f2"
        report = json.loads(report_path.read_text())
        assert report["cardinality"] == len(lines) - 1 > 0
        assert report["problem"] == "sphere"
        assert report["strategy"] == "improved"
        assert 0 < report["empiricalAlpha"] <= 0.25 + report["samplerSlack"]
        assert "|Z_R|" in capsys.readouterr().out

    def test_points_round_trip_exactly(self, tmp_path):
        out = tmp_path / "points.csv"
        run_cli("run", "--problem", "sphere", "--m", "3", "--epsilon", "0.3",
                "--out", str(out))
        report = run_representation(RunConfig(make_problem("sphere", 3), 0.3))
        rows = [
            tuple(float(v) for v in line.split(","))
            for line in out.read_text().splitlines()[1:]
        ]
        assert rows == report.points

    def test_invalid_epsilon_exits_2(self, capsys):
        for epsilon in ("-1", "nan"):
            code = run_cli("run", "--problem", "sphere", "--epsilon", epsilon)
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bad_grid_resolution_exits_2(self, capsys, command):
        for resolution in ("0", "1"):
            code = run_cli(command, "--problem", "patched", "--epsilon", "0.3",
                           "--grid-resolution", resolution)
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err.startswith("error: grid resolution") and "Traceback" not in err

    def test_unknown_problem_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--problem", "banana", "--epsilon", "0.1")

    def test_iteration_cap_exit_code(self, capsys):
        code = run_cli("run", "--problem", "sphere", "--m", "3",
                       "--epsilon", "0.02", "--max-iterations", "3")
        assert code == 1
        assert "partial" in capsys.readouterr().err


class TestCompareCommand:
    def test_reports_identical_sequences(self, tmp_path, capsys):
        report_path = tmp_path / "cmp.json"
        code = run_cli("compare", "--problem", "sphere", "--m", "2",
                       "--epsilon", "0.2", "--report", str(report_path))
        assert code == 0
        result = json.loads(report_path.read_text())
        assert result["identicalSequences"] is True
        assert result["cardinality"] > 0
        assert result["regionTimeRatio"] > 0

    def test_strategy_flag_refused(self, capsys):
        # compare always runs both strategies, so it takes no --strategy.
        with pytest.raises(SystemExit):
            run_cli("compare", "--problem", "sphere", "--epsilon", "0.2",
                    "--strategy", "naive")
        assert "--strategy" in capsys.readouterr().err


class TestSampleFrontCommand:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "front.csv"
        code = run_cli("sample-front", "--problem", "nonconvex",
                       "--samples", "200", "--seed", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 201


class TestPointsCsv:
    def test_17_digit_format_is_lossless(self, tmp_path):
        path = tmp_path / "p.csv"
        pts = [(-1.0 / 3.0, 0.1), (np.nextafter(0.5, 1.0), -2.0 / 7.0)]
        write_points_csv(str(path), pts, 2)
        parsed = [
            tuple(float(v) for v in line.split(","))
            for line in path.read_text().splitlines()[1:]
        ]
        assert parsed == pts


class TestServeCommand:
    def serve(self, tmp_path, box, args=(), answer=None):
        box_file = tmp_path / "box.json"
        box_file.write_text(json.dumps(box))
        out = tmp_path / "serve.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperboxing.cli", "serve",
             "--epsilon", "0.3", "--start-box", str(box_file),
             "--out", str(out), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        transcript = []
        while True:
            line = proc.stdout.readline()
            if not line:
                break
            record = decode_query(line)
            transcript.append(line)
            if record is None:
                break
            reply = answer(record)
            proc.stdin.write(reply + "\n")
            proc.stdin.flush()
        proc.stdin.close()
        proc.wait(timeout=30)
        return proc, out, transcript

    def test_quadric_driver_matches_in_process_run(self, tmp_path):
        answer = lambda q: encode_solution(solve_quadric_ps(q, (1.0, 1.0)))
        proc, out, transcript = self.serve(
            tmp_path, {"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}, answer=answer
        )
        assert proc.returncode == 0
        assert transcript[-1].strip() == '{"done": true}'
        report = run_representation(RunConfig(make_problem("sphere", 2), 0.3))
        expected = tmp_path / "expected.csv"
        write_points_csv(str(expected), report.points, 2)
        assert out.read_bytes() == expected.read_bytes()

    def test_miss_records_match_in_process_misses(self, tmp_path, monkeypatch):
        misses = {1, 4, 9, 17, 30}

        def answer(query):
            if query.query_id in misses:
                return encode_miss(query.query_id)
            return encode_solution(solve_quadric_ps(query, (1.0, 1.0, 1.0)))

        report_path = tmp_path / "report.json"
        proc, out, transcript = self.serve(
            tmp_path, {"l0": [-1.0, -1.0, -1.0], "u0": [0.0, 0.0, 0.0]},
            args=("--epsilon", "0.1", "--report", str(report_path)), answer=answer,
        )
        assert proc.returncode == 0
        assert transcript[-1].strip() == '{"done": true}'
        miss_queries(monkeypatch, misses)
        report = run_representation(RunConfig(make_problem("sphere", 3), 0.1))
        assert report.stalled_boxes == len(misses)
        assert json.loads(report_path.read_text())["stalledBoxes"] == len(misses)
        expected = tmp_path / "expected.csv"
        write_points_csv(str(expected), report.points, 3)
        assert out.read_bytes() == expected.read_bytes()

    def test_report_matches_in_process_run(self, tmp_path):
        answer = lambda q: encode_solution(solve_quadric_ps(q, (1.0, 1.0)))
        report_path = tmp_path / "report.json"
        proc, _, _ = self.serve(
            tmp_path, {"l0": [-1.0, -1.0], "u0": [0.0, 0.0]},
            args=("--report", str(report_path)), answer=answer,
        )
        assert proc.returncode == 0
        served = json.loads(report_path.read_text())
        expected = _report_dict(run_representation(RunConfig(make_problem("sphere", 2), 0.3)))
        timings = {"wallTimeMs", "wallTimeRegionMs", "wallTimeSolveMs"}
        assert set(served) == set(expected) - {"problem"}
        for key in set(served) - timings:
            assert served[key] == expected[key], key
        assert served["m"] == 2
        assert served["iterations"] > 0 and served["truncated"] is False
        assert 0 < served["wallTimeRegionMs"] + served["wallTimeSolveMs"] <= served["wallTimeMs"]

    def test_report_scans_nothing(self, tmp_path, monkeypatch, capsys):
        # The answers are known in advance, so serve can run in-process.
        session = Session(Box((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)), 0.3)
        answers = []
        while (query := session.next_query()) is not None:
            solution = solve_quadric_ps(query, (1.0, 1.0))
            answers.append(encode_solution(solution) + "\n")
            session.submit(solution)
        box_file = tmp_path / "box.json"
        box_file.write_text('{"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}')
        report_path = tmp_path / "report.json"

        def refuse(*args):
            raise AssertionError("L x U scanned")

        monkeypatch.setattr(reference, "_largest_box_scan", refuse)
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(answers)))
        code = run_cli("serve", "--epsilon", "0.3", "--start-box", str(box_file),
                       "--report", str(report_path))
        capsys.readouterr()
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cardinality"] == len(answers)
        assert report["finalMaxBoxSize"] == session.final_max_box_size() <= 0.3

    @pytest.mark.parametrize(
        "limits",
        [["--epsilon", "0"], ["--epsilon", "0.3", "--max-iterations", "0"], ["--epsilon", "nan"]],
    )
    def test_bad_limit_exits_2(self, tmp_path, capsys, limits):
        box_file = tmp_path / "box.json"
        box_file.write_text('{"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}')
        code = run_cli("serve", "--start-box", str(box_file), *limits)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_start_box_exits_2(self, tmp_path):
        box_file = tmp_path / "box.json"
        box_file.write_text('{"l0": [0, 0]}')
        proc = subprocess.run(
            [sys.executable, "-m", "hyperboxing.cli", "serve",
             "--epsilon", "0.3", "--start-box", str(box_file)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "bad start box" in proc.stderr

    @pytest.mark.parametrize("box", ['{"l0": [0, 0], "u0": [1, Infinity]}',
                                     '{"l0": [0, NaN], "u0": [1, 1]}',
                                     '{"l0": [], "u0": []}'])
    def test_degenerate_start_box_exits_2(self, tmp_path, capsys, box):
        box_file = tmp_path / "box.json"
        box_file.write_text(box)
        code = run_cli("serve", "--epsilon", "0.3", "--start-box", str(box_file))
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad start box file: ")

    def test_malformed_solver_line_exits_1(self, tmp_path):
        answer = lambda q: "this is not json"
        proc, _, _ = self.serve(
            tmp_path, {"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}, answer=answer
        )
        assert proc.returncode == 1
        assert "malformed" in proc.stderr.read()

    def test_nan_answer_exits_1(self, tmp_path):
        def answer(query):
            record = json.loads(encode_solution(solve_quadric_ps(query, (1.0, 1.0))))
            record["alpha"] = math.nan
            return json.dumps(record)  # writes the bare token NaN
        proc, _, transcript = self.serve(
            tmp_path, {"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}, answer=answer
        )
        assert proc.returncode == 1
        assert len(transcript) == 1
        err = proc.stderr.read()
        assert err.startswith("error: line 1: ") and "non-finite alpha" in err
        assert "Traceback" not in err

    def test_boolean_and_string_answer_exits_1(self, tmp_path):
        answer = lambda q: ('{"query_id": 0.9, "alpha": true, '
                            '"z": ["-0.5", false], "lambda": [0, 0]}')
        proc, _, transcript = self.serve(
            tmp_path, {"l0": [-1.0, -1.0], "u0": [0.0, 0.0]}, answer=answer
        )
        assert proc.returncode == 1
        assert len(transcript) == 1
        err = proc.stderr.read()
        assert err.startswith("error: line 1: ") and "query_id must be an integer" in err
        assert "Traceback" not in err

    def test_iteration_cap_exits_1_after_writing_outputs(self, tmp_path):
        answer = lambda q: encode_solution(solve_quadric_ps(q, (1.0, 1.0, 1.0)))
        report_path = tmp_path / "report.json"
        proc, out, transcript = self.serve(
            tmp_path, {"l0": [-1.0, -1.0, -1.0], "u0": [0.0, 0.0, 0.0]},
            args=("--max-iterations", "3", "--report", str(report_path)), answer=answer,
        )
        assert proc.returncode == 1
        assert "partial" in proc.stderr.read()
        assert transcript[-1].strip() == '{"done": true}'
        assert len(transcript) == 4
        report = json.loads(report_path.read_text())
        assert report["truncated"] is True
        assert report["iterations"] == 3
        assert len(out.read_text().splitlines()) == report["cardinality"] + 1
