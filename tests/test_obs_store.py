"""Tests for repro.obs.store: BENCH_*.json persistence and the
regression comparison that CI's bench-smoke job keys off."""

import json

import pytest

from repro.analysis import ExperimentReport
from repro.obs import BenchStore
from repro.obs.store import BenchRecord


def make_reports(rounds_e1=(10, 20), rounds_e2=30):
    r1 = ExperimentReport("E1", "first experiment")
    for seed, rounds in enumerate(rounds_e1):
        r1.add({"seed": seed, "n": 8}, measured=rounds, bound=rounds * 2,
               worst=float("inf"))
    r2 = ExperimentReport("E2", "second experiment")
    r2.add({"n": 12}, measured=rounds_e2, bound=None)
    return [r1, r2]


class TestBenchRecord:
    def test_reports_round_trip(self):
        rec = BenchRecord.from_reports("x", make_reports(), created="t0")
        back = rec.to_reports()
        assert [r.experiment for r in back] == ["E1", "E2"]
        assert back[0].rows[0].measured == 10
        assert back[0].rows[0].extra["worst"] == float("inf")

    def test_row_index_keys_on_experiment_and_params(self):
        rec = BenchRecord.from_reports("x", make_reports())
        idx = rec.row_index()
        assert len(idx) == 3
        key = ("E1", json.dumps({"n": 8, "seed": 0}, sort_keys=True))
        assert idx[key]["measured"] == 10


class TestBenchStore:
    def test_save_load_round_trip(self, tmp_path):
        store = BenchStore(tmp_path)
        path = store.save("run1", make_reports())
        assert path == tmp_path / "BENCH_run1.json"
        assert store.exists("run1") and store.names() == ["run1"]
        rec = store.load("run1")
        assert rec.name == "run1"
        # non-finite floats survive the JSON encoding
        assert rec.rows[0]["extra"]["worst"] == float("inf")
        data = json.loads(path.read_text())
        assert data["format"] == 1

    def test_name_validation(self, tmp_path):
        store = BenchStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../evil")

    def test_identical_runs_diff_clean(self, tmp_path):
        """The acceptance criterion: two identical runs produce a clean
        comparison with exit code 0."""
        store = BenchStore(tmp_path)
        store.save("a", make_reports())
        store.save("b", make_reports())
        rep = store.compare("a", "b")
        assert not rep.regressions and not rep.improvements
        assert rep.exit_code == 0
        assert "clean" in rep.render()

    def test_20_percent_regression_detected(self, tmp_path):
        """The acceptance criterion: a +20% round count regresses past
        the default 10% tolerance and the exit code goes non-zero."""
        store = BenchStore(tmp_path)
        store.save("base", make_reports(rounds_e1=(10, 20)))
        store.save("cur", make_reports(rounds_e1=(12, 20)))  # 10 -> 12: +20%
        rep = store.compare("base", "cur", tolerance=0.1)
        assert len(rep.regressions) == 1
        assert rep.exit_code != 0
        [delta] = rep.regressions
        assert delta.experiment == "E1" and delta.ratio == pytest.approx(1.2)
        assert "REGRESSED" in rep.render()

    def test_within_tolerance_is_clean(self, tmp_path):
        store = BenchStore(tmp_path)
        store.save("base", make_reports(rounds_e2=30))
        store.save("cur", make_reports(rounds_e2=32))  # +6.7% < 10%
        assert store.compare("base", "cur").exit_code == 0

    def test_improvement_is_not_a_regression(self, tmp_path):
        store = BenchStore(tmp_path)
        store.save("base", make_reports(rounds_e2=30))
        store.save("cur", make_reports(rounds_e2=20))
        rep = store.compare("base", "cur")
        assert rep.exit_code == 0 and len(rep.improvements) == 1

    def test_per_experiment_tolerances(self, tmp_path):
        store = BenchStore(tmp_path)
        store.save("base", make_reports(rounds_e2=30))
        store.save("cur", make_reports(rounds_e2=32))
        rep = store.compare("base", "cur", tolerances={"E2": 0.0})
        assert rep.exit_code != 0

    def test_added_and_removed_rows_never_fail(self, tmp_path):
        store = BenchStore(tmp_path)
        store.save("base", make_reports())
        extra = make_reports()
        extra[0].add({"seed": 9, "n": 8}, measured=5)
        store.save("cur", extra)
        rep = store.compare("base", "cur")
        assert rep.only_in_current and rep.exit_code == 0
        assert store.compare("cur", "base").only_in_baseline

    def test_missing_record_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            BenchStore(tmp_path).load("nope")


class TestAtomicWrites:
    def test_interrupted_save_never_corrupts_existing_record(
            self, tmp_path, monkeypatch):
        """A save that dies mid-write (here: os.replace refused) leaves
        the previous BENCH_*.json bytes untouched and no temp litter --
        a killed benchmark run must never truncate the record a later
        ``repro bench --baseline`` diff depends on."""
        import repro.obs.store as store_mod

        store = BenchStore(tmp_path)
        good = store.save("run", make_reports(), created="pinned")
        before = good.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            store.save("run", make_reports(rounds_e2=99), created="pinned")
        monkeypatch.undo()
        assert good.read_bytes() == before          # old record intact
        assert store.load("run").rows               # and still parseable
        assert not list(tmp_path.glob("*.tmp*"))    # temp file cleaned up

    def test_half_written_temp_file_is_invisible(self, tmp_path):
        """A temp file left by a killed writer (no cleanup ran) is not a
        record: names() skips it and load() never sees it."""
        store = BenchStore(tmp_path)
        store.save("real", make_reports())
        (tmp_path / "BENCH_ghost.json.tmp4242").write_text('{"name": "gho')
        assert store.names() == ["real"]
        assert not store.exists("ghost")
        with pytest.raises(FileNotFoundError):
            store.load("ghost")

    def test_atomic_write_text_replaces_in_one_step(self, tmp_path):
        from repro.obs.store import atomic_write_text

        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]
