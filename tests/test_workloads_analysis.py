"""Workload generators and the analysis/measurement layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    LatencyRecorder,
    StorageAccounting,
    Sweep,
    format_table,
)
from repro.analysis.harness import SweepResult
from repro.analysis.figures import ascii_series, multi_series_to_csv, series_to_csv
from repro.analysis.tables import (
    PUBLISHED_TABLE1,
    render_table1,
    render_table2,
    table1_data,
    table1_matches_paper,
    table2_data,
)
from repro.workloads import (
    ForensicCaseWorkload,
    QueryWorkload,
    WorkflowShape,
    ZipfSampler,
)


class TestZipf:
    def test_skew_favours_head(self):
        sampler = ZipfSampler(100, s=1.2, seed=1)
        samples = sampler.sample_many(2000)
        head = sum(1 for s in samples if s == 0)
        tail = sum(1 for s in samples if s == 99)
        assert head > 10 * max(tail, 1)

    def test_zero_skew_roughly_uniform(self):
        sampler = ZipfSampler(10, s=0.0, seed=1)
        samples = sampler.sample_many(5000)
        counts = [samples.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_deterministic(self):
        a = ZipfSampler(50, seed=9).sample_many(100)
        b = ZipfSampler(50, seed=9).sample_many(100)
        assert a == b

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=200))
    def test_samples_in_range(self, n):
        sampler = ZipfSampler(n, seed=0)
        assert all(0 <= s < n for s in sampler.sample_many(50))


class TestGenerators:
    def test_workflow_shape_is_dag(self):
        specs = WorkflowShape(n_tasks=30, fanout=3, seed=2).tasks()
        produced = {"external-input"}
        for spec in specs:
            assert all(i in produced for i in spec["inputs"])
            produced.update(spec["outputs"])

    def test_forensic_plan_dependencies_exist(self):
        plan = ForensicCaseWorkload(n_evidence=15, seed=3).plan()
        seen = set()
        for item in plan["evidence"]:
            for dep in item["depends_on"]:
                assert dep in seen
            seen.add(item["evidence_id"])

    def test_query_workload_repeats_under_zipf(self):
        workload = QueryWorkload(subjects=[f"s{i}" for i in range(50)],
                                 zipf_s=1.3, seed=2)
        queries = workload.queries(500)
        # Skew: the hottest subject dominates — that is what makes the
        # repeated-query cache (paper §6.2) pay off.
        head_share = queries.count(max(set(queries), key=queries.count))
        assert head_share > 50          # >10% of 500 queries hit one subject
        assert len(set(queries)) < len(queries)


class TestMetrics:
    def test_latency_percentiles(self):
        recorder = LatencyRecorder()
        for v in range(1, 101):
            recorder.record(v)
        assert recorder.percentile(50) == 50
        assert recorder.percentile(99) == 99
        assert recorder.percentile(100) == 100
        assert recorder.mean() == pytest.approx(50.5)

    def test_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(50)

    def test_time_block_records(self):
        recorder = LatencyRecorder()
        with recorder.time_block():
            sum(range(1000))
        assert recorder.count == 1
        assert recorder.percentile(100) >= 0

    def test_storage_accounting(self):
        acct = StorageAccounting()
        acct.add_on_chain(100, label="anchor")
        acct.add_off_chain(900, label="payload")
        assert acct.total == 1000
        assert acct.on_chain_fraction() == pytest.approx(0.1)
        assert acct.expansion_factor(500) == pytest.approx(2.0)

    def test_latency_summary(self):
        recorder = LatencyRecorder()
        for v in range(1, 201):
            recorder.record(v)
        assert recorder.summary() == {"count": 200, "mean": 100.5,
                                      "p50": 100, "p95": 190, "p99": 198,
                                      "max": 200}
        with pytest.raises(ValueError):
            LatencyRecorder().summary()

    def test_proof_bytes_are_kept_apart_from_the_split(self):
        acct = StorageAccounting()
        acct.add_on_chain(40)
        acct.add_proof(300)
        assert acct.proof_bytes == 300
        assert (acct.total, acct.on_chain_fraction()) == (40, 1.0)
        assert StorageAccounting().on_chain_fraction() == 0.0


class TestSweepAndTables:
    def test_sweep_rows(self):
        result = Sweep("x", [1, 2, 3], lambda x: {"y": x * 2}).run()
        assert result.column("y") == [2, 4, 6]
        assert result.is_monotonic("y")
        assert not result.is_monotonic("y", increasing=False)

    def test_sweep_renders_its_rows(self):
        result = Sweep("x", [1, 2, 3], lambda x: {"y": x * 2}).run()
        lines = result.to_table().splitlines()
        assert lines[0].split() == list(result.rows[0])
        assert [line.split()[-1] for line in lines[2:]] == ["2", "4", "6"]
        assert result.to_table(["y"]).splitlines()[0].strip() == "y"
        assert SweepResult("x").to_table() == "(empty sweep)"

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}], ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a")

    def test_table1_regenerates_published_table(self):
        assert table1_matches_paper()
        assert table1_data() == PUBLISHED_TABLE1

    def test_render_table1_contains_all_fields(self):
        text = render_table1()
        for fields in PUBLISHED_TABLE1.values():
            for field in fields:
                assert field in text

    def test_table2_covers_all_five_domains(self):
        data = table2_data()
        assert set(data) == {"scientific", "digital_forensics",
                             "machine_learning", "supply_chain",
                             "healthcare"}
        text = render_table2()
        assert "Illegitimate product registration" in text

    def test_every_table2_claim_names_real_module(self):
        import importlib

        for considerations in table2_data().values():
            for _, implementation in considerations:
                module_path = implementation.split()[0]
                parts = module_path.split(".")
                # Walk as deep as the module goes, then check attributes.
                module = None
                for depth in range(len(parts), 0, -1):
                    try:
                        module = importlib.import_module(
                            "repro." + ".".join(parts[:depth])
                        )
                        remainder = parts[depth:]
                        break
                    except ModuleNotFoundError:
                        continue
                assert module is not None, module_path
                target = module
                for attr in remainder:
                    target = getattr(target, attr)


class TestFigureHelpers:
    def test_sparkline_length(self):
        assert len(ascii_series([1, 2, 3])) == 3

    def test_sparkline_downsamples(self):
        assert len(ascii_series(list(range(1000)), width=60)) == 60

    def test_flat_series(self):
        spark = ascii_series([5, 5, 5])
        assert len(set(spark)) == 1

    def test_csv_output(self):
        csv = series_to_csv([1, 2], [10, 20], "n", "cost")
        assert csv.splitlines() == ["n,cost", "1,10", "2,20"]

    def test_multi_series_csv(self):
        csv = multi_series_to_csv([1, 2], {"a": [3, 4], "b": [5, 6]})
        assert csv.splitlines()[0] == "x,a,b"
        assert csv.splitlines()[2] == "2,4,6"
