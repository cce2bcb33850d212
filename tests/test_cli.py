"""Tests for the command-line interface (python -m repro)."""

import re

import pytest

from repro.cli import main
from repro.workloads import (
    AUCTION_DTD,
    BIB_DTD_STRONG,
    BIB_DTD_WEAK,
    get_query,
    queries_for_workload,
)
from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3


@pytest.fixture
def files(tmp_path):
    query = tmp_path / "query.xq"
    query.write_text(PAPER_Q3)
    document = tmp_path / "document.xml"
    document.write_text(PAPER_DOCUMENT)
    dtd = tmp_path / "schema.dtd"
    dtd.write_text(PAPER_FIGURE1_DTD)
    return {"query": str(query), "document": str(document), "dtd": str(dtd), "dir": tmp_path}


class TestRunCommand:
    def test_run_writes_result_to_stdout(self, files, capsys):
        exit_code = main(["run", "--query", files["query"], "--input", files["document"],
                          "--dtd", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.startswith("<results>")
        assert "peak buffer: 0 B" in captured.err

    def test_run_writes_result_to_file(self, files, capsys):
        output = files["dir"] / "out.xml"
        exit_code = main(["run", "-q", files["query"], "-i", files["document"],
                          "-d", files["dtd"], "-o", str(output)])
        assert exit_code == 0
        assert output.read_text().startswith("<results>")

    def test_run_without_dtd(self, files, capsys):
        exit_code = main(["run", "-q", files["query"], "-i", files["document"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.startswith("<results>")

    def test_run_uses_embedded_doctype(self, files, capsys):
        document = files["dir"] / "with_doctype.xml"
        document.write_text(f"<!DOCTYPE bib [{PAPER_FIGURE1_DTD}]>\n{PAPER_DOCUMENT}")
        exit_code = main(["run", "-q", files["query"], "-i", str(document)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "peak buffer: 0 B" in captured.err


class TestExplainCommand:
    def test_explain_prints_flux_and_bdf(self, files, capsys):
        exit_code = main(["explain", "-q", files["query"], "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "process-stream" in captured.out
        assert "Buffer description forest" in captured.out
        assert "safe" in captured.out


class TestOutputConsistency:
    def test_file_and_stdout_results_are_identical(self, files, capsys):
        """--output files carry the same trailing newline as stdout."""
        output = files["dir"] / "out.xml"
        main(["run", "-q", files["query"], "-i", files["document"],
              "-d", files["dtd"], "-o", str(output)])
        main(["run", "-q", files["query"], "-i", files["document"],
              "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert output.read_text() == captured.out
        assert captured.out.endswith("\n")


class TestMultiCommand:
    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        (queries / "titles.xq").write_text(
            "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"
        )
        (queries / "notes.txt").write_text("not a query")
        return queries

    def test_multi_runs_all_queries_in_one_pass(self, files, query_dir, capsys):
        exit_code = main(["multi", "--queries", str(query_dir),
                          "-i", files["document"], "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "<!-- q3 -->" in captured.out
        assert "<!-- titles -->" in captured.out
        assert "<titles>" in captured.out
        assert "[shared pass] 2 queries" in captured.err
        assert "saved vs. solo runs" in captured.err

    def test_multi_matches_solo_run(self, files, query_dir, capsys):
        outdir = files["dir"] / "results"
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"], "-O", str(outdir)])
        assert exit_code == 0
        main(["run", "-q", files["query"], "-i", files["document"],
              "-d", files["dtd"]])
        solo_stdout = capsys.readouterr().out
        assert (outdir / "q3.xml").read_text() == solo_stdout

    def test_multi_writes_json_metrics(self, files, query_dir, capsys):
        import json

        json_path = files["dir"] / "metrics.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"], "-j", str(json_path)])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["last_pass"]["queries"] == 2
        assert payload["plan_cache"]["misses"] == 2
        assert set(payload["results"]) == {"q3", "titles"}

    def test_multi_without_queries_errors(self, files, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        exit_code = main(["multi", "-Q", str(empty), "-i", files["document"]])
        assert exit_code == 2
        assert "no *.xq files" in capsys.readouterr().err

    def test_multi_with_blank_query_file_errors(self, files, query_dir, capsys):
        # A blank *.xq must exit with a clear message naming the file, not
        # open a pass (or dump a parser traceback).
        (query_dir / "blank.xq").write_text("   \n")
        exit_code = main(["multi", "-Q", str(query_dir),
                          "-i", files["document"], "-d", files["dtd"]])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "blank.xq" in err and "empty" in err

    def test_multi_requires_exactly_one_document_source(self, files, query_dir, capsys):
        assert main(["multi", "-Q", str(query_dir)]) == 2
        assert "exactly one of --input or --documents" in capsys.readouterr().err
        assert main(["multi", "-Q", str(query_dir), "-i", files["document"],
                     "-D", files["document"]]) == 2


class TestMultiServeLoop:
    """`multi --documents`: the serving loop in one process."""

    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        return queries

    @pytest.fixture
    def documents(self, files):
        paths = []
        for index in range(3):
            path = files["dir"] / f"doc{index}.xml"
            path.write_text(
                "<bib><book><title>T%d</title><author>A</author>"
                "<publisher>P</publisher><price>%d.00</price></book></bib>"
                % (index, index)
            )
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("execution", ["inline", "async"])
    def test_documents_serve_loop_all_modes(
        self, files, query_dir, documents, execution, capsys
    ):
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "--execution", execution])
        captured = capsys.readouterr()
        assert exit_code == 0
        for index in range(3):
            assert f"<!-- doc{index}/q3 -->" in captured.out
            assert f"T{index}" in captured.out
        assert "[serve] 3 documents" in captured.err

    def test_removed_threads_value_is_an_argparse_error(
        self, files, query_dir, documents, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            main(["multi", "-Q", str(query_dir), "-D", *documents,
                  "-d", files["dtd"], "--execution", "threads"])
        assert raised.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err

    def test_documents_output_dir_is_per_document(self, files, query_dir, documents):
        outdir = files["dir"] / "served"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(outdir)])
        assert exit_code == 0
        for index in range(3):
            assert (outdir / f"doc{index}" / "q3.xml").exists()

    def test_documents_json_has_per_pass_metrics(self, files, query_dir, documents):
        import json

        json_path = files["dir"] / "serve.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-x", "async", "-j", str(json_path)])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["execution"] == "async"
        assert payload["passes_completed"] == 3
        assert [entry["label"] for entry in payload["documents"]] == [
            "doc0", "doc1", "doc2"
        ]
        assert set(payload["results"]) == {f"doc{i}/q3" for i in range(3)}

    def test_single_document_loop_keeps_flat_output(self, files, query_dir, capsys):
        # --documents with one path behaves like --input: no label prefixes.
        exit_code = main(["multi", "-Q", str(query_dir),
                          "-D", files["document"], "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "<!-- q3 -->" in captured.out
        assert "[serve]" not in captured.err


class TestMultiPool:
    """`multi --workers N`: the fault-isolated service pool."""

    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        return queries

    @pytest.fixture
    def documents(self, files):
        paths = []
        for index in range(4):
            path = files["dir"] / f"doc{index}.xml"
            path.write_text(
                "<bib><book><title>T%d</title><author>A</author>"
                "<publisher>P</publisher><price>%d.00</price></book></bib>"
                % (index, index)
            )
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("execution", ["inline", "async"])
    def test_pool_serves_all_documents(
        self, files, query_dir, documents, execution, capsys
    ):
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "--workers", "2",
                          "--execution", execution])
        captured = capsys.readouterr()
        assert exit_code == 0
        for index in range(4):
            assert f"<!-- doc{index}/q3 -->" in captured.out
            assert f"T{index}" in captured.out
        assert "[pool] 2 workers" in captured.err
        assert "4 documents (0 failed)" in captured.err

    def test_pool_isolates_a_failing_document(
        self, files, query_dir, documents, capsys
    ):
        bad = files["dir"] / "broken.xml"
        bad.write_text("<bib><book>")
        stream = documents[:2] + [str(bad)] + documents[2:]
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *stream,
                          "-d", files["dtd"], "--workers", "2"])
        captured = capsys.readouterr()
        assert exit_code == 1  # a failed document makes the exit nonzero
        for index in range(4):
            assert f"T{index}" in captured.out  # every good document served
        assert "[broken] ERROR: XMLSyntaxError" in captured.err
        assert "(1 failed)" in captured.err

    def test_pool_json_tags_outcome_and_worker(
        self, files, query_dir, documents
    ):
        import json

        bad = files["dir"] / "broken.xml"
        bad.write_text("<bib><book>")
        json_path = files["dir"] / "pool.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-D",
                          documents[0], str(bad), documents[1],
                          "-d", files["dtd"], "--workers", "2",
                          "-j", str(json_path)])
        assert exit_code == 1
        payload = json.loads(json_path.read_text())
        assert payload["workers"] == 2
        assert payload["documents_failed"] == 1
        by_label = {entry["label"]: entry for entry in payload["documents"]}
        assert by_label["broken"]["outcome"] == "error"
        assert by_label["broken"]["error"]  # the exception's message
        assert by_label["doc0"]["outcome"] == "ok"
        assert by_label["doc0"]["error"] is None
        assert by_label["doc0"]["worker"] in (0, 1)
        # Failed documents contribute no results.
        assert set(payload["results"]) == {"doc0/q3", "doc1/q3"}
        # The shared cache compiled the fleet's one query exactly once.
        assert payload["plan_cache"]["misses"] == 1

    def test_explicit_workers_one_is_still_a_pool(
        self, files, query_dir, documents, capsys
    ):
        # --workers 1 buys fault isolation (a pool of one), unlike the
        # default all-or-nothing serve loop.
        bad = files["dir"] / "broken.xml"
        bad.write_text("<bib><book>")
        exit_code = main(["multi", "-Q", str(query_dir), "-D",
                          documents[0], str(bad), documents[1],
                          "-d", files["dtd"], "--workers", "1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "[broken] ERROR: XMLSyntaxError" in captured.err
        assert "T0" in captured.out and "T1" in captured.out
        assert "[pool] 1 workers" in captured.err

    @pytest.mark.parametrize(
        "mode",
        [["--backend", "threads"], ["--execution", "async"],
         ["--backend", "processes"]],
        ids=["threads", "async", "processes"],
    )
    def test_pool_reports_a_missing_file_as_a_failed_document(
        self, files, query_dir, documents, mode, capsys
    ):
        # An unopenable document is a failed *document* on every pooled
        # backend: reported, the rest of the stream served, exit 1.
        missing = str(files["dir"] / "missing.xml")
        exit_code = main(["multi", "-Q", str(query_dir), "-D",
                          documents[0], missing, documents[1],
                          "-d", files["dtd"], "--workers", "2", *mode])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "[missing] ERROR: FileNotFoundError" in captured.err
        assert "T0" in captured.out and "T1" in captured.out
        assert "3 documents (1 failed)" in captured.err

    def test_workers_must_be_positive(self, files, query_dir, capsys):
        exit_code = main(["multi", "-Q", str(query_dir),
                          "-i", files["document"], "--workers", "0"])
        assert exit_code == 2
        assert "--workers" in capsys.readouterr().err


class TestMultiProcessBackend:
    """`multi --backend processes`: the multi-process pool from the CLI."""

    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        return queries

    @pytest.fixture
    def documents(self, files):
        paths = []
        for index in range(3):
            path = files["dir"] / f"doc{index}.xml"
            path.write_text(
                "<bib><book><title>T%d</title><author>A</author>"
                "<publisher>P</publisher><price>%d.00</price></book></bib>"
                % (index, index)
            )
            paths.append(str(path))
        return paths

    def test_process_backend_serves_and_reports_shipping(
        self, files, query_dir, documents, capsys
    ):
        import json

        json_path = files["dir"] / "processes.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "--workers", "2",
                          "--backend", "processes", "-j", str(json_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        for index in range(3):
            assert f"<!-- doc{index}/q3 -->" in captured.out
            assert f"T{index}" in captured.out
        assert "[pool] 2 workers (processes)" in captured.err
        assert "plans shipped" in captured.err
        payload = json.loads(json_path.read_text())
        assert payload["backend"] == "processes"
        # Compile-once across the process boundary: one parent miss, one
        # artifact shipped per (worker, query).
        assert payload["plan_cache"]["misses"] == 1
        assert payload["ship_count"] == 2
        assert payload["ship_bytes"] > 0

    def test_process_backend_isolates_a_failing_document(
        self, files, query_dir, documents, capsys
    ):
        bad = files["dir"] / "broken.xml"
        bad.write_text("<bib><book>")
        exit_code = main(["multi", "-Q", str(query_dir), "-D",
                          documents[0], str(bad), documents[1],
                          "-d", files["dtd"], "--workers", "2",
                          "--backend", "processes"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "[broken] ERROR: XMLSyntaxError" in captured.err
        assert "T0" in captured.out and "T1" in captured.out

    def test_unset_execution_is_inline_for_every_backend(
        self, files, query_dir, documents
    ):
        import json

        json_path = files["dir"] / "exec.json"
        assert main(["multi", "-Q", str(query_dir), "-D", *documents,
                     "-d", files["dtd"], "--workers", "2",
                     "--backend", "processes", "-j", str(json_path)]) == 0
        assert json.loads(json_path.read_text())["execution"] == "inline"
        json_path2 = files["dir"] / "exec2.json"
        assert main(["multi", "-Q", str(query_dir), "-D", *documents,
                     "-d", files["dtd"], "-j", str(json_path2)]) == 0
        assert json.loads(json_path2.read_text())["execution"] == "inline"

    def test_process_backend_requires_workers(self, files, query_dir, capsys):
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"], "--backend", "processes"])
        assert exit_code == 2
        assert "--backend processes requires --workers" in capsys.readouterr().err

    def test_process_backend_rejects_async_execution(
        self, files, query_dir, capsys
    ):
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"], "--backend", "processes",
                          "--workers", "2", "--execution", "async"])
        assert exit_code == 2
        assert "async" in capsys.readouterr().err


class TestMultiPlanCacheFile:
    """`multi --plan-cache-file`: warm-start persistence."""

    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        return queries

    def test_second_run_compiles_nothing(self, files, query_dir, capsys):
        import json

        cache_file = files["dir"] / "plans.bin"
        json_path = files["dir"] / "first.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"],
                          "--plan-cache-file", str(cache_file),
                          "-j", str(json_path)])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "snapshot saved: 1 plans" in err
        assert json.loads(json_path.read_text())["plan_cache"]["misses"] == 1
        assert cache_file.exists()

        json_path2 = files["dir"] / "second.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"],
                          "--plan-cache-file", str(cache_file),
                          "-j", str(json_path2)])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "warm start: 1 plans loaded" in err
        payload = json.loads(json_path2.read_text())
        assert payload["plan_cache"]["misses"] == 0
        assert payload["plan_cache"]["preloaded"] == 1
        assert payload["plan_cache"]["hits"] == 1

    def test_warm_start_works_with_the_process_backend(
        self, files, query_dir, capsys
    ):
        import json

        cache_file = files["dir"] / "plans.bin"
        assert main(["multi", "-Q", str(query_dir), "-i", files["document"],
                     "-d", files["dtd"],
                     "--plan-cache-file", str(cache_file)]) == 0
        capsys.readouterr()
        json_path = files["dir"] / "processes.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"], "--workers", "2",
                          "--backend", "processes",
                          "--plan-cache-file", str(cache_file),
                          "-j", str(json_path)])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        # The process pool compiled nothing: its plans came from the
        # snapshot and were shipped to the workers from there.
        assert payload["plan_cache"]["misses"] == 0
        assert payload["ship_count"] == 2

    def test_corrupt_cache_file_is_a_clean_error(self, files, query_dir, capsys):
        cache_file = files["dir"] / "plans.bin"
        cache_file.write_bytes(b"garbage")
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"],
                          "--plan-cache-file", str(cache_file)])
        assert exit_code == 2
        assert "snapshot" in capsys.readouterr().err

    def test_malformed_cache_file_is_a_clean_error(self, files, query_dir, capsys):
        import pickle

        from repro.runtime.plan_cache import PlanCache

        cache_file = files["dir"] / "plans.bin"
        cache_file.write_bytes(pickle.dumps(
            {"format": PlanCache.SNAPSHOT_FORMAT,
             "version": PlanCache.SNAPSHOT_VERSION}
        ))
        exit_code = main(["multi", "-Q", str(query_dir), "-i", files["document"],
                          "-d", files["dtd"],
                          "--plan-cache-file", str(cache_file)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("multi: ") and str(cache_file) in err


#: Counter families the registry no longer carries: each duplicated a
#: lifetime total that the service/pool gauges already publish.
DELETED_FAMILIES = (
    "repro_passes_total", "repro_events_total", "repro_results_total",
    "repro_document_bytes_total", "repro_subtrees_pruned_total",
)


class TestObservabilityFlags:
    """`multi --metrics-out/--trace-out/--log-json` and `stats`."""

    @pytest.fixture
    def query_dir(self, files):
        queries = files["dir"] / "queries"
        queries.mkdir()
        (queries / "q3.xq").write_text(PAPER_Q3)
        return queries

    @pytest.fixture
    def documents(self, files):
        paths = []
        for index in range(2):
            path = files["dir"] / f"doc{index}.xml"
            path.write_text(
                "<bib><book><title>T%d</title><author>A</author>"
                "<publisher>P</publisher><price>%d.00</price></book></bib>"
                % (index, index)
            )
            paths.append(str(path))
        return paths

    def test_metrics_out_writes_json_and_prometheus(
        self, files, query_dir, documents, capsys
    ):
        import json as json_module

        from repro.obs.validate import validate_prometheus_text

        metrics = files["dir"] / "metrics.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "--metrics-out", str(metrics)])
        assert exit_code == 0
        snapshot = json_module.loads(metrics.read_text())
        assert snapshot["repro_service_passes_completed"]["values"][0]["value"] == 2
        assert "repro_stage_duration_seconds" in snapshot
        assert "repro_plan_cache_misses" in snapshot
        prom = (files["dir"] / "metrics.json.prom").read_text()
        assert validate_prometheus_text(prom) == []
        assert "# TYPE repro_service_passes_completed gauge" in prom

    @pytest.mark.parametrize(
        "mode",
        [[], ["-w", "2"], ["-w", "2", "--backend", "processes"]],
        ids=["inline", "threads", "processes"],
    )
    def test_snapshot_publishes_every_counter_once(
        self, files, query_dir, documents, mode, capsys
    ):
        import json as json_module
        import os

        from repro.obs.validate import validate_prometheus_text

        metrics = files["dir"] / "metrics.json"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "--metrics-out", str(metrics), *mode])
        assert exit_code == 0
        snapshot = json_module.loads(metrics.read_text())
        for family in DELETED_FAMILIES:
            assert family not in snapshot
        prefix = "repro_pool" if mode else "repro_service"
        (passes,) = snapshot["repro_pass_duration_seconds"]["values"]
        assert (
            snapshot[f"{prefix}_passes_completed"]["values"][0]["value"]
            == passes["count"]
            == len(documents)
        )
        assert snapshot[f"{prefix}_document_bytes_total"]["values"][0]["value"] == sum(
            os.path.getsize(path) for path in documents
        )
        gauges = [name for name, family in snapshot.items() if family["kind"] == "gauge"]
        assert all(name.startswith((prefix, "repro_plan_cache_")) for name in gauges)
        assert set(snapshot) - set(gauges) == {
            "repro_stage_duration_seconds", "repro_pass_duration_seconds"
        }
        prom = (files["dir"] / "metrics.json.prom").read_text()
        assert validate_prometheus_text(prom) == []

    def test_metrics_out_is_written_when_the_serve_loop_fails(
        self, files, query_dir, documents, capsys
    ):
        import json as json_module

        from repro.errors import XMLSyntaxError

        bad = files["dir"] / "bad.xml"
        bad.write_text("<bib><book>")
        metrics = files["dir"] / "metrics.json"
        with pytest.raises(XMLSyntaxError):
            main(["multi", "-Q", str(query_dir), "-D", documents[0], str(bad),
                  "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                  "--metrics-out", str(metrics)])
        # The all-or-nothing loop still raises, but the snapshot describes
        # the pass that completed before the failing document.
        snapshot = json_module.loads(metrics.read_text())
        assert snapshot["repro_service_passes_completed"]["values"][0]["value"] == 1
        (passes,) = snapshot["repro_pass_duration_seconds"]["values"]
        assert passes["count"] == 1
        assert (files["dir"] / "metrics.json.prom").exists()

    def test_trace_out_writes_one_trace_per_document(
        self, files, query_dir, documents, capsys
    ):
        import json as json_module

        from repro.obs.validate import TRACE_KEYS, validate_json_lines

        trace = files["dir"] / "trace.jsonl"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "--trace-out", str(trace)])
        assert exit_code == 0
        lines = trace.read_text().splitlines()
        assert validate_json_lines(lines, TRACE_KEYS) == []
        spans = [json_module.loads(line) for line in lines]
        assert len({span["trace_id"] for span in spans}) == 2
        assert {span["name"] for span in spans} >= {"pass", "pass.route"}

    def test_log_json_file_and_stderr(self, files, query_dir, documents, capsys):
        from repro.obs.validate import LOG_KEYS, validate_json_lines

        events = files["dir"] / "events.jsonl"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "--log-json", str(events)])
        assert exit_code == 0
        lines = events.read_text().splitlines()
        assert validate_json_lines(lines, LOG_KEYS) == []
        capsys.readouterr()
        # Bare --log-json goes to stderr instead.
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "--log-json"])
        assert exit_code == 0
        assert '"event": "pass.finish"' in capsys.readouterr().err

    def test_removed_profile_flag_is_an_argparse_error(
        self, files, query_dir, documents, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            main(["multi", "-Q", str(query_dir), "-D", *documents,
                  "-d", files["dtd"], "--profile"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    def test_obs_flags_work_with_the_pool_backends(
        self, files, query_dir, documents, capsys
    ):
        import json as json_module

        metrics = files["dir"] / "pool_metrics.json"
        trace = files["dir"] / "pool_trace.jsonl"
        exit_code = main(["multi", "-Q", str(query_dir), "-D", *documents,
                          "-d", files["dtd"], "-O", str(files["dir"] / "out"),
                          "-w", "2", "--metrics-out", str(metrics),
                          "--trace-out", str(trace)])
        assert exit_code == 0
        snapshot = json_module.loads(metrics.read_text())
        assert "repro_pool_documents_served" in snapshot
        spans = [json_module.loads(l) for l in trace.read_text().splitlines()]
        assert "pool.shard" in {span["name"] for span in spans}

    def test_stats_pretty_prints_a_snapshot(
        self, files, query_dir, documents, capsys
    ):
        metrics = files["dir"] / "metrics.json"
        main(["multi", "-Q", str(query_dir), "-D", *documents,
              "-d", files["dtd"], "-O", str(files["dir"] / "out"),
              "--metrics-out", str(metrics)])
        capsys.readouterr()
        exit_code = main(["stats", str(metrics)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "repro_service_passes_completed (gauge)" in captured.out
        assert "p50=" in captured.out

    def test_stats_rejects_non_snapshot_files(self, files, capsys):
        bogus = files["dir"] / "bogus.json"
        bogus.write_text("not json at all")
        assert main(["stats", str(bogus)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err

    def test_explain_prints_optimizer_timings(self, files, capsys):
        exit_code = main(["explain", "-q", files["query"], "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "== Optimizer timings ==" in captured.out
        for stage in ("parse", "normalize", "optimize", "schedule", "safety", "total"):
            assert stage in captured.out


class TestCompareCommand:
    def test_compare_prints_tables(self, files, capsys):
        exit_code = main(["compare", "-q", files["query"], "-i", files["document"],
                          "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "peak buffer memory" in captured.out
        assert "flux" in captured.out and "dom" in captured.out


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_option_errors(self, files):
        with pytest.raises(SystemExit):
            main(["run", "--nope", files["query"]])


class TestExplainAnalyzer:
    """The static-analyzer sections of the rewritten explain report."""

    def test_explain_prints_analyzer_sections(self, files, capsys):
        exit_code = main(["explain", "-q", files["query"], "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 0
        for section in ("== Plan DAG ==", "== Buffer bounds =="):
            assert section in captured.out
        for section in ("== Static cost ==", "== Execution mode =="):
            assert section not in captured.out
        # Timings close the report so the analysis reads first.
        assert captured.out.rstrip().rindex("== Optimizer timings ==") > captured.out.index(
            "== Buffer bounds =="
        )

    def test_explain_prints_buffer_class_for_buffered_handlers(self, files, capsys):
        from tests.conftest import PAPER_WEAK_DTD

        weak = files["dir"] / "weak.dtd"
        weak.write_text(PAPER_WEAK_DTD)
        exit_code = main(["explain", "-q", files["query"], "-d", str(weak)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "FANOUT" in captured.out
        assert "on-first past(" in captured.out
        assert "== Buffering decisions ==" in captured.out

    def test_explain_prints_the_paths_a_join_buffers(self, tmp_path, capsys):
        query, dtd = tmp_path / "a3.xq", tmp_path / "auction.dtd"
        query.write_text(get_query("AUC-A3").xquery)
        dtd.write_text(AUCTION_DTD)
        assert main(["explain", "-q", str(query), "-d", str(dtd)]) == 0
        out = capsys.readouterr().out
        paths = (
            "closed_auctions/closed_auction/buyer/@*, closed_auctions/closed_auction/price, "
            "people/person/name"
        )
        forest = out[out.index("== Buffer description forest =="):out.index("== Safety ==")]
        assert f"(site): {paths}\n" in forest
        dag = re.search(r"process-stream __hop\d+ : site  \(buffers: (.*)\)\n", out)
        assert dag is not None and dag.group(1) == paths

    def test_explain_missing_query_file_is_exit_2(self, files, capsys):
        exit_code = main(["explain", "-q", str(files["dir"] / "missing.xq"),
                          "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("explain: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_explain_parse_failure_is_exit_2(self, files, capsys):
        bad = files["dir"] / "bad.xq"
        bad.write_text("for $x in ((( return")
        exit_code = main(["explain", "-q", str(bad), "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("explain: ")
        assert len(captured.err.strip().splitlines()) == 1


class TestRunAndCompareErrors:
    """`run` and `compare` report bad input as one line and exit 2, like `explain`."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", ["missing-input", "bad-query", "truncated-document"])
    def test_bad_input_is_exit_2(self, files, command, case, capsys):
        query, document = files["query"], files["document"]
        if case == "missing-input":
            document = str(files["dir"] / "missing.xml")
        elif case == "bad-query":
            query = files["dir"] / "bad.xq"
            query.write_text("for $x in ((( return")
        else:
            document = files["dir"] / "truncated.xml"
            document.write_text(PAPER_DOCUMENT[: len(PAPER_DOCUMENT) // 2])
        exit_code = main([command, "-q", str(query), "-i", str(document),
                          "-d", files["dtd"]])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"{command}: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""


class TestExplainWorkloads:
    """`explain` reports every workload query under every schema it meets."""

    @pytest.mark.parametrize(
        "key,dtd_name",
        [(spec.key, dtd) for spec in queries_for_workload("bib")
         for dtd in ("strong", "weak", None)]
        + [(spec.key, dtd) for spec in queries_for_workload("auction")
           for dtd in ("auction", None)],
    )
    def test_explain_exits_0(self, key, dtd_name, tmp_path, capsys):
        query = tmp_path / "query.xq"
        query.write_text(get_query(key).xquery)
        argv = ["explain", "-q", str(query)]
        if dtd_name is not None:
            dtd = tmp_path / "schema.dtd"
            dtd.write_text(
                {"strong": BIB_DTD_STRONG, "weak": BIB_DTD_WEAK,
                 "auction": AUCTION_DTD}[dtd_name]
            )
            argv += ["-d", str(dtd)]
        assert main(argv) == 0
        assert "== Buffer bounds ==" in capsys.readouterr().out


class TestRemovedOptions:
    """`auto`, the explain policy inputs and `lint` are gone: argparse rejects them."""

    @pytest.mark.parametrize("option", ["--execution", "--backend"])
    def test_multi_auto_is_an_argparse_error(self, files, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["multi", "-Q", str(files["dir"]), "-i", files["document"],
                  "-d", files["dtd"], option, "auto"])
        assert raised.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        ["--document-bytes", "--document-count", "--cpus", "--plan-cache-file"],
    )
    def test_removed_explain_option_is_an_argparse_error(self, files, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["explain", "-q", files["query"], "-d", files["dtd"], option, "1"])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lint_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["lint"])
        assert raised.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
