"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main, parse_dtd_spec
from repro.core.engine import ProbXMLWarehouse
from repro.trees.builders import tree
from repro.utils.errors import DTDError
from repro.xmlio.serialize import probtree_to_xml


@pytest.fixture
def warehouse_file(tmp_path):
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", tree("movie", tree("title", "Solaris")), confidence=0.8)
    warehouse.insert("/catalog", tree("movie", tree("title", "Stalker")), confidence=0.6)
    path = tmp_path / "warehouse.xml"
    path.write_text(probtree_to_xml(warehouse.probtree))
    return str(path)


def _run(argv):
    output = io.StringIO()
    code = main(argv, output=output)
    return code, output.getvalue()


class TestDTDSpecParsing:
    def test_operators(self):
        dtd = parse_dtd_spec("catalog: movie*, source?; movie: title")
        assert dtd.bounds("catalog", "movie") == (0, None)
        assert dtd.bounds("catalog", "source") == (0, 1)
        assert dtd.bounds("movie", "title") == (1, 1)

    def test_plus_operator(self):
        dtd = parse_dtd_spec("library: book+")
        assert dtd.bounds("library", "book") == (1, None)

    def test_malformed_specs_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd_spec("no-colon-here")
        with pytest.raises(DTDError):
            parse_dtd_spec("   ")
        with pytest.raises(DTDError):
            parse_dtd_spec(": movie*")


class TestCommands:
    def test_stats(self, warehouse_file):
        code, output = _run(["stats", warehouse_file])
        assert code == 0
        assert "events declared: 2" in output
        assert "nodes          : 7" in output

    def test_context_stats_flag_prints_formula_ir_counters(self, warehouse_file):
        code, output = _run(["probability", warehouse_file, "/catalog/movie", "--stats"])
        assert code == 0
        assert "stats.intern_misses:" in output
        assert "stats.intern_hits:" in output
        assert "stats.formulas_migrated:" in output
        misses = int(
            next(
                line for line in output.splitlines()
                if line.startswith("stats.intern_misses:")
            ).split(":")[1]
        )
        assert misses > 0  # pricing interned the answer disjunction

    def test_worlds(self, warehouse_file):
        code, output = _run(["worlds", warehouse_file, "--top", "2"])
        assert code == 0
        lines = [line for line in output.splitlines() if line.startswith("p =")]
        assert len(lines) == 2
        assert "0.48" in lines[0]  # 0.8 * 0.6

    def test_query(self, warehouse_file):
        code, output = _run(["query", warehouse_file, "/catalog/movie/title/*"])
        assert code == 0
        assert "Solaris" in output and "Stalker" in output

    def test_query_top_k(self, warehouse_file):
        code, output = _run(["query", warehouse_file, "/catalog/movie/title/*", "--top", "1"])
        assert code == 0
        assert "Solaris" in output and "Stalker" not in output

    def test_query_without_answers_returns_nonzero(self, warehouse_file):
        code, output = _run(["query", warehouse_file, "/catalog/book"])
        assert code == 1
        assert "no answers" in output

    def test_probability(self, warehouse_file):
        code, output = _run(["probability", warehouse_file, "/catalog/movie"])
        assert code == 0
        assert float(output.strip()) == pytest.approx(1 - 0.2 * 0.4)

    def test_validate(self, warehouse_file):
        code, output = _run(
            ["validate", warehouse_file, "--dtd", "catalog: movie*; movie: title"]
        )
        assert code == 0
        assert "satisfiable: True" in output
        assert "valid      : True" in output

    def test_validate_unsatisfiable(self, warehouse_file):
        code, output = _run(
            ["validate", warehouse_file, "--dtd", "catalog: movie*, book+"]
        )
        assert code == 1
        assert "satisfiable: False" in output

    def test_missing_file_reports_error(self, tmp_path):
        code, _output = _run(["stats", str(tmp_path / "missing.xml")])
        assert code == 2

    @pytest.mark.parametrize("command", [["stats"], ["query", "/a"]])
    def test_malformed_xml_is_a_typed_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>")
        code, output = _run([command[0], str(bad), *command[1:]])
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert err.startswith("error: malformed XML")
        assert "Traceback" not in err


class TestMatcherFlag:
    def test_matcher_choices_rejected_early(self, warehouse_file):
        with pytest.raises(SystemExit):
            _run(["query", warehouse_file, "/catalog/movie", "--matcher", "guess"])

    @pytest.mark.parametrize("name", ["indexed", "columnar", "auto"])
    def test_retired_matcher_names_exit_2(self, warehouse_file, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _run(["query", warehouse_file, "/catalog/movie", "--matcher", name])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_query_same_under_both_matchers(self, warehouse_file):
        code_fast, out_fast = _run(["query", warehouse_file, "/catalog/movie"])
        code_naive, out_naive = _run(
            ["query", warehouse_file, "/catalog/movie", "--matcher", "naive"]
        )
        assert code_fast == code_naive == 0
        assert out_fast == out_naive

    def test_probability_same_under_both_matchers(self, warehouse_file):
        code_fast, out_fast = _run(["probability", warehouse_file, "//title"])
        code_naive, out_naive = _run(
            ["probability", warehouse_file, "//title", "--matcher", "naive"]
        )
        assert code_fast == code_naive == 0
        assert out_fast == out_naive


class TestEngineFlag:
    def test_engine_choices_rejected_early(self, warehouse_file):
        with pytest.raises(SystemExit):
            _run(["probability", warehouse_file, "/catalog/movie", "--engine", "guess"])

    def test_probability_same_under_both_engines(self, warehouse_file):
        code_formula, out_formula = _run(
            ["probability", warehouse_file, "/catalog/movie", "--engine", "formula"]
        )
        code_enumerate, out_enumerate = _run(
            ["probability", warehouse_file, "/catalog/movie", "--engine", "enumerate"]
        )
        assert code_formula == code_enumerate == 0
        assert out_formula == out_enumerate

    def test_validate_accepts_engine_flag(self, warehouse_file):
        code, output = _run(
            [
                "validate",
                warehouse_file,
                "--dtd",
                "catalog: movie*; movie: title?",
                "--engine",
                "formula",
            ]
        )
        assert code == 0
        assert "P(valid)" in output

    def test_worlds_accepts_engine_flag(self, warehouse_file):
        code_formula, out_formula = _run(
            ["worlds", warehouse_file, "--top", "2", "--engine", "formula"]
        )
        code_enumerate, out_enumerate = _run(
            ["worlds", warehouse_file, "--top", "2", "--engine", "enumerate"]
        )
        assert code_formula == code_enumerate == 0
        assert out_formula == out_enumerate
