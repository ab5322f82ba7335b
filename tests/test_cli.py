"""CLI surface: subcommands, JSON schemas, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from coh.cli import main, run_query


def run_cli(*argv):
    """Invoke in-process; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_coherent_json(self):
        code, out, _ = run_cli("check", "--events", "x|y", "x+y", "--book", "1/2", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coherent"] is True
        assert doc["witness"]["points"] == [["1/2", "1/2"]]
        assert doc["witness"]["weights"] == ["1"]

    def test_incoherent_json(self):
        code, out, _ = run_cli("check", "--events", "x|~x", "--book", "1/4", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["coherent"] is False
        assert doc["dutch_book"]["stakes"] == [1]
        assert doc["dutch_book"]["guaranteed_loss"] == "1/4"

    def test_decimal_price_rejected(self):
        code, _, err = run_cli("check", "--events", "x", "--book", "0.25", "--json")
        assert code == 2
        assert "exact rational" in err

    def test_human_output(self):
        code, out, _ = run_cli("check", "--events", "x|~x", "--book", "1/4")
        assert code == 0 and out.startswith("incoherent")


class TestOtherCommands:
    def test_extend(self):
        code, out, _ = run_cli("extend", "--events", "x", "--book", "1/3", "--new", "~x", "--json")
        assert code == 0
        assert json.loads(out) == {"lo": "2/3", "hi": "2/3"}

    def test_extend_incoherent_book_reports_dutch_book(self):
        code, out, _ = run_cli(
            "extend", "--events", "x|~x", "--book", "1/4", "--new", "x", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["coherent"] is False
        assert doc["dutch_book"]["guaranteed_loss"] == "1/4"

    def test_set(self):
        code, out, _ = run_cli("set", "--events", "x|y", "x+y", "--json")
        doc = json.loads(out)
        assert doc["vertices"] == [["0", "0"], ["1/2", "1"], ["1", "1"]]
        assert doc["boolean_point"] in (["0", "0"], ["1", "1"])

    def test_fp_prove_p3(self):
        code, out, _ = run_cli("fp", "prove", "P(x+y) <-> (P(x) -> P(x*y)) -> P(y)", "--json")
        assert code == 0 and json.loads(out) == {"holds": True}

    def test_fp_entail_with_countermodel(self):
        code, out, _ = run_cli(
            "fp", "entail", "--premise", "P(x)+P(x)", "--conclusion", "P(x)", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["holds"] is False
        assert set(doc["countermodel"]) == {"x"}

    def test_chi(self):
        code, out, _ = run_cli("chi", "--events", "x|~x", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["formula"] == "2.x1" and doc["verified"] is True

    def test_ldt(self):
        code, out, _ = run_cli(
            "ldt", "--premise", "P(x)", "--conclusion", "P(x)*P(x)", "--json"
        )
        assert json.loads(out) == {"holds": True, "exponent": 2}

    def test_unify_verify_inline(self):
        code, out, _ = run_cli(
            "unify", "verify",
            "--identity", "P(x1) | ~P(x1) | P(x2) | ~P(x2) = 1",
            "--map", "x1 = 1", "--map", "x2 = 1",
            "--json",
        )
        assert code == 0 and json.loads(out) == {"holds": True}

    def test_unify_generality_file(self, tmp_path):
        query = {
            "identities": [["P(x)", "P(x)"]],
            "sigma": {"x": "P(y) + P(y)"},
            "tau": {"x": "P(y) + P(y)"},
            "delta": {"y": "P(y)"},
        }
        path = tmp_path / "query.json"
        path.write_text(json.dumps(query))
        code, out, _ = run_cli("unify", "generality", "--file", str(path), "--json")
        assert code == 0 and json.loads(out) == {"holds": True}


class TestErrorsAndCaps:
    def test_parse_error_exit_2(self):
        code, _, err = run_cli("check", "--events", "x |", "--book", "1", "--json")
        assert code == 2 and "offset" in err

    def test_event_cap_exit_3(self):
        events = [f"x{i}" for i in range(7)]
        code, _, err = run_cli("set", "--events", *events, "--json")
        assert code == 3 and "cap" in err

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("COH_MAX_DIM", "7")
        events = ["x", "x", "x", "x", "x", "x", "x"]
        code, _, _ = run_cli("set", "--events", *events, "--json")
        assert code == 0

    def test_variable_cap(self):
        code, _, err = run_cli("set", "--events", "x1 + x2 + x3 + x4 + x5", "--json")
        assert code == 3 and "variables" in err

    def test_depth_cap(self):
        deep = "x"
        for _ in range(13):
            deep = f"~({deep})"
        code, _, err = run_cli("set", "--events", deep, "--json")
        assert code == 3 and "depth" in err

    @pytest.mark.parametrize(
        "text",
        ["~" * 5000 + "x", "(" * 3000 + "x" + ")" * 3000, "x -> " * 3000 + "x"],
        ids=["negations", "parentheses", "implications"],
    )
    def test_nesting_cap_before_recursion(self, text):
        code, out, err = run_cli("set", "--events", text, "--json")
        assert code == 3 and out == ""
        assert err.startswith("error: formula nesting exceeds the cap of")
        assert err.count("\n") == 1


RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "coherent": {"type": "boolean"},
        "witness": {
            "type": "object",
            "properties": {
                "points": {"type": "array", "items": {"type": "array", "items": RATIONAL}},
                "weights": {"type": "array", "items": RATIONAL},
            },
            "required": ["points", "weights"],
            "additionalProperties": False,
        },
        "dutch_book": {
            "type": "object",
            "properties": {
                "stakes": {"type": "array", "items": {"type": "integer"}},
                "guaranteed_loss": RATIONAL,
            },
            "required": ["stakes", "guaranteed_loss"],
            "additionalProperties": False,
        },
    },
    "required": ["coherent"],
    "additionalProperties": False,
}

CONSEQUENCE_SCHEMA = {
    "type": "object",
    "properties": {
        "holds": {"type": "boolean"},
        "countermodel": {"type": "object", "additionalProperties": RATIONAL},
        "exponent": {"type": "integer", "minimum": 1},
    },
    "required": ["holds"],
    "additionalProperties": False,
}


class TestDeterminismAndSchema:
    def test_byte_identical_reruns(self):
        args = ("check", "--events", "x|y", "x+y", "x*y", "--book", "1/2", "3/4", "1/4", "--json")
        outs = {run_cli(*args)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_verdict_schema_and_reverification(self):
        import jsonschema

        from coh.coherence import check_book

        for book in (["1/3", "1/4"], ["1/3", "1"], ["1", "0"]):
            code, out, _ = run_cli("check", "--events", "x&y", "x|y", "--book", *book, "--json")
            doc = json.loads(out)
            jsonschema.validate(doc, VERDICT_SCHEMA)
            assert ("witness" in doc) != ("dutch_book" in doc)
            verdict = check_book(["x&y", "x|y"], book)
            assert verdict.to_json_dict() == doc

    def test_consequence_schema(self):
        import jsonschema

        for args in (
            ("fp", "prove", "P(x) | ~P(x)", "--json"),
            ("fp", "entail", "--premise", "P(x)+P(x)", "--conclusion", "P(x)", "--json"),
            ("ldt", "--premise", "P(x)", "--conclusion", "P(x)*P(x)", "--json"),
        ):
            _, out, _ = run_cli(*args)
            jsonschema.validate(json.loads(out), CONSEQUENCE_SCHEMA)

    def test_extension_schema(self):
        import jsonschema

        _, out, _ = run_cli("extend", "--events", "x", "--book", "1/2", "--new", "x*x", "--json")
        schema = {
            "type": "object",
            "properties": {"lo": RATIONAL, "hi": RATIONAL},
            "required": ["lo", "hi"],
            "additionalProperties": False,
        }
        jsonschema.validate(json.loads(out), schema)


class TestBatch:
    def test_batch_inference_and_order(self, tmp_path):
        queries = [
            {"events": ["x|~x"], "book": ["1/4"]},
            {"events": ["x"], "book": ["1/3"], "new": "~x"},
            {"conclusion": "~P(x) <-> P(~x)"},
            {"premise": "P(x)", "conclusion": "P(x)+P(x)"},
            {"op": "chi", "events": ["x|~x"]},
            {"events": ["x", "y"]},
            {
                "identities": [["P(x1) | ~P(x1) | P(x2) | ~P(x2)", "1"]],
                "substitution": {"x1": "1", "x2": "1"},
            },
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(queries))
        code, out, _ = run_cli("batch", str(path), "--json")
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["coherent"] is False
        assert docs[1] == {"lo": "2/3", "hi": "2/3"}
        assert docs[2] == {"holds": True}
        assert docs[3] == {"holds": True}
        assert docs[4]["formula"] == "2.x1"
        assert docs[5]["vertices"] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        assert docs[6] == {"holds": True}

    def test_batch_jobs_parallel_same_result(self, tmp_path):
        # --jobs is gone: the queries are CPU-bound pure Python, so threads
        # only added overhead.  The flag is now a usage error.
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"events": ["x|y", "x+y"], "book": ["1/2", "1"]}]))
        with pytest.raises(SystemExit) as exc:
            run_cli("batch", str(path), "--jobs", "4", "--json")
        assert exc.value.code == 2

    def test_batch_json_number_price_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"events": ["x"], "book": [0.5]}]))
        code, out, err = run_cli("batch", str(path), "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exact rational" in err

    def test_book_as_mapping(self):
        result = run_query({"events": ["x|~x"], "book": {"x|~x": "1/4"}})
        assert result["coherent"] is False


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coh.cli", "fp", "prove", "P(1) <-> 1", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"holds": True}


class TestStartup:
    def test_import_loads_no_introspection_modules(self):
        # Each CLI call is a fresh process; inspect and its dependencies
        # would cost every call more than a small query takes.
        code = "import sys, coh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
