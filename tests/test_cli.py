"""CLI surface: subcommands, JSON schemas, determinism, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coh.cli import _COMMANDS, _OPERATIONS, main, run_query


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


def _deep_modal(levels: int) -> str:
    """A modal formula of depth 2·levels + 1 that stays within the nesting
    cap: `levels` nested "2.(...) <-> P(v)" over four atoms."""
    term = "P(x)"
    for i in range(levels):
        term = f"2.({term}) <-> P({'yzwx'[i % 4]})"
    return term


class TestErrorsAndCaps:
    def test_parse_error_exit_2(self):
        code, _, err = run_cli("check", "--events", "x |", "--book", "1", "--json")
        assert code == 2 and "offset" in err

    def test_event_cap_exit_3(self):
        events = [f"x{i}" for i in range(7)]
        code, _, err = run_cli("set", "--events", *events, "--json")
        assert code == 3 and "cap" in err

    def test_variable_cap(self):
        code, _, err = run_cli("set", "--events", "x1 + x2 + x3 + x4 + x5", "--json")
        assert code == 3 and "variables" in err

    # The caps cover every event the library turns into a coherent set: the
    # new event of `extend` and the atoms of substitution images.
    WIDE = "(a|b)&(c|d)&(e|f)&(g|h)"

    def assert_variable_cap(self, *argv):
        code, out, err = run_cli(*argv, "--json")
        assert code == 3 and out == ""
        assert re.fullmatch(r"error: \d+ propositional variables exceed the cap of 4\n", err)

    def test_variable_cap_on_new_event(self):
        self.assert_variable_cap("extend", "--events", "x", "--book", "1/2", "--new", self.WIDE)

    def test_variable_cap_on_unifier_images(self):
        self.assert_variable_cap(
            "unify", "verify", "--identity", "P(x)=P(x)", "--map", f"x=P({self.WIDE})"
        )

    def test_variable_cap_on_generality_images(self, tmp_path):
        path = tmp_path / "query.json"
        image = f"P({self.WIDE})"
        path.write_text(json.dumps({
            "identities": [["P(x)", "P(x)"]],
            "sigma": {"x": image},
            "tau": {"x": "P(x)"},
            "delta": {"x": image},
        }))
        self.assert_variable_cap("unify", "generality", "--file", str(path))

    def test_bare_variable_in_modal_formula_exit_2(self):
        code, out, err = run_cli("fp", "entail", "--premise", "x", "--conclusion", "P(x)", "--json")
        assert code == 2 and out == ""
        assert err == "error: bare propositional variable in a modal formula\n"

    def test_depth_cap(self):
        deep = "x"
        for _ in range(13):
            deep = f"~({deep})"
        code, _, err = run_cli("set", "--events", deep, "--json")
        assert code == 3 and "depth" in err

    DEEP_MODAL = _deep_modal(45)

    def assert_depth_cap(self, *argv):
        code, out, err = run_cli(*argv, "--json")
        assert code == 3 and out == ""
        assert err == "error: formula depth 91 exceeds the cap of 12\n"

    def test_depth_cap_on_identities(self):
        maps = [arg for v in "xyzw" for arg in ("--map", f"{v}=P({v})")]
        self.assert_depth_cap("unify", "verify", "--identity", f"{self.DEEP_MODAL} = 1", *maps)

    def test_depth_cap_on_tau_images(self, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(json.dumps({
            "identities": [["P(x)", "P(x)"]],
            "sigma": {"x": "P(x)"},
            "tau": {"x": self.DEEP_MODAL},
            "delta": {v: f"P({v})" for v in "xyzw"},
        }))
        self.assert_depth_cap("unify", "generality", "--file", str(path))

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["set", "--events", "x+" * 3000 + "x"],
            ["check", "--events", "x" + "^2" * 3000, "--book", "1/2"],
            ["fp", "prove", "P(x)+" * 3000 + "P(x)"],
            ["fp", "prove", "P(" + "x+" * 3000 + "x)"],
            ["fp", "entail", "--premise", "P(x)+" * 3000 + "P(x)", "--conclusion", "P(x)"],
            ["ldt", "--premise", "P(x)", "--conclusion", "P(x)+" * 3000 + "P(x)"],
            ["batch", "BATCH"],
            ["fp", "prove", "1+" * 3000 + "1"],
            ["fp", "entail", "--premise", "1+" * 3000 + "1", "--conclusion", "1"],
            ["ldt", "--premise", "1", "--conclusion", "1+" * 3000 + "1"],
            ["unify", "verify", "--identity", "P(x)=P(x)", "--map", "x=" + "1+" * 3000 + "1"],
        ],
        ids=[
            "set-sum", "check-power", "prove-modal-sum", "prove-event-sum", "entail", "ldt", "batch",
            "prove-ground", "entail-ground", "ldt-ground", "unify-ground-image",
        ],
    )
    def test_deep_chain_exits_3(self, argv, tmp_path):
        # Left-associative chains and postfix powers are built by loops the
        # nesting cap does not count; every walk over the result is
        # iterative, so the depth cap reports them, with atoms or without.
        # A batch names the query, and answers it with an error entry.
        prefix = ""
        if argv[-1] == "BATCH":
            path = tmp_path / "deep.json"
            path.write_text(json.dumps({"queries": [{"events": ["x+" * 3000 + "x"]}]}))
            argv = ["batch", str(path)]
            prefix = "batch query 0: "
        code, out, err = run_cli(*argv, "--json")
        assert code == 3
        assert re.fullmatch(rf"error: {prefix}formula depth 300[01] exceeds the cap of 12\n", err)
        message = err[len("error: " + prefix) : -1]
        assert out == (json.dumps([{"error": message, "exit": 3}]) + "\n" if prefix else "")


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
        assert code == 2
        assert err.startswith("error: batch query 0: ") and err.count("\n") == 1
        assert "exact rational" in err
        assert json.loads(out) == [{"error": err[len("error: batch query 0: ") : -1], "exit": 2}]

    @pytest.mark.parametrize(
        "second, code, message",
        [
            ({"events": ["x+"]}, 2, "unexpected '' (at offset 2)"),
            ({"events": ["x", "y", "z", "w", "v"]}, 3, "5 propositional variables exceed the cap of 4"),
        ],
        ids=["parse-exit-2", "cap-exit-3"],
    )
    def test_error_while_running_names_the_query(self, tmp_path, second, code, message):
        # The bad query gets an error entry; the good ones around it are answered.
        first, third = {"events": ["x"], "book": ["1/2"]}, {"events": ["x"]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([first, second, third]))
        got, out, err = run_cli("batch", str(path), "--json")
        assert got == code
        assert err == f"error: batch query 1: {message}\n"
        assert json.loads(out) == [run_query(first), {"error": message, "exit": code}, run_query(third)]

    def test_book_as_mapping(self):
        result = run_query({"events": ["x|~x"], "book": {"x|~x": "1/4"}})
        assert result["coherent"] is False


class TestQueryDocuments:
    """Malformed query documents exit 2 with one error line naming the field."""

    def run_file(self, tmp_path, doc, *argv):
        path = tmp_path / "query.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(*argv, str(path), "--json")
        lines = err.splitlines()
        assert code == 2 and lines and all(line.startswith("error: ") for line in lines)
        if argv[0] == "batch":
            # Every query of these documents fails: one entry and one line each.
            entries = [{"error": line.split(": ", 2)[2], "exit": 2} for line in lines]
            assert json.loads(out) == entries and len(entries) == len(doc)
        else:
            assert out == "" and len(lines) == 1
        return err

    def test_batch_of_non_objects(self, tmp_path):
        err = self.run_file(tmp_path, [1, 2], "batch")
        assert "batch query 0" in err and "JSON object" in err

    def test_unify_file_not_an_object(self, tmp_path):
        err = self.run_file(tmp_path, [1], "unify", "verify", "--file")
        assert "--file" in err and "JSON object" in err

    def test_events_as_a_string(self, tmp_path):
        err = self.run_file(tmp_path, [{"events": "xy"}], "batch")
        assert "'events'" in err and "list of strings" in err

    def test_book_mapping_missing_an_event(self, tmp_path):
        err = self.run_file(tmp_path, [{"events": ["x"], "book": {"y": "1/2"}}], "batch")
        assert "'book'" in err and "'x'" in err


# Small formulas, event and modal mixed, and short texts over the
# characters of both languages.
_FORMULA = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "P(x)", "P(x|y)"]),
    lambda inner: inner.map("~{}".format)
    | st.tuples(inner, st.sampled_from(["+", "*", "|", "&", "->", "<->"]), inner)
    .map(" ".join)
    .map("({})".format),
    max_leaves=3,
) | st.text(alphabet="xyP()~+*|&-<>.^012 ", max_size=8)
_PRICE = st.one_of(st.sampled_from(["0", "1", "1/2", "2/3", "-1", "3/2", "1/0", "0.5"]), st.text(max_size=4))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | _FORMULA,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FORMULA, inner, max_size=3),
    max_leaves=6,
)
_PAIRS = st.lists(st.lists(_FORMULA, min_size=2, max_size=2), min_size=1, max_size=2)
_MAPPING = st.dictionaries(_FORMULA, _FORMULA, max_size=3)
# Each field of a query, with values of its type.
_FIELDS = {
    "op": st.sampled_from(sorted(_OPERATIONS) + ["fp", "batch"]),
    "events": st.lists(_FORMULA, min_size=1, max_size=3),
    "book": st.lists(_PRICE, max_size=3) | st.dictionaries(_FORMULA, _PRICE, max_size=3),
    "new": _FORMULA,
    "premise": _FORMULA,
    "conclusion": _FORMULA,
    "identities": _PAIRS,
    "substitution": _MAPPING,
    "sigma": _MAPPING,
    "tau": _MAPPING,
    "delta": _MAPPING,
}


def _query(op: str):
    """Documents of one operation: its fields with values of their types,
    sometimes its name, sometimes an unknown key."""
    fields = {name: _FIELDS[name] for name in _OPERATIONS[op][1]}
    return st.fixed_dictionaries(fields, optional={"op": st.just(op), "note": _JSON})


_TYPED_QUERY = st.sampled_from(sorted(_OPERATIONS)).flatmap(_query)
_QUERY = st.one_of(
    _TYPED_QUERY,
    st.dictionaries(
        st.sampled_from(sorted(_FIELDS)) | st.text(max_size=5), _FIELDS["op"] | _JSON, max_size=4
    ),
    _JSON,
)


# Small valid queries of several operations.
_GOOD_QUERIES = [
    {"events": ["x"], "book": ["1/2"]},
    {"events": ["x|y"]},
    {"events": ["x"], "book": ["1/3"], "new": "~x"},
    {"premise": "P(x)", "conclusion": "P(x)+P(x)"},
]


class TestDocumentFuzz:
    """Any batch document is answered with exit 0, 2 or 3, and anything on
    stderr is `error:` lines."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(_TYPED_QUERY, min_size=1, max_size=2),
        st.lists(_QUERY, max_size=3),
        st.fixed_dictionaries({"queries": st.lists(_QUERY, max_size=3)}),
        _JSON,
    ))
    def test_batch_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = run_cli("batch", str(path), "--json")
        assert code in (0, 2, 3)
        assert all(line.startswith("error: ") for line in err.splitlines())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_GOOD_QUERIES) | _QUERY, min_size=2, max_size=4))
    def test_mixed_queries_get_one_entry_each(self, queries):
        # A bad query sinks no other: each good one is answered as it is
        # alone, each bad one has an error entry and an `error:` line, and
        # the batch exits with the highest code.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.json"
            path.write_text(json.dumps(queries), encoding="utf-8")
            code, out, err = run_cli("batch", str(path), "--json")
        entries = json.loads(out)
        assert len(entries) == len(queries)
        failed = [i for i, entry in enumerate(entries) if set(entry) == {"error", "exit"}]
        assert err.splitlines() == [f"error: batch query {i}: {entries[i]['error']}" for i in failed]
        assert code == max([entries[i]["exit"] for i in failed], default=0)
        for i, (query, entry) in enumerate(zip(queries, entries)):
            if i not in failed:
                assert entry == run_query(query)


def _readme_commands() -> list[list[str]]:
    """The commands of the README's CLI block, without the leading `coh`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


class TestReadme:
    def test_cli_examples_run(self):
        # The block shows every subcommand; those that need no input file run.
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == set(_COMMANDS)
        for argv in commands:
            if not any(arg.endswith(".json") for arg in argv):
                code, _, err = run_cli(*argv)
                assert code == 0, (argv, err)

    def test_library_example_runs(self):
        # The documented import path: `from coh import ...` in a fresh interpreter.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert "from coh import" in block
        fresh_stdout(block)


def child_env() -> dict:
    """The environment of a fresh interpreter that imports `coh` from this
    checkout's src/ before anything else on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def fresh_stdout(code: str) -> str:
    """The stripped stdout of `code` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coh.cli", "fp", "prove", "P(1) <-> 1", "--json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"holds": True}


class TestStartup:
    def test_import_loads_no_introspection_modules(self):
        # Each CLI call is a fresh process; inspect and its dependencies
        # would cost every call more than a small query takes.
        code = "import sys, coh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_submodule(self):
        code = "import sys, coh; print(sorted(m for m in sys.modules if m.startswith('coh.')))"
        assert fresh_stdout(code) == "[]"

    def test_book_commands_do_not_load_the_modal_layer(self):
        # check, set and extend are questions about events alone; only the
        # commands that need fplogic load it.
        code = (
            "import contextlib, io, sys\n"
            "from coh.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['check', '--events', 'x', '--book', '1/2', '--json'])\n"
            "    main(['set', '--events', 'x', '--json'])\n"
            "    main(['extend', '--events', 'x', '--book', '1/3', '--new', '~x', '--json'])\n"
            "    before = 'coh.fplogic' in sys.modules\n"
            "    main(['fp', 'entail', '--premise', 'P(x)', '--conclusion', 'P(x)+P(x)', '--json'])\n"
            "print(before, 'coh.fplogic' in sys.modules)\n"
        )
        assert fresh_stdout(code) == "False True"

    def test_public_names_are_their_home_modules_objects(self):
        # Every lookup goes through the lazy table in a fresh interpreter.
        code = (
            "import importlib, coh\n"
            "print([n for n in coh.__all__ if getattr(coh, n) is not\n"
            "       getattr(importlib.import_module('coh.' + coh._HOME[n]), n)])\n"
        )
        assert fresh_stdout(code) == "[]"

    def test_star_import_binds_every_public_name(self):
        code = "import coh\nns = {}\nexec('from coh import *', ns)\nprint(sorted(set(coh.__all__) - set(ns)))"
        assert fresh_stdout(code) == "[]"

    def test_unknown_name_is_an_attribute_error(self):
        import coh

        with pytest.raises(AttributeError, match="no_such_name"):
            coh.no_such_name
        assert not hasattr(coh, "no_such_name")
