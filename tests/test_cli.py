import importlib.resources
import json

import jsonschema
import pytest

from convexcodes.cli import main

from conftest import C18B_TEXT, C22_TEXT, C24_TEXT, C26_CORRECTED_TEXT, W3_TEXT


def run(capsys, *argv):
    """Invoke the CLI in process; argparse errors surface as SystemExit."""
    try:
        status = main(list(argv))
    except SystemExit as stop:
        status = stop.code
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.fixture(scope="session")
def report_schema():
    text = importlib.resources.files("convexcodes").joinpath("report_schema.json").read_text()
    return json.loads(text)


class TestDecideCommand:
    def test_convex_exit_zero(self, capsys):
        status, out, _ = run(capsys, "decide", C22_TEXT)
        assert status == 0
        assert "CONVEX" in out

    def test_nonconvex_exit_one(self, capsys):
        status, out, _ = run(capsys, "decide", C24_TEXT)
        assert status == 1
        assert "NONCONVEX" in out
        assert "rho" in out

    def test_w3_nonconvex(self, capsys):
        status, _, _ = run(capsys, "decide", W3_TEXT)
        assert status == 1

    def test_unknown_exit_two(self, capsys):
        status, out, _ = run(capsys, "decide", C26_CORRECTED_TEXT)
        assert status == 2
        assert "UNKNOWN" in out

    def test_parse_error_exit_five(self, capsys):
        status, _, err = run(capsys, "decide", "not a code!!")
        assert status == 5
        assert "position" in err

    @pytest.mark.parametrize("text", ["{1,\u0663}", "1\u06602", "\u0661\u0662"])
    def test_non_ascii_digit_is_parse_error(self, capsys, text):
        status, out, err = run(capsys, "decide", text)
        assert status == 5
        assert out == ""
        assert "position" in err
        assert len(err.splitlines()) == 1

    def test_bad_flag_exit_five(self, capsys):
        status, _, _ = run(capsys, "decide", C22_TEXT, "--nonsense")
        assert status == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", C26_CORRECTED_TEXT, "--budget", "-3"),
            ("analyze", C26_CORRECTED_TEXT, "--json", "--budget", "-3"),
            ("realize", C22_TEXT, "--budget=-1"),
            ("atlas", "--neurons", "3", "--facets", "2", "--budget", "-1"),
        ],
    )
    def test_negative_budget_exit_five(self, capsys, argv):
        # a negative budget used to reach the report as "budget": -3, which
        # report_schema.json rejects
        status, out, err = run(capsys, *argv)
        assert status == 5 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--budget" in errors[0] and "nonnegative" in errors[0]

    def test_zero_budget_accepted(self, capsys, report_schema):
        status, out, _ = run(capsys, "analyze", C26_CORRECTED_TEXT, "--json", "--budget", "0")
        assert status == 2
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["sprocket"] == {"found": False, "budget": 0}

    def test_no_json_flag(self, capsys):
        # the report document is analyze --json's
        status, out, _ = run(capsys, "decide", C22_TEXT, "--json")
        assert status == 5 and out == ""


class TestAnalyzeCommand:
    def test_json_report_validates(self, capsys, report_schema):
        status, out, _ = run(capsys, "analyze", C22_TEXT, "--json")
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["verdict"] == "CONVEX"

    def test_byte_determinism(self, capsys):
        outs = {run(capsys, "analyze", C24_TEXT, "--json")[1] for _ in range(3)}
        assert len(outs) == 1

    def test_json_validates(self, capsys, report_schema):
        status, out, _ = run(capsys, "analyze", C26_CORRECTED_TEXT, "--json")
        assert status == 2
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["nerve_class"] == "L26"

    def test_text_mode_mentions_sections(self, capsys):
        status, out, _ = run(capsys, "analyze", C22_TEXT)
        assert status == 0
        assert "L22" in out


class TestRealizeCommand:
    def test_c22_json_realization(self, capsys):
        status, out, _ = run(capsys, "realize", C22_TEXT)
        assert status == 0
        doc = json.loads(out)
        assert doc["dimension"] == 2
        assert {row["neuron"] for row in doc["regions"]} == {1, 2, 3, 4, 5, 6, 7}

    def test_c18b_t_shape(self, capsys):
        status, out, _ = run(capsys, "realize", C18B_TEXT)
        assert status == 0
        assert json.loads(out)["dimension"] == 2

    def test_nonconvex_precondition(self, capsys):
        status, _, err = run(capsys, "realize", C24_TEXT)
        assert status == 1
        assert "NONCONVEX" in err

    def test_not_covered_exit_three(self, capsys):
        # complete codes are convex but outside the constructive families
        status, out, err = run(capsys, "realize", C24_TEXT + ", 1")
        assert status == 3
        assert "MaxIntersectionComplete" in out
        assert "not covered" in err

    def test_svg_written(self, capsys, tmp_path):
        path = tmp_path / "c22.svg"
        status, _, _ = run(capsys, "realize", C22_TEXT, "--svg", str(path))
        assert status == 0
        assert path.read_text().lstrip().startswith("<svg")

    @pytest.mark.parametrize("text,expected_status", [
        (C22_TEXT, 0), (C18B_TEXT, 0), (C24_TEXT + ", 1", 3), (C24_TEXT, 1),
    ], ids=["C22", "C18B", "not-covered", "nonconvex"])
    def test_decides_once(self, capsys, monkeypatch, text, expected_status):
        import convexcodes.cli
        import convexcodes.decider
        import convexcodes.realize.builders

        original = convexcodes.decider._decide
        calls = []

        def counting(s, budget):
            calls.append(s.code)
            return original(s, budget)

        # every module that can reach the decider; the codes are connected,
        # so no component recursion adds calls
        for module in (convexcodes.cli, convexcodes.decider, convexcodes.realize.builders):
            monkeypatch.setattr(module, "_decide", counting, raising=False)
        status, _, _ = run(capsys, "realize", text)
        assert status == expected_status
        assert len(calls) == 1

    def test_unwritable_svg_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.svg"
        status, _, err = run(capsys, "realize", C22_TEXT, "--svg", str(path))
        assert status == 5
        assert "cannot write SVG" in err
        assert len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path):
        _, out, _ = run(capsys, "realize", C22_TEXT)
        path = tmp_path / "r.json"
        path.write_text(out)
        status, out, _ = run(capsys, "verify", str(path), C22_TEXT)
        assert status == 0
        assert "ok" in out.lower() or "true" in out.lower()

    def test_empty_code_round_trip(self, capsys, tmp_path):
        # {∅} is CONVEX and realized with no regions, which verify accepts
        status, out, _ = run(capsys, "realize", "")
        assert status == 0
        assert json.loads(out) == {"dimension": 1, "regions": [], "construction": "PoFChain1D"}
        path = tmp_path / "empty.json"
        path.write_text(out)
        status, out, _ = run(capsys, "verify", str(path), "")
        assert status == 0
        assert out.startswith("ok")

    def test_mismatch_fails(self, capsys, tmp_path):
        _, out, _ = run(capsys, "realize", C22_TEXT)
        path = tmp_path / "r.json"
        path.write_text(out)
        status, out, err = run(capsys, "verify", str(path), "134, 1357, 356, 13, 35")
        assert status == 4

    def test_star_polygon_fails(self, capsys, tmp_path):
        # a pentagram turns left at every vertex but is not convex
        star = [["4", "0"], ["6", "8"], ["0", "3"], ["8", "3"], ["2", "8"]]
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"dimension": 2, "regions": [{"neuron": 1, "polygon": star}]}))
        status, out, _ = run(capsys, "verify", str(path), "1")
        assert status == 4
        assert out == "mismatch:\n  validation: neuron 1: not strictly convex\n"

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        status, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"), C22_TEXT)
        assert status == 5

    @pytest.mark.parametrize("document", [
        '{"dimension": 1, "regions": [{"neuron": 1, "interval": ["1/0", "2"]}]}',
        '{"dimension": 1, "regions": [{"neuron": 1, "interval": [0, Infinity]}]}',
        '{"dimension": 1, "regions": [{"neuron": 0, "interval": ["0", "1"]}]}',
        '{"dimension": 1, "regions": [{"neuron": 1.9, "interval": ["0", "1"]}]}',
        '{"dimension": 1, "regions": [{"neuron": 1.0, "interval": ["0", "1"]}]}',
        '{"dimension": 1, "regions": [{"neuron": true, "interval": ["0", "1"]}]}',
        '{"dimension": 1, "regions": [{"neuron": "1", "interval": ["0", "1"]}]}',
        '{"dimension": 1.5, "regions": [{"neuron": 1, "interval": ["0", "1"]}]}',
        '{"dimension": true, "regions": [{"neuron": 1, "interval": ["0", "1"]}]}',
    ], ids=["zero-denominator", "infinity", "neuron-zero", "neuron-fraction",
            "neuron-float", "neuron-bool", "neuron-string", "dimension-fraction",
            "dimension-bool"])
    def test_malformed_document_is_input_error(self, capsys, tmp_path, document):
        path = tmp_path / "r.json"
        path.write_text(document)
        status, _, err = run(capsys, "verify", str(path), "1")
        assert status == 5
        assert "cannot read realization" in err

    @pytest.mark.parametrize("document, message", [
        ('{"regions": []}', "realization has no 'dimension' field"),
        ('[]', "realization must be a JSON object, got list"),
    ])
    def test_malformed_document_message(self, capsys, tmp_path, document, message):
        path = tmp_path / "r.json"
        path.write_text(document)
        status, _, err = run(capsys, "verify", str(path), "1")
        assert status == 5
        assert err == f"convexcodes: cannot read realization: {message}\n"


class TestNerveCommand:
    def test_class_printed(self, capsys):
        status, out, _ = run(capsys, "nerve", C24_TEXT)
        assert status == 0
        assert "L24" in out

    def test_json(self, capsys):
        status, out, _ = run(capsys, "nerve", C22_TEXT, "--json")
        assert status == 0
        doc = json.loads(out)
        assert doc["class"] == "L22"
        assert doc["contractible"] is True

    def test_no_budget_flag(self, capsys):
        # the nerve does not depend on the sprocket budget
        status, out, err = run(capsys, "nerve", C22_TEXT, "--budget", "7")
        assert status == 5 and out == ""
        assert "unrecognized arguments: --budget 7" in err


class TestAtlasCommand:
    def test_small_atlas_all_convex(self, capsys):
        status, out, _ = run(capsys, "atlas", "--neurons", "4", "--facets", "2")
        assert status == 0
        data = [l for l in out.splitlines()[1:] if not l.startswith("#")]
        assert data and all(",CONVEX," in line for line in data)

    def test_caps_enforced(self, capsys):
        status, _, err = run(capsys, "atlas", "--neurons", "7")
        assert status == 5
        assert "unsafe" in err

    def test_unsafe_lifts_caps(self, capsys):
        status, out, _ = run(capsys, "atlas", "--neurons", "3", "--facets", "5", "--unsafe")
        assert status == 0

    def test_byte_determinism(self, capsys):
        outs = {run(capsys, "atlas", "--neurons", "5", "--facets", "3")[1] for _ in range(2)}
        assert len(outs) == 1

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "atlas.csv"
        status, out, _ = run(capsys, "atlas", "--neurons", "4", "--facets", "2", "--out", str(path))
        assert status == 0
        assert path.read_text().startswith("code,")

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "atlas.csv"
        status, out, err = run(capsys, "atlas", "--neurons", "3", "--facets", "2", "--out", str(path))
        assert status == 5
        assert out == ""
        assert err.startswith("convexcodes: cannot write CSV: ")
        assert len(err.splitlines()) == 1

    def test_meta_header(self, capsys):
        _, plain, _ = run(capsys, "atlas", "--neurons", "4", "--facets", "2")
        _, meta, _ = run(capsys, "atlas", "--neurons", "4", "--facets", "2", "--meta")
        assert meta.startswith("#")
        assert meta.splitlines()[1:] == plain.splitlines() or plain in meta


def test_version_flag(capsys):
    status, out, _ = run(capsys, "--version")
    assert status == 0
    assert out == "convexcodes 0.1.0\n"
