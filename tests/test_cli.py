import copy
import json
import random
from pathlib import Path

import pytest

from hahndisk import InstanceConfig
from hahndisk.cli import main
from hahndisk.config import MAX_P
from hahndisk.series import render_series

from conftest import rand_normalized_target

GOLDEN = Path(__file__).parent / "golden"
# Transcripts beside the default build; tests/golden holds exactly the
# files a default build writes.
DATA = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


class TestBuild:
    def test_build_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("build", "--out", str(out)) == 0
        assert (out / "plan.json").read_bytes() == (GOLDEN / "plan.json").read_bytes()
        assert (out / "alpha.txt").read_bytes() == (GOLDEN / "alpha.txt").read_bytes()
        for i in (1, 2, 3):
            name = f"images/image_{i}.txt"
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_build_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("build", "--out", str(a)) == 0
        assert run("build", "--out", str(b)) == 0
        assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()
        assert (a / "alpha.txt").read_bytes() == (b / "alpha.txt").read_bytes()

    def test_invalid_gamma_is_usage_error(self, tmp_path):
        assert run("build", "--gamma-x", "1/3", "--out", str(tmp_path)) == 2

    def test_decimal_gamma_is_usage_error(self, tmp_path):
        # rationals are written num/den; 0.5 is not read as 1/2
        assert run("build", "--gamma-x", "0.5", "--out", str(tmp_path)) == 2

    def test_prime_above_ceiling_is_usage_error(self, tmp_path, primality_capped):
        assert run("build", "--out", str(tmp_path), "--p", str(MAX_P + 2)) == 2

    def test_minimal_instance(self, tmp_path, capsys):
        assert run("build", "--stages", "1", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert len(doc["stages"]) == 1


class TestAdapted:
    def test_known_exponent(self, tmp_path, capsys):
        assert run("adapted", "0", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "adapted_1.json").read_text())
        assert doc["m"] == 1 and doc["q"] == "0"
        assert run("verify", str(tmp_path / "adapted_1.json")) == 0

    def test_extension_exponent(self, tmp_path, capsys):
        assert run("adapted", "5/9", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "adapted_13.json").read_text())
        assert doc["q"] == "5/9"
        assert len(doc["plan"]["stages"]) == 13
        assert run("verify", str(tmp_path / "adapted_13.json")) == 0

    def test_malformed_exponent(self, tmp_path):
        assert run("adapted", "zzz", "--out", str(tmp_path)) == 2
        assert run("adapted", "1/2", "--out", str(tmp_path)) == 2


class TestDivide:
    def test_zero_target(self, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("O(EXACT)\n")
        assert run("divide", str(beta), "3", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["final"]["val_lower"] == "EXACT"

    def test_round_trip_target(self, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("1 t^10/9\nO(EXACT)\n")
        assert run("divide", str(beta), "6", "--out", str(tmp_path)) == 0
        assert run("verify", str(tmp_path / "trace.json")) == 0

    def test_auto_normalization_reported(self, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("1 t^0 x1^1/3\nO(EXACT)\n")  # valuation 1/6 < 1/4
        assert run("divide", str(beta), "2", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "normalized target by t^1" in out

    def test_missing_file(self, tmp_path):
        assert run("divide", str(tmp_path / "nope.txt"), "2") == 2


class TestRecordedTranscripts:
    """Certificates recorded by an earlier version, before the plan
    verifier, the stage search and the term weights were made incremental,
    and a trace recorded when traces moved to format 2; every later version
    must write them byte for byte."""

    @pytest.mark.parametrize("q,name", [
        ("-1/3", "adapted_minus1_3.json"),  # stage 9 of the enumeration
        ("-5/9", "adapted_minus5_9.json"),  # appends stage 13
    ])
    def test_adapted(self, q, name, tmp_path, capsys):
        assert run("adapted", "--out", str(tmp_path), "--", q) == 0
        path = capsys.readouterr().out.split("\n", 1)[0].removeprefix("certificate: ")
        assert Path(path).read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("source,name", [
        (GOLDEN / "plan.json", "verify_golden_plan.txt"),
        (DATA / "adapted_minus1_3.json", "verify_adapted_minus1_3.txt"),
        (DATA / "adapted_minus5_9.json", "verify_adapted_minus5_9.txt"),
    ])
    def test_verify_verbose(self, source, name, capsys):
        # recorded before plan verification moved to closed form: every
        # finding, its location and its message stay byte for byte
        assert run("verify", "--verbose", str(source)) == 0
        assert capsys.readouterr().out == (DATA / name).read_text()

    def test_divide(self, tmp_path, capsys):
        cfg = InstanceConfig()
        target = rand_normalized_target(random.Random(11), cfg.residue(), cfg.v_s)
        (tmp_path / "target.txt").write_text(render_series(target))
        out = tmp_path / "out"
        assert run("divide", "--out", str(out), str(tmp_path / "target.txt"), "4") == 0
        assert ((out / "trace.json").read_bytes()
                == (DATA / "divide_seed11_steps4.json").read_bytes())


class TestClassify:
    @pytest.mark.parametrize("radius,expected", [
        ("1", "Type II"),
        ("1/2", "Type III"),
        ("EXACT", "Type I"),
    ])
    def test_single_radius(self, radius, expected, capsys):
        assert run("classify", radius) == 0
        assert capsys.readouterr().out.strip().endswith(expected)

    def test_vector(self, capsys):
        assert run("classify", "1", "2/3") == 0
        assert capsys.readouterr().out.strip().endswith("Type II")

    def test_bad_radius(self, capsys):
        assert run("classify", "frog") == 2


class TestVerifyCommand:
    def test_golden_passes(self):
        assert run("verify", str(GOLDEN / "plan.json")) == 0

    def test_corrupted_fails_with_location(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "plan.json").read_text())
        doc["stages"][4]["b"] -= 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        assert "stage 5" in capsys.readouterr().out

    def test_non_json_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run("verify", str(bad)) == 2

    def test_empty_file_is_format_error(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        assert run("verify", str(bad)) == 2


@pytest.fixture(scope="module")
def trace_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    beta = out / "beta.txt"
    beta.write_text("1 t^10/9\n2 t^2 x1^1/3\nO(EXACT)\n")
    assert run("divide", str(beta), "3", "--out", str(out)) == 0
    return json.loads((out / "trace.json").read_text())


class TestVerifyMalformedTrace:
    """Malformed trace fields give a located FAIL (exit 1), never a traceback."""

    @pytest.mark.parametrize("where,mutate", [
        ("step 1", lambda d: d["steps"][1].pop("m")),
        ("step 1", lambda d: d["steps"][1].__setitem__("m", "one")),
        ("step 2", lambda d: d["steps"][2].__setitem__("m", 2.5)),
        ("trace", lambda d: d.__setitem__("steps", {"0": d["steps"][0]})),
        ("final", lambda d: d.__setitem__("final", ["residual"])),
        ("trace", lambda d: d.__setitem__("steps_requested", 99)),
        ("trace", lambda d: d.__setitem__("normalize_k", -5)),
        ("trace", lambda d: d.__setitem__("format", 1)),
        ("step 1", lambda d: d["steps"][1].__setitem__("a_after", "O(EXACT)\n")),
    ], ids=["missing-m", "string-m", "float-m", "steps-not-list", "final-not-object",
            "steps-requested", "negative-normalize-k", "format-1", "extra-a-after"])
    def test_located_failure(self, where, mutate, trace_doc, tmp_path, capsys):
        doc = copy.deepcopy(trace_doc)
        mutate(doc)
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        assert f"FAIL [{where}]" in capsys.readouterr().out

    def test_honest_trace_passes(self, trace_doc, tmp_path):
        good = tmp_path / "trace.json"
        good.write_text(json.dumps(trace_doc))
        assert run("verify", str(good)) == 0


class TestConfigHandling:
    def test_env_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3, "stages": 2}))
        monkeypatch.setenv("HAHNDISK_CONFIG", str(cfg))
        out = tmp_path / "out"
        assert run("build", "--out", str(out)) == 0
        doc = json.loads((out / "plan.json").read_text())
        assert doc["instance"]["stages"] == 2

    def test_flags_override_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": 2}))
        monkeypatch.setenv("HAHNDISK_CONFIG", str(cfg))
        out = tmp_path / "out"
        assert run("build", "--stages", "3", "--out", str(out)) == 0
        doc = json.loads((out / "plan.json").read_text())
        assert doc["instance"]["stages"] == 3

    def test_usage_error_exit_code(self):
        assert run("no-such-command") == 2


def test_selftest(capsys):
    assert run("selftest") == 0
    assert "PASS: selftest" in capsys.readouterr().out
