import copy
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from hahndisk import InstanceConfig, builder, cli, verify
from hahndisk.cli import main, make_parser
from hahndisk.config import MAX_P
from hahndisk.series import render_series

from conftest import INSTANCES, rand_normalized_target

GOLDEN = Path(__file__).parent / "golden"
# Transcripts beside the default build; tests/golden holds exactly the
# files a default build writes.
DATA = Path(__file__).parent / "data"
SCRIPTS = Path(__file__).parent.parent / "scripts"


def run(*argv):
    return main(list(argv))


#: The stage lines `build` prints for the default instance.
GOLDEN_STAGE_LINES = """\
stage 1: omega=0 v_e=1/9 b=0 v_eps=0
stage 2: omega=1 v_e=-1/3 b=3 v_eps=0
stage 3: omega=-1 v_e=2/3 b=5 v_eps=9
stage 4: omega=2 v_e=-8/9 b=8 v_eps=9
stage 5: omega=-2 v_e=10/9 b=11 v_eps=5832
stage 6: omega=3 v_e=-4/3 b=13 v_eps=39366
stage 7: omega=-3 v_e=5/3 b=16 v_eps=2125764
stage 8: omega=1/3 v_e=0 b=18 v_eps=14348907
stage 9: omega=-1/3 v_e=1/3 b=20 v_eps=14348907
stage 10: omega=2/3 v_e=-2/9 b=23 v_eps=14348907
stage 11: omega=-2/3 v_e=4/9 b=26 v_eps=20920706406
stage 12: omega=4 v_e=-17/9 b=29 v_eps=20920706406
"""


class TestBuild:
    def test_build_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("build", "--out", str(out)) == 0
        assert (out / "plan.json").read_bytes() == (GOLDEN / "plan.json").read_bytes()
        assert (out / "alpha.txt").read_bytes() == (GOLDEN / "alpha.txt").read_bytes()
        for i in (1, 2, 3):
            name = f"images/image_{i}.txt"
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()
        images = ", ".join(str(out / "images" / f"image_{i}.txt") for i in (1, 2, 3))
        assert capsys.readouterr().out == (
            f"plan: {out / 'plan.json'}\n"
            f"alpha: {out / 'alpha.txt'}\n"
            f"images: {images}\n"
            + GOLDEN_STAGE_LINES +
            "certificates verified: 12\n"
            "witness valuation: 1/2 (in value group: False)\n"
            "relation maps to zero: True\n")

    @pytest.mark.parametrize("instance, gamma_line", zip(INSTANCES, [
        "witness valuation: 1/2 (in value group: False)\n",
        "witness valuation: 1/3 (in value group: False)\n",
        "witness valuation: 1/2 (in value group: False)\n",
        "witness valuation: 1/2 (in value group: False)\n",
    ]), ids=["p3", "p5", "p7", "v_s-1/100"])
    def test_build_prints_the_witness_lines(self, instance, gamma_line, tmp_path, capsys):
        p, gamma_x, v_s = instance
        assert run("build", "--out", str(tmp_path), "--p", str(p), "--gamma-x", str(gamma_x),
                   "--v-s", str(v_s)) == 0
        assert capsys.readouterr().out.endswith(
            "certificates verified: 12\n" + gamma_line + "relation maps to zero: True\n")

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
        assert doc["steps"] == [[], [], []]
        out = capsys.readouterr().out
        assert out.endswith("final residual valuation >= EXACT (bound 13/4)\n")
        assert "normalized" not in out
        assert run("verify", str(tmp_path / "trace.json")) == 0

    def test_stage_search_ceiling_is_a_resource_limit(self, tmp_path, capsys, monkeypatch):
        # the default plan's largest b is 29; with the ceiling there, the
        # stage that t x^(5/9) appends at step 1 has no Frobenius exponent
        monkeypatch.setattr(builder, "MAX_B_SEARCH", 29)
        beta = tmp_path / "beta.txt"
        beta.write_text("1 t^1 x1^5/9\nO(EXACT)\n")
        out = tmp_path / "out"
        assert run("divide", "--out", str(out), str(beta), "3") == 1
        captured = capsys.readouterr()
        assert captured.err == ("resource ceiling: no Frobenius exponent below 29 "
                                "resolves stage 13\n")
        assert not (out / "trace.json").exists()

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
        assert json.loads((tmp_path / "trace.json").read_text())["normalize_k"] == 1
        assert run("verify", str(tmp_path / "trace.json")) == 0

    def test_missing_file(self, tmp_path):
        assert run("divide", str(tmp_path / "nope.txt"), "2") == 2

    @pytest.mark.parametrize("text,message", [
        ("1 t^1/2\nO(EXACT)\n", "exponent 1/2 is not in Z[1/3]"),
        ("1 t^1\n2 t^1\nO(EXACT)\n", "duplicate exponent vector"),
        ("1 t^1 x2^1\nO(EXACT)\n", "variable 'x2' outside profile"),
    ], ids=["exponent-outside-zp", "duplicate-term", "unknown-variable"])
    def test_malformed_target_is_usage_error(self, text, message, tmp_path, capsys):
        # an exponent outside Z[1/p] is malformed input, not a contract violation
        target = tmp_path / "target.txt"
        target.write_text(text)
        assert run("divide", str(target), "--out", str(tmp_path / "out")) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in out + err

    def test_negative_steps_is_usage_error(self, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("1 t^10/9\nO(EXACT)\n")
        out = tmp_path / "out"
        assert run("divide", "--out", str(out), str(beta), "--", "-1") == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "step count" in captured.err
        assert not (out / "trace.json").exists()


class TestRecordedTranscripts:
    r"""Two certificates and two traces, last recorded when plans moved to
    format 3 (each equal to the one before with the embedded plan's
    `format` 3); every later version must write them, the `build`,
    `adapted` and `divide` output and the `verify --verbose` reports on
    them byte for byte.

    These commands re-record every pinned file: `tests/golden/*`, the
    transcripts in `tests/data/*.json`, their `verify --verbose` reports in
    `tests/data/verify_*.txt` and `verify_plan_perturbations.txt`.  Run
    them in order from the repository root, in a POSIX shell:

        D=$(mktemp -d); export PYTHONPATH=src:tests
        python -m hahndisk.cli build --out tests/golden
        python -m hahndisk.cli adapted --out $D -- -1/3
        cp $D/adapted_9.json tests/data/adapted_minus1_3.json
        python -m hahndisk.cli adapted --out $D -- -5/9
        cp $D/adapted_13.json tests/data/adapted_minus5_9.json
        python -c "import random, conftest; from hahndisk import *; \
            c = InstanceConfig(); print(render_series(conftest.rand_normalized_target( \
            random.Random(11), c.residue(), c.v_s)), end='')" > $D/target.txt
        python -m hahndisk.cli divide --out $D $D/target.txt 4
        cp $D/trace.json tests/data/divide_seed11_steps4.json
        python -m hahndisk.cli divide --p 5 --gamma-x 1/3 --v-s 1/2 --out $D \
            tests/data/divide_p5_target.txt 4
        cp $D/trace.json tests/data/divide_p5_steps4.json
        python -m hahndisk.cli verify --verbose tests/golden/plan.json \
            > tests/data/verify_golden_plan.txt
        for f in adapted_minus1_3 adapted_minus5_9 divide_seed11_steps4 divide_p5_steps4; do
            python -m hahndisk.cli verify --verbose tests/data/$f.json \
                > tests/data/verify_$f.txt
        done
        python -c "import test_verify as t; print(t.perturbation_reports(), end='')" \
            > tests/data/verify_plan_perturbations.txt

    `tests/data/divide_p5_target.txt` is the input of the p = 5 run, not an
    output, and is never re-recorded."""

    ADAPTED_STDOUT = {
        "-1/3": "stage 9, exponent -1/3\n"
                "  value_window: 83/486 in [0, v_s) 1/4 -> ok\n"
                "  leading_exponent: -1/3 == -1/3 -> ok\n"
                "  tail_gap: 730/243 > 5/4 -> ok\n",
        "-5/9": "stage 13, exponent -5/9\n"
                "  value_window: 763/13122 in [0, v_s) 1/4 -> ok\n"
                "  leading_exponent: -5/9 == -5/9 -> ok\n"
                "  tail_gap: 170603/6561 > 5/4 -> ok\n",
    }

    @pytest.mark.parametrize("q,name", [
        ("-1/3", "adapted_minus1_3.json"),  # stage 9 of the enumeration
        ("-5/9", "adapted_minus5_9.json"),  # appends stage 13
    ])
    def test_adapted(self, q, name, tmp_path, capsys):
        assert run("adapted", "--out", str(tmp_path), "--", q) == 0
        first, rest = capsys.readouterr().out.split("\n", 1)
        path = first.removeprefix("certificate: ")
        assert Path(path).read_bytes() == (DATA / name).read_bytes()
        assert rest == self.ADAPTED_STDOUT[q]

    @pytest.mark.parametrize("source,name", [
        (GOLDEN / "plan.json", "verify_golden_plan.txt"),
        (DATA / "adapted_minus1_3.json", "verify_adapted_minus1_3.txt"),
        (DATA / "adapted_minus5_9.json", "verify_adapted_minus5_9.txt"),
        (DATA / "divide_seed11_steps4.json", "verify_divide_seed11_steps4.txt"),
        (DATA / "divide_p5_steps4.json", "verify_divide_p5_steps4.txt"),
    ])
    def test_verify_verbose(self, source, name, capsys):
        # every finding, its location and its message stay byte for byte
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
        assert capsys.readouterr().out == (
            f"trace: {out / 'trace.json'}\n"
            "step 0: residual valuation >= 31/18\n"
            "step 1: residual valuation >= 5/2\n"
            "step 2: residual valuation >= 32/9\n"
            "step 3: residual valuation >= 49/9\n"
            "final residual valuation >= 49/9 (bound 17/4)\n")

    def test_divide_off_the_default_prime(self, tmp_path, capsys):
        # p = 5: the band exponents 2/25, -4/5, -25 and 50 append four
        # stages, so the run rebuilds its map and checks on the extended plan
        out = tmp_path / "out"
        assert run("divide", "--p", "5", "--gamma-x", "1/3", "--v-s", "1/2",
                   "--out", str(out), str(DATA / "divide_p5_target.txt"), "4") == 0
        assert ((out / "trace.json").read_bytes()
                == (DATA / "divide_p5_steps4.json").read_bytes())
        assert capsys.readouterr().out == (
            f"trace: {out / 'trace.json'}\n"
            "step 0: residual valuation >= 5/3\n"
            "step 1: residual valuation >= 8/3\n"
            "step 2: residual valuation >= 27\n"
            "step 3: residual valuation >= 27\n"
            "final residual valuation >= 27 (bound 9/2)\n")

    #: What `scripts/transcript_hash.py` prints.  A change meant to move
    #: output bytes updates it and gives the reason in CHANGES.md.
    TRANSCRIPT_HASH = "382a8fb04fac92b5e407a193abebf5a402b8ac305fd184167b4168475170d52f"

    def test_transcript_hash(self):
        # build, adapted, divide and verify --verbose at every instance of
        # INSTANCES write and print the same bytes
        spec = importlib.util.spec_from_file_location(
            "transcript_hash", SCRIPTS / "transcript_hash.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.transcript_hash() == self.TRANSCRIPT_HASH


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

    def test_other_prime(self, capsys):
        assert run("classify", "--p", "5", "1/5") == 0
        out = capsys.readouterr().out
        assert "in Z[1/5]" in out and out.strip().endswith("Type II")

    def test_prime_is_checked(self, primality_capped):
        assert run("classify", "--p", "9", "1") == 2
        assert run("classify", "--p", str(MAX_P + 2), "1") == 2

    def test_config_is_not_read(self, tmp_path, capsys, monkeypatch):
        # classify reads only p: a config that no instance accepts, since
        # 1/3 lies in Z[1/3], is left unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_x": "1/3"}))
        monkeypatch.setenv("HAHNDISK_CONFIG", str(cfg))
        assert run("build", "--out", str(tmp_path / "out")) == 2
        assert run("classify", "1") == 0
        assert capsys.readouterr().out.strip().endswith("Type II")


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

    @pytest.mark.parametrize("argv", [
        ("verify", "--p", "5", str(GOLDEN / "plan.json")),
        ("verify", "--out", "out", str(GOLDEN / "plan.json")),
        ("classify", "--out", "out", "1"),
        ("selftest", "--out", "out"),
        ("classify", "--stages", "3", "1"),
    ], ids=["verify-p", "verify-out", "classify-out", "selftest-out", "classify-stages"])
    def test_ignored_flags_are_usage_errors(self, argv, capsys):
        # a transcript carries its own instance, these commands write no
        # files, and classify reads no instance but its prime
        assert run(*argv) == 2


@pytest.fixture(scope="module")
def trace_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    beta = out / "beta.txt"
    beta.write_text("1 t^10/9\n2 t^2 x1^1/3\nO(EXACT)\n")
    assert run("divide", str(beta), "3", "--out", str(out)) == 0
    return json.loads((out / "trace.json").read_text())


BIG = "1" + "0" * 5000  # past the int-conversion digit limit


class TestOverLongNumerals:
    """Numerals past the int-conversion digit limit are format errors."""

    def test_verify_plan_with_huge_b_exits_2(self, tmp_path, capsys):
        text = (GOLDEN / "plan.json").read_text()
        assert '"b": 0,' in text
        bad = tmp_path / "plan.json"
        bad.write_text(text.replace('"b": 0,', f'"b": {BIG},', 1))
        assert run("verify", str(bad)) == 2
        assert "digit" in capsys.readouterr().err

    def test_trace_target_with_huge_exponent_fails_at_trace(self, trace_doc, tmp_path, capsys):
        doc = copy.deepcopy(trace_doc)
        doc["target"] = f"1 t^{BIG}\nO(EXACT)\n"
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        assert "FAIL [trace]" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [f"1 t^{BIG}\nO(EXACT)\n", f"{BIG} t^1\nO(EXACT)\n"],
                             ids=["exponent", "coefficient"])
    def test_divide_target_exits_2(self, text, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text(text)
        assert run("divide", str(target), "--out", str(tmp_path / "out")) == 2

    def test_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"stages": {BIG}}}')
        assert run("build", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2


def nested(depth):
    return "[" * depth + "]" * depth


class TestUnreadableInput:
    """JSON nested past the recursion limit, and a file that is not UTF-8,
    are format errors: exit 2, an `error:` line, and no traceback."""

    @staticmethod
    def check(capsys, *argv, message="nests too deeply"):
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in out + err

    def test_verify_document(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text(nested(200_000))
        self.check(capsys, "verify", str(bad))

    def test_verify_plan_instance(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "plan.json").read_text())
        doc["instance"] = "deep"
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(doc).replace('"deep"', nested(5000)))
        self.check(capsys, "verify", str(bad))

    def test_config_file(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"p": {nested(5000)}}}')
        out = str(tmp_path / "out")
        self.check(capsys, "build", "--config", str(cfg), "--out", out)
        monkeypatch.setenv("HAHNDISK_CONFIG", str(cfg))
        self.check(capsys, "build", "--out", out)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "{bad}"],
        ["build", "--config", "{bad}", "--out", "{out}"],
        ["divide", "{bad}", "--out", "{out}"],
    ], ids=["verify", "config", "divide-target"])
    def test_not_utf8(self, argv, tmp_path, capsys):
        # a divide target raised UnicodeDecodeError, and the JSON readers
        # blamed the integer digit limit
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}")
        argv = [a.format(bad=bad, out=tmp_path / "out") for a in argv]
        self.check(capsys, *argv, message="is not UTF-8 text")


def old_step(*drop, **fields):
    """A step as format 3 wrote it, an object, with the fields `drop` left
    out and `fields` set."""
    step = {"band": "O(EXACT)\n", "e": "O(EXACT)\n", "beta_after": "O(EXACT)\n"}
    for name in drop:
        del step[name]
    return {**step, **fields}


class TestVerifyMalformedTrace:
    """Malformed trace fields give a located FAIL (exit 1), never a traceback.
    A step is a list of [q, d] pairs; steps 0 and 1 hold one pair each."""

    @pytest.mark.parametrize("where,mutate", [
        # a step object, as formats 2 and 3 wrote it, fails at its step
        ("step 1", lambda d: d["steps"].__setitem__(1, old_step("band"))),
        ("step 1", lambda d: d["steps"].__setitem__(1, old_step(m="one"))),
        ("step 2", lambda d: d["steps"].__setitem__(2, old_step(m=2.5))),
        ("step 1", lambda d: d["steps"].__setitem__(1, old_step(a_after="O(EXACT)\n"))),
        ("step 1", lambda d: d["steps"].__setitem__(1, old_step(e=f"1 t^{BIG}\nO(EXACT)\n"))),
        ("step 2", lambda d: d["steps"].__setitem__(2, old_step(beta_after=None))),
        ("step 2", lambda d: d["steps"].__setitem__(2, old_step("beta_after"))),
        ("trace", lambda d: d.__setitem__("steps", {"0": d["steps"][0]})),
        # as is a trace carrying format 2's `final`: its residual is derived
        ("trace", lambda d: d.__setitem__("final", ["residual"])),
        ("trace", lambda d: d.__setitem__("steps_requested", 99)),
        ("trace", lambda d: d.__setitem__("normalize_k", -5)),
        ("trace", lambda d: d.__setitem__("format", 1)),
        ("trace", lambda d: d.__setitem__("format", 3)),
        # the top-level field set is exact
        ("trace", lambda d: d.__setitem__("note", "unread")),
        ("trace", lambda d: d.pop("normalize_k")),
        # recorded quotient text is compared, never parsed
        ("step 1", lambda d: d["steps"][1][0].__setitem__(1, f"1 t^{BIG}\nO(EXACT)\n")),
        ("step 1", lambda d: d["steps"].__setitem__(1, None)),
        ("step 1", lambda d: d["steps"][1].__setitem__(0, None)),
        ("step 1", lambda d: d["steps"][1].__setitem__(0, ["1/3"])),
        ("step 0", lambda d: d["steps"][0].__setitem__(0, [0, "O(EXACT)\n"])),
        ("step 2", lambda d: d["steps"][2].append(["1/3", "O(EXACT)\n"])),
    ], ids=["missing-band", "string-m", "float-m", "extra-a-after", "big-e",
            "last-beta-after-not-text", "missing-beta-after", "steps-not-list",
            "final-not-object", "steps-requested", "negative-normalize-k", "format-1",
            "format-3", "extra-key", "missing-key", "big-d", "step-null", "pair-null",
            "pair-short", "pair-integer-q", "pair-extra"])
    def test_located_failure(self, where, mutate, trace_doc, tmp_path, capsys):
        doc = copy.deepcopy(trace_doc)
        mutate(doc)
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        out, err = capsys.readouterr()
        assert f"FAIL [{where}]" in out
        assert "Traceback" not in out + err

    def test_target_exponent_outside_zp(self, trace_doc, tmp_path, capsys):
        doc = copy.deepcopy(trace_doc)
        doc["target"] = "1 t^1/2\nO(EXACT)\n"
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        assert ("FAIL [trace] malformed trace: exponent 1/2 is not in Z[1/3]"
                in capsys.readouterr().out)

    def test_honest_trace_passes(self, trace_doc, tmp_path):
        good = tmp_path / "trace.json"
        good.write_text(json.dumps(trace_doc))
        assert run("verify", str(good)) == 0


#: The `summary` that `build` wrote into the default format-2 plan.
HONEST_SUMMARY = {"alpha_precision": "13", "alpha_valuation": "1/9",
                  "certificates_verified": 12, "relation_maps_to_zero": True,
                  "witness_in_value_group": False, "witness_valuation": "1/2"}
EXTRA_SUMMARY = ("FAIL [plan] fields ['format', 'instance', 'kind', 'stages', 'summary'] "
                 "are ['format', 'instance', 'kind', 'stages']\nFAIL: 2 checks, 1 failures\n")


class TestVerifyMalformedSummary:
    """A plan records no `summary`: its kernel witnesses are derived.  A plan
    carrying one, whatever its value, is one FAIL at `plan` (exit 1)."""

    @pytest.mark.parametrize("change,want", [
        ({"summary": "x"}, EXTRA_SUMMARY),
        ({"summary": 1.5}, EXTRA_SUMMARY),
        ({"summary": []}, EXTRA_SUMMARY),
        ({"summary": True}, EXTRA_SUMMARY),
        ({"summary": HONEST_SUMMARY}, EXTRA_SUMMARY),
        # the default plan as format 2 wrote it
        ({"format": 2, "summary": HONEST_SUMMARY},
         "FAIL [plan] format 2 is 3\nFAIL: 1 checks, 1 failures\n"),
    ], ids=["string", "float", "list", "true", "honest", "format-2-golden"])
    def test_located_failure(self, change, want, tmp_path, capsys):
        doc = json.loads((GOLDEN / "plan.json").read_text())
        doc.update(change)
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 1
        out, err = capsys.readouterr()
        assert out == want
        assert "Traceback" not in out + err


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

    def test_file_work_prec_survives_stages_flag(self, tmp_path):
        # a file value survives unless its own flag replaces it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"work_prec": "40"}))
        out = tmp_path / "out"
        assert run("build", "--config", str(cfg), "--stages", "5", "--out", str(out)) == 0
        instance = json.loads((out / "plan.json").read_text())["instance"]
        assert (instance["stages"], instance["work_prec"]) == (5, "40")

    def test_file_work_prec_conflicting_with_stages_flag(self, tmp_path, capsys):
        # the file alone is valid; the merged record is checked once, and
        # work_prec 5 <= 30 + 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": 2, "work_prec": "5"}))
        out = tmp_path / "out"
        assert run("build", "--config", str(cfg), "--stages", "30", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must exceed stages + 1" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["stages"])
    def test_boolean_integer_is_usage_error(self, key, tmp_path):
        # JSON true is not the integer 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        assert run("build", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2

    def test_seed_is_not_an_instance_key(self, tmp_path, monkeypatch):
        # a plan records no seed: only selftest takes one, as its own flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0}))
        out = str(tmp_path / "out")
        assert run("build", "--config", str(cfg), "--out", out) == 2
        assert run("build", "--seed", "1", "--out", out) == 2
        monkeypatch.setenv("HAHNDISK_CONFIG", str(cfg))
        assert run("build", "--out", out) == 2
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code(self):
        assert run("no-such-command") == 2


def test_selftest(capsys):
    assert run("selftest") == 0
    assert "PASS: selftest" in capsys.readouterr().out


def test_selftest_seed(capsys):
    assert run("selftest", "--seed", "5") == 0
    assert "PASS: selftest" in capsys.readouterr().out


class TestPlanReuse:
    """In one process, `build_plan` builds and verifies one plan per
    config; each `verify` call still checks the plan it reads."""

    def test_build_then_adapted_verify_the_plan_once(self, tmp_path, monkeypatch, capsys):
        builder.build_plan.cache_clear()
        calls = Counter()
        for name in ("verify_plan", "_check_plan"):
            def spy(*args, name=name, real=getattr(verify, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(verify, name, spy)
        assert run("build", "--out", str(tmp_path / "build")) == 0
        paths = [tmp_path / "build" / "plan.json"]
        for j, q in enumerate(("-1/3", "5/9", "-7")):  # on, off, off the enumeration
            assert run("adapted", "--out", str(tmp_path / f"a{j}"), "--", q) == 0
            paths += (tmp_path / f"a{j}").glob("adapted_*.json")
        assert calls == {"verify_plan": 1, "_check_plan": 1}
        for path in paths:
            assert run("verify", str(path)) == 0
        assert calls == {"verify_plan": 2, "_check_plan": 5}


class TestParserReuse:
    """`make_parser` builds the parser once per process, and `main` looks
    each command's handler up at call time."""

    @pytest.mark.parametrize("first, first_code, then, want", [
        (["verify", "--verbose", "{plan}"], 0, ["verify", "{plan}"], "PASS"),
        (["divide", "{target}", "4", "--out", "{out}"], 0,
         ["divide", "{target}", "--out", "{out}"], "\nstep 7: "),  # 8 steps, the default
        (["build", "--p", "5", "--out", "{out}"], 0, ["classify", "1/2"],
         "radius value 1/2: outside Z[1/3]\n"),  # --p 3, the default
        (["build", "--no-such-flag"], 2, ["classify", "1/2"], "outside Z[1/3]"),
        (["--help"], 0, ["--help"], "usage: hahndisk"),
    ], ids=["verify-verbose", "divide-steps", "build-p", "usage-error", "help"])
    def test_a_call_after_another_is_a_fresh_call(self, first, first_code, then, want,
                                                    tmp_path, capsys):
        # `then` made after `first` gives the exit code and stdout that it
        # gives made first, on a parser built for it
        target = tmp_path / "t.txt"
        target.write_text("1 t^2\n1 t^3 x1^-1\nO(EXACT)\n")
        names = {"{plan}": GOLDEN / "plan.json", "{target}": target, "{out}": tmp_path / "out"}

        def call(argv):
            code = main([str(names.get(a, a)) for a in argv])
            return code, capsys.readouterr().out

        make_parser.cache_clear()
        fresh = call(then)
        assert fresh[0] == 0 and want in fresh[1]
        make_parser.cache_clear()
        assert call(first)[0] == first_code
        assert call(then) == fresh
        assert make_parser() is make_parser()

    def test_handler_is_looked_up_at_call_time(self, monkeypatch):
        # perfbench's tracer replaces cli.cmd_* after an untraced pass has
        # already called main
        plan = str(GOLDEN / "plan.json")
        assert run("verify", plan) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.file) or 0)
        assert run("verify", plan) == 0
        assert calls == [plan]
