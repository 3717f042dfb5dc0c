"""Seeded workloads: input generators, timed jobs and the correctness gate.

A workload turns a seed into an endless stream of job specs, grouped in
blocks.  The structure of the i-th job (instance, stage or step count, term
count) is a fixed function of i, and a block covers every instance and
count once, so any whole number of blocks has the same mix whatever the
seed; the seed only draws the exponents and coefficients.  Measured
windows and traced passes are whole blocks.

Each job has three parts and only the middle one is timed:

    prepare(spec)        write the inputs the program reads (target files)
    run(spec, slot)      the user-level work, through the public API or
                         `hahndisk.cli.main` with stdout captured
    check(spec, slot, out)
                         the correctness gate: exit codes, verifier reports,
                         golden bytes and the independent oracles below

The oracles here share no code with the package: schoolbook product and sum
on plain dicts, the series text format, and the enumeration of Z[1/p].
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

#: (p, gamma_x, v_s); the first one with 12 stages is the golden build.
INSTANCES = [
    (3, Fraction(1, 2), Fraction(1, 4)),
    (5, Fraction(1, 3), Fraction(1, 2)),
    (7, Fraction(1, 2), Fraction(1, 8)),
    (3, Fraction(1, 2), Fraction(1, 100)),
]
GOLDEN_INSTANCE = (INSTANCES[0], 12)


class JobFailed(Exception):
    """A job's outputs did not pass the correctness gate."""


# -- independent oracles -------------------------------------------------------


def weight(exps, gamma_x):
    """Weight of t^a x^q under the residue profile (1, gamma_x)."""
    return exps[0] + exps[1] * gamma_x


def render(terms, precision, gamma_x) -> str:
    """The series text format: terms by (weight, exponents), then O(...)."""
    lines = []
    for exps in sorted(terms, key=lambda e: (weight(e, gamma_x), e)):
        line = f"{terms[exps]} t^{exps[0]}"
        if exps[1]:
            line += f" x1^{exps[1]}"
        lines.append(line)
    lines.append(f"O({'EXACT' if precision is None else precision})")
    return "\n".join(lines) + "\n"


def tidy(terms, precision, p, gamma_x):
    """Reduce coefficients mod p and drop zeros and terms at or past the
    precision bound, as every stored series must."""
    out = {}
    for exps, c in terms.items():
        c %= p
        if c and (precision is None or weight(exps, gamma_x) < precision):
            out[exps] = c
    return out


def val(terms, precision, gamma_x):
    if terms:
        return min(weight(e, gamma_x) for e in terms)
    return precision


def schoolbook_mul(f, g, p, gamma_x):
    """(terms, precision) of f * g, with f and g given as (terms, precision)."""
    (ft, fp), (gt, gp) = f, g
    acc = {}
    for e1, c1 in ft.items():
        for e2, c2 in gt.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            acc[key] = acc.get(key, 0) + c1 * c2
    fv, gv = val(ft, fp, gamma_x), val(gt, gp, gamma_x)
    cands = [a + b for a, b in ((fp, gv), (gp, fv)) if a is not None and b is not None]
    prec = min(cands) if cands else None
    return tidy(acc, prec, p, gamma_x), prec


def schoolbook_add(f, g, p, gamma_x, sign=1):
    (ft, fp), (gt, gp) = f, g
    acc = dict(ft)
    for e, c in gt.items():
        acc[e] = acc.get(e, 0) + sign * c
    precs = [x for x in (fp, gp) if x is not None]
    prec = min(precs) if precs else None
    return tidy(acc, prec, p, gamma_x), prec


def enumeration(n: int, p: int) -> list:
    """The first n values of the fixed enumeration of Z[1/p]: reduced i/p^k
    by height max(|i|, p^k), then smaller k, smaller |i|, positive first."""
    out = [Fraction(0)]
    h = 1
    while len(out) < n:
        block = []
        k, pk = 0, 1
        while pk <= h:
            for i in range(1, h + 1):
                if (k == 0 or i % p) and max(i, pk) == h:
                    block += [(k, i, 0, Fraction(i, pk)), (k, i, 1, Fraction(-i, pk))]
            k, pk = k + 1, pk * p
        out += [c[-1] for c in sorted(block)]
        h += 1
    return out[:n]


def series_of(obj):
    """(terms, precision) of a package series, for comparison with oracles."""
    return dict(obj.terms), obj.precision


# -- job plumbing ----------------------------------------------------------------


def run_cli(cli, argv):
    """Run one `hahndisk` command in-process; return (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def expect(ok, what):
    if not ok:
        raise JobFailed(what)


def expect_pass(code, text, what):
    lines = text.strip().splitlines()
    expect(code == 0 and lines and lines[-1].startswith("PASS:"),
           f"{what}: verify exited {code}: {lines[-1] if lines else '(no output)'}")


def files_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


def instance_argv(inst, stages=None):
    p, gamma_x, v_s = inst
    argv = ["--p", str(p), "--gamma-x", str(gamma_x), "--v-s", str(v_s)]
    if stages is not None:
        argv += ["--stages", str(stages)]
    return argv


def rand_padic(rng, p, max_num, max_k):
    return Fraction(rng.randint(-max_num, max_num), p ** rng.randint(0, max_k))


class Workload:
    name = ""
    #: jobs in one block
    block = 1

    def __init__(self, hd, root: Path):
        self.hd = hd  # the imported package modules, by short name
        self.root = root

    def blocks(self, seed):
        """Endless stream of blocks (lists of job specs) drawn from seed."""
        rng = random.Random(f"{self.name}:{seed}")
        start = 0
        while True:
            yield [self.make_spec(rng, i) for i in range(start, start + self.block)]
            start += self.block

    def prepare(self, spec, slot: Path):
        pass

    def output_bytes(self, spec, slot: Path, out) -> int:
        return files_bytes(slot)

    def trace_bytes(self, slot: Path) -> int:
        """Bytes of division traces the job wrote."""
        return 0


# -- series ----------------------------------------------------------------------


class SeriesWorkload(Workload):
    """Library arithmetic on seeded random pairs, one prime per job."""

    name = "series"
    # One job per prime.  The term counts of f and g drive the cost and the
    # output size of a job most: over 144 blocks every prime meets every
    # pair of counts (1..12, 1..12) once.
    block = 3
    primes = INSTANCES[:3]

    def make_spec(self, rng, i):
        k, j = i % 3, i // 3
        p, gamma_x, _ = self.primes[k]
        f = self._random(rng, p, gamma_x, j % 12 + 1)
        g = self._random(rng, p, gamma_x, j // 12 % 12 + 1)
        ft, fp = f
        v = val(ft, fp, gamma_x)
        weights = sorted({weight(e, gamma_x) for e in ft})
        # Contract the inverse to a few multiples of the gap above the
        # leading weight: the geometric iteration then takes a bounded
        # number of rounds instead of growing with 1/gap.
        gap = weights[1] - weights[0] if len(weights) > 1 else Fraction(2)
        delta = min(Fraction(2), 3 * gap)
        if fp is not None:
            delta = min(delta, fp - v)
        return {"inst": k, "f": f, "g": g, "frob": rng.randint(1, 2),
                "target": -v + delta}

    @staticmethod
    def _random(rng, p, gamma_x, draws):
        """Up to `draws` terms (fewer where exponents repeat or fall past
        the precision), exponents i/p^k with k <= 3; a unique leading
        weight so that inversion is defined."""
        while True:
            terms = {}
            for _ in range(draws):
                exps = (rand_padic(rng, p, 27, 3), rand_padic(rng, p, 27, 3))
                terms[exps] = rng.randint(1, p - 1)
            prec = None if rng.random() < 0.4 else Fraction(rng.randint(10, 20))
            terms = tidy(terms, prec, p, gamma_x)
            weights = sorted(weight(e, gamma_x) for e in terms)
            if weights and (len(weights) == 1 or weights[0] < weights[1]):
                return terms, prec

    def setup(self):
        self.fields = [self.hd["config"].InstanceConfig(p=p, gamma_x=g, v_s=v).residue()
                       for p, g, v in self.primes]

    def run(self, spec, slot):
        series = self.hd["series"]
        profile = self.fields[spec["inst"]].profile
        f = series.TruncatedSeries(profile, *spec["f"])
        g = series.TruncatedSeries(profile, *spec["g"])
        k = spec["frob"]
        product = f * g
        text = series.render_series(product)
        return {
            "f": f,
            "mul": product,
            "add": f + g,
            "sub": f - g,
            "frob": f.frobenius(k).frobenius(-k),
            "inv": f.invert(spec["target"]),
            "text": text,
            "parsed": series.parse_series(profile, text),
        }

    def expected(self, spec):
        """The oracle's results for a spec, computed once per spec: the
        measured run repeats the deck, and the oracle costs as much as the
        job itself."""
        if "expected" not in spec:
            p, gamma_x, _ = self.primes[spec["inst"]]
            f, g = spec["f"], spec["g"]
            mul = schoolbook_mul(f, g, p, gamma_x)
            spec["expected"] = {
                "f": f, "mul": mul, "parsed": mul, "frob": f,
                "add": schoolbook_add(f, g, p, gamma_x),
                "sub": schoolbook_add(f, g, p, gamma_x, -1),
                "text": render(*mul, gamma_x),
            }
        return spec["expected"]

    def check(self, spec, slot, out):
        p, gamma_x, _ = self.primes[spec["inst"]]
        expected = self.expected(spec)
        for key in ("f", "mul", "add", "sub", "frob", "parsed"):
            expect(series_of(out[key]) == expected[key],
                   f"{key} differs from the schoolbook oracle")
        expect(out["text"] == expected["text"], "render_series differs from the format")
        f, inv = spec["f"], series_of(out["inv"])
        one = ({(Fraction(0), Fraction(0)): 1}, None)
        rest = schoolbook_add(schoolbook_mul(f, inv, p, gamma_x), one, p, gamma_x, -1)
        if inv[1] is None:
            expect(len(f[0]) == 1 and f[1] is None and rest == ({}, None),
                   "exact inverse of a non-monomial")
        else:
            v = val(*f, gamma_x)
            expect(rest == ({}, spec["target"] + v),
                   "f * f.invert(target) - 1 is not zero at the contracted precision")

    def output_bytes(self, spec, slot, out):
        return len(out["text"].encode())


# -- construct ---------------------------------------------------------------------


class ConstructWorkload(Workload):
    """build, adapted for three exponents, verify of the plan and each
    certificate, all through the command line."""

    name = "construct"
    # 4 instances x stages (12, 12, 12, 24).  The latency distribution has
    # one mode per stage count, and the 12-stage mode one cluster per
    # instance; with this mix the median falls inside a cluster, not in a
    # gap, and the 24-stage builds make up the tail.
    block = 16

    def make_spec(self, rng, i):
        inst = INSTANCES[i % 16 // 4]
        stages = (12, 12, 12, 24)[i % 4]
        p = inst[0]
        enum = enumeration(stages + 40, p)
        on = set(enum[:stages])
        m = rng.randint(1, stages)
        qs = [(enum[m - 1], m)]
        # off the enumeration prefix: one positive, one negative value
        for sign in (1, -1):
            while True:
                q = sign * Fraction(rng.randint(1, 3 * stages), p ** rng.randint(0, 2))
                if q not in on:
                    break
            qs.append((q, stages + 1))
        return {"inst": inst, "stages": stages, "adapted": qs}

    def setup(self):
        golden = self.root / "tests" / "golden"
        self.golden = {path.relative_to(golden).as_posix(): path.read_bytes()
                       for path in sorted(golden.rglob("*")) if path.is_file()}
        for p, _, _ in INSTANCES:
            self.hd["valgroup"].omega_prefix(24, p)

    def run(self, spec, slot):
        cli = self.hd["cli"]
        common = instance_argv(spec["inst"], spec["stages"])
        out = {"build": run_cli(cli, ["build", *common, "--out", str(slot / "build")]),
               "verify_plan": run_cli(cli, ["verify", str(slot / "build" / "plan.json")]),
               "adapted": []}
        for j, (q, _) in enumerate(spec["adapted"]):
            code, text = run_cli(cli, ["adapted", *common, "--out", str(slot / f"a{j}"),
                                       "--", str(q)])
            path = text.split("\n", 1)[0].removeprefix("certificate: ")
            out["adapted"].append((code, text, path, run_cli(cli, ["verify", path])))
        return out

    def check(self, spec, slot, out):
        code, _ = out["build"]
        expect(code == 0, f"build exited {code}")
        expect_pass(*out["verify_plan"], "plan")
        if (spec["inst"], spec["stages"]) == GOLDEN_INSTANCE:
            built = slot / "build"
            for name, data in self.golden.items():
                path = built / name
                expect(path.is_file() and path.read_bytes() == data,
                       f"{name} differs from tests/golden")
        for (q, m), (code, text, path, verified) in zip(spec["adapted"], out["adapted"]):
            expect(code == 0, f"adapted {q} exited {code}")
            expect_pass(*verified, f"certificate for {q}")
            doc = json.loads(Path(path).read_text())
            expect(doc["q"] == str(q) and doc["m"] == m,
                   f"certificate for {q} is stage {doc['m']} exponent {doc['q']}, "
                   f"expected stage {m}")


# -- divide ------------------------------------------------------------------------


class DivideWorkload(Workload):
    """divide against a seeded normalized target, then verify the trace."""

    name = "divide"
    block = 9  # 3 instances x steps {4, 8, 12}

    def make_spec(self, rng, i):
        k, s, b = i % 3, i % 9 // 3, i // 9
        inst = INSTANCES[k]
        steps = (4, 8, 12)[s]
        p, gamma_x, v_s = inst
        # The term count drives the cost of a job most.  Over 8 blocks every
        # (instance, steps) pair meets every count 1..8, and every block
        # holds each count at least once.
        n = (b + 3 * k + s) % 8 + 1
        terms = {}
        while len(terms) < n:
            # Each term is shifted by a whole power of t into a band the
            # division reaches, [j + v_s, j + 1 + v_s) with j < steps, so
            # every term of the target is divided.
            q = rand_padic(rng, p, 8, 2)
            t_exp = rand_padic(rng, p, 8, 2)
            j = rng.randrange(steps)
            t_exp += math.ceil(j + v_s - weight((t_exp, q), gamma_x))
            terms[(t_exp, q)] = rng.randint(1, p - 1)
        return {"inst": inst, "steps": steps, "target": render(terms, None, gamma_x)}

    def setup(self):
        for p, _, _ in INSTANCES[:3]:
            self.hd["valgroup"].omega_prefix(24, p)

    def prepare(self, spec, slot):
        (slot / "target.txt").write_text(spec["target"])

    def run(self, spec, slot):
        cli = self.hd["cli"]
        out = slot / "out"
        divided = run_cli(cli, ["divide", *instance_argv(spec["inst"]), "--out", str(out),
                                str(slot / "target.txt"), str(spec["steps"])])
        return {"divide": divided, "verify": run_cli(cli, ["verify", str(out / "trace.json")])}

    def check(self, spec, slot, out):
        code, _ = out["divide"]
        expect(code == 0, f"divide exited {code}")
        expect_pass(*out["verify"], "trace")
        doc = json.loads((slot / "out" / "trace.json").read_text())
        expect(doc["target"] == spec["target"], "trace target differs from the input file")
        expect(doc["normalize_k"] == 0 and doc["steps_requested"] == spec["steps"]
               and len(doc["steps"]) == spec["steps"], "trace has the wrong step count")

    def output_bytes(self, spec, slot, out):
        return files_bytes(slot / "out")

    def trace_bytes(self, slot):
        return (slot / "out" / "trace.json").stat().st_size


WORKLOADS = {w.name: w for w in (SeriesWorkload, ConstructWorkload, DivideWorkload)}


def reset_slot(slot: Path):
    shutil.rmtree(slot, ignore_errors=True)
    slot.mkdir(parents=True)
