"""Command-line surface.

Subcommands: build | adapted | divide | classify | verify | selftest.
Instance flags (--p, --gamma-x, --v-s, --prec, --stages) replace their own
keys of a JSON config file given by --config or the HAHNDISK_CONFIG
environment variable;
`verify` takes none of them, since a transcript carries its instance, and
`classify` takes only its own --p (default 3), the one value it reads.
`selftest` also takes its own --seed (default 0) for its random series,
which no plan records.  build, adapted and divide write into --out.  A
format-3 plan records only its instance and each stage's omega and b;
`build` writes the plan's substitution map beside it and prints the stage
count and the two kernel witnesses, which `verify` derives from the
instance of every plan.  `divide` writes a format-4 trace, which records
only each step's quotients, and prints what it leaves out, computed in
process: each step's residual valuation and the final one against its
bound steps + v_s.  Exit codes: 0 success, 1 contract violation, failed
verification or the stage search's resource ceiling, 2 usage or format
errors, among them an input file that is not UTF-8 and JSON nested too
deeply.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import shutil
import sys
from pathlib import Path

from . import builder, division, verify
from .config import CONFIG_ENV, InstanceConfig, read_json, read_text
from .errors import ConfigError, FormatError, HahndiskError, SearchCeilingError
from .fields import classify_disk_point
from .series import random_series
from .tate import save_substitution
from .valgroup import as_fraction, is_in_zp

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2


def build_config(args) -> InstanceConfig:
    """The config file's instance with each given flag replacing its key;
    the config checks the merged record once."""
    path = args.config or os.environ.get(CONFIG_ENV)
    data = read_json(path, f"config file {path}") if path else {}
    flags = {"p": args.p, "gamma_x": args.gamma_x, "v_s": args.v_s,
             "stages": args.stages, "work_prec": args.prec}
    return InstanceConfig.from_dict(data, **{k: v for k, v in flags.items() if v is not None})


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args) -> int:
    plan = builder.build_plan(build_config(args))
    witness = builder.kernel_witness(plan)
    out = _outdir(args)
    plan_path = out / "plan.json"
    alpha_path = out / "alpha.txt"
    plan_path.write_text(builder.dump_doc(builder.plan_to_doc(plan)))
    image_paths = save_substitution(plan.substitution, out / "images")
    shutil.copyfile(image_paths[2], alpha_path)  # alpha is the third image, rendered once
    print(f"plan: {plan_path}")
    print(f"alpha: {alpha_path}")
    print(f"images: {', '.join(str(p) for p in image_paths)}")
    for st in plan.stages:
        print(f"stage {st.m}: omega={st.omega} v_e={st.v_e} b={st.b} v_eps={st.v_eps}")
    # build_plan's own verification certified every stage
    print(f"certificates verified: {len(plan.stages)}")
    print(f"witness valuation: {witness['witness_valuation']} "
          f"(in value group: {witness['witness_in_value_group']})")
    print(f"relation maps to zero: {witness['relation_maps_to_zero']}")
    return EXIT_OK


def cmd_adapted(args) -> int:
    config = build_config(args)
    q = as_fraction(args.q)
    if not is_in_zp(q, config.p):
        raise FormatError(f"q = {q} is not in Z[1/{config.p}]")
    plan, cert = builder.certify(builder.build_plan(config), q)
    doc = builder.certificate_to_doc(plan, cert)
    out = _outdir(args)
    path = out / f"adapted_{cert.m}.json"
    path.write_text(builder.dump_doc(doc))
    print(f"certificate: {path}")
    print(f"stage {cert.m}, exponent {cert.q}")
    for check in cert.checks:
        print(f"  {check.name}: {check.lhs} {check.op} {check.rhs} -> "
              f"{'ok' if check.ok else 'FAIL'}")
    return EXIT_OK


def cmd_divide(args) -> int:
    config = build_config(args)
    beta = config.residue().parse(read_text(args.target, f"target file {args.target}"))
    plan = builder.build_plan(config)
    k, normalized = division.normalize_target(plan, beta)
    if k:
        print(f"normalized target by t^{k}")
    trace = division.run_division(plan, normalized, args.steps)
    doc = division.trace_to_doc(trace, normalize_k=k)
    out = _outdir(args)
    path = out / "trace.json"
    path.write_text(builder.dump_doc(doc))
    print(f"trace: {path}")
    for m, step in enumerate(trace.steps):
        print(f"step {m}: residual valuation >= {_shown_val(step.beta_after)}")
    print(f"final residual valuation >= {_shown_val(trace.final_beta)} "
          f"(bound {len(trace.steps) + config.v_s})")
    return EXIT_OK


def _shown_val(beta) -> str:
    val = beta.val_lower()
    return "EXACT" if val is None else str(val)


def cmd_classify(args) -> int:
    p = InstanceConfig(p=args.p).p  # checks p <= MAX_P before primality
    radii = []
    for raw in args.radii:
        if raw.upper() == "EXACT":
            radii.append(None)
        else:
            radii.append(as_fraction(raw))
    kind = classify_disk_point(p, radii)
    for raw, r in zip(args.radii, radii):
        if r is None:
            detail = "point sentinel"
        elif is_in_zp(r, p):
            detail = f"in Z[1/{p}]"
        else:
            detail = f"outside Z[1/{p}]"
        print(f"radius value {raw}: {detail}")
    print(kind.value)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.verify_document(read_json(args.file, args.file))
    print(report.text(verbose=args.verbose))
    return EXIT_OK if report.ok else EXIT_CONTRACT


def cmd_selftest(args) -> int:
    config = build_config(args)
    rng = random.Random(args.seed)
    failures = []

    def run(name, fn):
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")

    def series_laws():
        profile = config.residue().profile
        for _ in range(100):
            f = random_series(rng, profile, max_terms=8, max_num=12, max_k=2)
            g = random_series(rng, profile, max_terms=8, max_num=12, max_k=2)
            fg = f * g
            vf, vg = f.val_lower(), g.val_lower()
            if f.terms and g.terms:
                assert fg.val_lower() == vf + vg
            s = f + g
            if f.terms and g.terms and vf != vg:
                assert s.val_lower() == min(vf, vg)

    def construction():
        plan = builder.build_plan(config)
        for m in range(1, len(plan.stages) + 1):
            cert = builder.build_adapted(plan, m)
            report = verify.verify_certificate(builder.certificate_to_doc(plan, cert))
            assert report.ok, report.text()
        witness = builder.kernel_witness(plan)
        assert witness["witness_in_value_group"] is False
        assert witness["relation_maps_to_zero"] is True
        report = verify.verify_plan(builder.plan_to_doc(plan))
        assert report.ok, report.text()

    def divide_roundtrip():
        plan = builder.build_plan(config)
        cert = builder.build_adapted(plan, 1)
        beta = plan.field.monomial(1, 1, 0) * cert.image
        trace = division.run_division(plan, beta, 4)
        doc = division.trace_to_doc(trace)
        report = verify.verify_trace(doc)
        assert report.ok, report.text()

    run("series laws", series_laws)
    run("construction and certificates", construction)
    run("division round-trip", divide_roundtrip)
    if failures:
        print(f"FAIL: {len(failures)} selftest group(s) failed")
        return EXIT_CONTRACT
    print("PASS: selftest")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no per-call state, and
    `main` looks each command's handler up at call time."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("instance")
    group.add_argument("--config", help="JSON config file with instance defaults")
    group.add_argument("--p", type=int, help="odd prime (default 3)")
    group.add_argument("--gamma-x", help="-log r, a rational outside Z[1/p] (default 1/2)")
    group.add_argument("--v-s", help="-log s in (0, 1) (default 1/4)")
    group.add_argument("--prec", help="working precision (default 2*(stages+1))")
    group.add_argument("--stages", type=int, help="committed stages M (default 12)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output directory (default '.')")
    writes = [common, out]
    parser = argparse.ArgumentParser(
        prog="hahndisk",
        description="Exact truncated series arithmetic over F_p, disk-point "
                    "residue fields, and certified division transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=writes, help="build the staged plan, certificates and alpha")

    p_adapted = sub.add_parser("adapted", parents=writes,
                               help="emit the adapted certificate for an exponent")
    p_adapted.add_argument("q", help="leading exponent, a rational in Z[1/p]; "
                                     "put a negative one after --, as in "
                                     "'hahndisk adapted -- -1/3'")

    p_divide = sub.add_parser("divide", parents=writes,
                              help="run certified division steps against a target")
    p_divide.add_argument("target", help="file holding the target series text")
    p_divide.add_argument("steps", nargs="?", type=int, default=8,
                          help="number of division steps (default 8)")

    p_classify = sub.add_parser("classify",
                                help="classify a disk point by its radius values")
    p_classify.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
    p_classify.add_argument("radii", nargs="+",
                            help="additive radius values (-log r), or EXACT "
                                 "for the point sentinel")

    p_verify = sub.add_parser("verify",
                              help="independently re-check a transcript file")
    p_verify.add_argument("file", help="plan, certificate or trace JSON")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print passing checks too")

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the seeded smoke suite")
    p_self.add_argument("--seed", type=int, default=0,
                        help="seed for the random series (default 0)")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # a cmd_* replaced after the first call is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchCeilingError as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except HahndiskError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
