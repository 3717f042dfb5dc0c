"""Command-line surface.

Subcommands: build | adapted | divide | classify | verify | selftest.
Instance flags (--p, --gamma-x, --v-s, --prec, --stages, --seed) override a
JSON config file given by --config or the HAHNDISK_CONFIG environment
variable.  Exit codes: 0 success, 1 contract violation or failed
verification, 2 usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import builder, division, verify
from .config import CONFIG_ENV, InstanceConfig
from .errors import ConfigError, FormatError, HahndiskError
from .fields import classify_disk_point
from .series import random_series, render_series
from .tate import save_substitution
from .valgroup import EXACT, as_fraction, is_in_zp

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2


def _instance_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("instance")
    group.add_argument("--config", help="JSON config file with instance defaults")
    group.add_argument("--p", type=int, help="odd prime (default 3)")
    group.add_argument("--gamma-x", help="-log r, a rational outside Z[1/p] (default 1/2)")
    group.add_argument("--v-s", help="-log s in (0, 1) (default 1/4)")
    group.add_argument("--prec", help="working precision (default 2*(stages+1))")
    group.add_argument("--stages", type=int, help="committed stages M (default 12)")
    group.add_argument("--seed", type=int, help="seed for randomized suites (default 0)")
    group.add_argument("--out", help="output directory (default '.')")
    return common


def build_config(args) -> InstanceConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    base = InstanceConfig.from_file(path) if path else InstanceConfig()
    overrides = {}
    if args.p is not None:
        overrides["p"] = args.p
    if args.gamma_x is not None:
        overrides["gamma_x"] = as_fraction(args.gamma_x)
    if args.v_s is not None:
        overrides["v_s"] = as_fraction(args.v_s)
    if args.stages is not None:
        overrides["stages"] = args.stages
    if args.prec is not None:
        overrides["work_prec"] = as_fraction(args.prec)
    elif args.stages is not None:
        overrides["work_prec"] = None  # re-derive the default from stages
    if args.seed is not None:
        overrides["seed"] = args.seed
    if not overrides:
        return base
    data = base.to_dict()
    data.update({k: v for k, v in overrides.items() if v is not None})
    if "work_prec" in overrides and overrides["work_prec"] is None:
        data.pop("work_prec", None)
    return InstanceConfig.from_dict(
        {k: (str(v) if isinstance(v, Fraction) else v) for k, v in data.items()}
    )


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args) -> int:
    config = build_config(args)
    field = config.residue()
    ring = config.tate(3)
    plan = builder.build_plan(config)
    summary = builder.plan_summary(plan, field, ring)
    doc = builder.plan_to_doc(plan, summary=summary)
    out = _outdir(args)
    plan_path = out / "plan.json"
    alpha_path = out / "alpha.txt"
    plan_path.write_text(builder.dump_doc(doc))
    alpha_path.write_text(render_series(builder.assemble_alpha(plan, field)))
    sub = builder.standard_substitution(plan, field, ring)
    image_paths = save_substitution(sub, out / "images")
    print(f"plan: {plan_path}")
    print(f"alpha: {alpha_path}")
    print(f"images: {', '.join(str(p) for p in image_paths)}")
    for st in plan.stages:
        print(f"stage {st.m}: omega={st.omega} v_e={st.v_e} b={st.b} v_eps={st.v_eps}")
    print(f"certificates verified: {summary['certificates_verified']}")
    print(f"witness valuation: {summary['witness_valuation']} "
          f"(in value group: {summary['witness_in_value_group']})")
    print(f"relation maps to zero: {summary['relation_maps_to_zero']}")
    return EXIT_OK


def cmd_adapted(args) -> int:
    config = build_config(args)
    q = as_fraction(args.q)
    if not is_in_zp(q, config.p):
        raise FormatError(f"q = {q} is not in Z[1/{config.p}]")
    field = config.residue()
    ring = config.tate(3)
    plan = builder.build_plan(config)
    cert = builder.certificate_for_exponent(plan, q, field, ring)
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
    field = config.residue()
    ring = config.tate(3)
    try:
        text = Path(args.target).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read target file {args.target}: {exc}")
    beta = field.parse(text)
    plan = builder.build_plan(config)
    if beta.is_zero and beta.precision is EXACT:
        k, normalized = 0, beta
    else:
        k, normalized = division.normalize_target(field, beta, config.v_s)
    if k:
        print(f"normalized target by t^{k}")
    trace = division.run_division(plan, field, ring, normalized, args.steps)
    doc = division.trace_to_doc(trace, normalize_k=k)
    out = _outdir(args)
    path = out / "trace.json"
    path.write_text(builder.dump_doc(doc))
    print(f"trace: {path}")
    for step in trace.steps:
        val = step.beta_after.val_lower()
        shown = "EXACT" if val is None else val
        print(f"step {step.m}: residual valuation >= {shown}")
    print(f"final residual valuation >= "
          f"{'EXACT' if trace.final_val_lower is None else trace.final_val_lower} "
          f"(bound {trace.final_bound})")
    return EXIT_OK


def cmd_classify(args) -> int:
    config = build_config(args)
    radii = []
    for raw in args.radii:
        if raw.upper() == "EXACT":
            radii.append(None)
        else:
            radii.append(as_fraction(raw))
    kind = classify_disk_point(config.p, radii)
    for raw, r in zip(args.radii, radii):
        if r is None:
            detail = "point sentinel"
        elif is_in_zp(r, config.p):
            detail = f"in Z[1/{config.p}]"
        else:
            detail = f"outside Z[1/{config.p}]"
        print(f"radius value {raw}: {detail}")
    print(kind.value)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        doc = json.loads(Path(args.file).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{args.file} is not valid JSON: {exc}")
    report = verify.verify_document(doc)
    print(report.text(verbose=args.verbose))
    return EXIT_OK if report.ok else EXIT_CONTRACT


def cmd_selftest(args) -> int:
    config = build_config(args)
    rng = random.Random(config.seed)
    field = config.residue()
    ring = config.tate(3)
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
        profile = field.profile
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
            builder.build_adapted(plan, m, field, ring)
        witness = builder.kernel_witness(plan, field, ring)
        assert witness["witness_in_value_group"] is False
        assert witness["relation_maps_to_zero"] is True
        report = verify.verify_plan(
            builder.plan_to_doc(plan, summary=builder.plan_summary(plan, field, ring)))
        assert report.ok, report.text()

    def divide_roundtrip():
        plan = builder.build_plan(config)
        cert = builder.build_adapted(plan, 1, field, ring)
        beta = field.monomial(1, 1, 0) * cert.image
        trace = division.run_division(plan, field, ring, beta, 4)
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


def make_parser() -> argparse.ArgumentParser:
    common = _instance_parser()
    parser = argparse.ArgumentParser(
        prog="hahndisk",
        description="Exact truncated series arithmetic over F_p, disk-point "
                    "residue fields, and certified division transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common],
                             help="build the staged plan, certificates and alpha")
    p_build.set_defaults(fn=cmd_build)

    p_adapted = sub.add_parser("adapted", parents=[common],
                               help="emit the adapted certificate for an exponent")
    p_adapted.add_argument("q", help="leading exponent, a rational in Z[1/p]")
    p_adapted.set_defaults(fn=cmd_adapted)

    p_divide = sub.add_parser("divide", parents=[common],
                              help="run certified division steps against a target")
    p_divide.add_argument("target", help="file holding the target series text")
    p_divide.add_argument("steps", nargs="?", type=int, default=8,
                          help="number of division steps (default 8)")
    p_divide.set_defaults(fn=cmd_divide)

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify a disk point by its radius values")
    p_classify.add_argument("radii", nargs="+",
                            help="additive radius values (-log r), or EXACT "
                                 "for the point sentinel")
    p_classify.set_defaults(fn=cmd_classify)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="independently re-check a transcript file")
    p_verify.add_argument("file", help="plan, certificate or trace JSON")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print passing checks too")
    p_verify.set_defaults(fn=cmd_verify)

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the seeded smoke suite")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HahndiskError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
