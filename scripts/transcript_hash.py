"""One SHA-256 over the transcripts the command line writes and prints.

At each instance of `tests/conftest.INSTANCES` it runs, in process and in
a temporary directory: `build`; `adapted` for an exponent on the
enumeration and for a positive and a negative one off it; `divide` of a
seeded target (`conftest.rand_normalized_target`); and `verify --verbose`
of the plan, of each certificate and of the trace.  The hash covers each
command's arguments, exit code and stdout, with the temporary directory's
path masked, and the bytes of every file it wrote, by relative path.  Two
trees that print the same hash write and print the same bytes.  Run from
the repository root:

    PYTHONPATH=src python3 scripts/transcript_hash.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import INSTANCES, rand_normalized_target  # noqa: E402

from hahndisk import InstanceConfig, cli  # noqa: E402
from hahndisk.series import render_series  # noqa: E402
from hahndisk.valgroup import omega  # noqa: E402

STEPS = 4


def commands(p, gamma_x, v_s, root: Path) -> tuple:
    """(directory, argument lists) of one instance, the lists in order."""
    flags = ["--p", str(p), "--gamma-x", str(gamma_x), "--v-s", str(v_s)]
    out = root / f"p{p}_v{v_s.denominator}"
    argv = [["build", *flags, "--out", str(out / "build")],
            ["verify", "--verbose", str(out / "build" / "plan.json")]]
    # stage 9 of the enumeration, then two exponents that append a stage
    for j, q in enumerate((omega(9, p), Fraction(5, p ** 3), Fraction(-101, p ** 2))):
        argv.append(["adapted", *flags, "--out", str(out / f"adapted{j}"), "--", str(q)])
    argv.append(["divide", *flags, "--out", str(out / "divide"),
                 str(out / "target.txt"), str(STEPS)])
    argv.append(["verify", "--verbose", str(out / "divide" / "trace.json")])
    return out, argv


def run(argv: list) -> str:
    """Exit code and stdout of one command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{argv}\n{code}\n{buf.getvalue()}"


def transcript_hash() -> str:
    total = hashlib.sha256()

    def add(name: str, data: bytes):
        total.update(f"{name}\n{len(data)}\n".encode() + data)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (p, gamma_x, v_s) in enumerate(INSTANCES):
            out, argv = commands(p, gamma_x, v_s, root)
            out.mkdir(parents=True)
            config = InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s)
            target = rand_normalized_target(random.Random(11 + i), config.residue(), v_s)
            (out / "target.txt").write_text(render_series(target))
            for args in argv:
                text = run(args)
                if args[0] == "adapted":
                    # verify the certificate the command just wrote
                    path = text.split("\n")[2].removeprefix("certificate: ")
                    text += run(["verify", "--verbose", path])
                text = text.replace(tmp, "<tmp>")
                add(text.split("\n", 1)[0], text.encode())
        for path in sorted(root.rglob("*")):
            if path.is_file():
                add(path.relative_to(root).as_posix(), path.read_bytes())
    return total.hexdigest()


if __name__ == "__main__":
    print(transcript_hash())
