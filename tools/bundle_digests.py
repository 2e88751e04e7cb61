"""sha256 of the generated C of the cpu flavours, one line per bundle.

The evidence a PR gives when it says it did not change the native
path: the 8 Table-4 programs x zero/periodic/reflect x the two cpu
flavours (``shared``: the ``msc_*`` library ``NativeExecutor`` loads;
``file``: the file-I/O ``main``), default grid and schedule — 48 lines
in ``sha256sum`` format.  Run from the repository root, once per
checkout, and compare:

    python tools/bundle_digests.py > /tmp/parent.txt     # in the parent
    python tools/bundle_digests.py --compare /tmp/parent.txt

``--compare`` prints the bundles whose digest differs from (or is
missing on either side of) FILE and exits non-zero if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.backend.c_codegen import CCodeGenerator  # noqa: E402
from repro.backend.native import SharedLibGenerator  # noqa: E402
from repro.frontend.stencils import ALL_BENCHMARKS  # noqa: E402

BOUNDARIES = ("zero", "periodic", "reflect")
FLAVOURS = {"shared": SharedLibGenerator, "file": CCodeGenerator}


def bundle_digests() -> dict:
    """``{"<program>/<boundary>/<flavour>": sha256 hex}``."""
    digests = {}
    for bench in ALL_BENCHMARKS:
        for boundary in BOUNDARIES:
            prog, _ = bench.build(boundary=boundary)
            for flavour, generator in FLAVOURS.items():
                files = generator(
                    prog.ir, prog.schedules(), boundary=boundary
                ).generate("bundle").files
                text = "".join(f"{name}\0{files[name]}\0"
                               for name in sorted(files))
                digests[f"{bench.name}/{boundary}/{flavour}"] = (
                    hashlib.sha256(text.encode()).hexdigest())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests of another checkout to compare with")
    args = parser.parse_args(argv)
    digests = bundle_digests()
    if not args.compare:
        for bundle, digest in digests.items():
            print(f"{digest}  {bundle}")
        return 0
    theirs = {}
    for line in Path(args.compare).read_text().splitlines():
        digest, bundle = line.split()
        theirs[bundle] = digest
    differing = sorted(
        bundle for bundle in digests.keys() | theirs.keys()
        if digests.get(bundle) != theirs.get(bundle)
    )
    for bundle in differing:
        print(f"{bundle}: {theirs.get(bundle, 'missing')} -> "
              f"{digests.get(bundle, 'missing')}")
    print(f"{len(digests) - len(set(differing) & digests.keys())}/"
          f"{len(digests)} bundles identical to {args.compare}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
