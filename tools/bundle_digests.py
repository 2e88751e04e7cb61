"""sha256 of the generated C the benchmark compiles, one line per bundle.

The evidence a PR gives when it says it did not change the native
path, in ``sha256sum`` format, 112 lines:

- the 8 Table-4 programs x zero/periodic/reflect x the two cpu
  flavours (``shared``: the ``msc_*`` library ``NativeExecutor`` loads;
  ``file``: the file-I/O ``main``), default grid and schedule;
- the same with each program's Table-5 ``cpu`` schedule (tile, reorder,
  ``parallel``: what the tiled host benchmarks compile), as
  ``<program>/<boundary>/<flavour>/table5``;
- the Sunway athread bundle with its Table-5 schedule, zero/periodic,
  as ``<program>/<boundary>/sunway/table5``.

Run from the repository root, once per checkout, and compare:

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
from repro.backend.sunway import SunwayCodeGenerator  # noqa: E402
from repro.evalsuite.harness import build_with_schedule  # noqa: E402
from repro.frontend.stencils import ALL_BENCHMARKS  # noqa: E402

BOUNDARIES = ("zero", "periodic", "reflect")
FLAVOURS = {"shared": SharedLibGenerator, "file": CCodeGenerator}
SUNWAY_BOUNDARIES = ("zero", "periodic")


def _digest(generator, prog, boundary: str) -> str:
    files = generator(
        prog.ir, prog.schedules(), boundary=boundary
    ).generate("bundle").files
    text = "".join(f"{name}\0{files[name]}\0" for name in sorted(files))
    return hashlib.sha256(text.encode()).hexdigest()


def bundle_digests() -> dict:
    """``{"<program>/<boundary>/<flavour>[/table5]": sha256 hex}``."""
    digests = {}
    for bench in ALL_BENCHMARKS:
        tiled, _ = build_with_schedule(bench.name, "cpu")
        for boundary in BOUNDARIES:
            prog, _ = bench.build(boundary=boundary)
            for flavour, generator in FLAVOURS.items():
                key = f"{bench.name}/{boundary}/{flavour}"
                digests[key] = _digest(generator, prog, boundary)
                digests[f"{key}/table5"] = _digest(generator, tiled,
                                                   boundary)
        sunway, _ = build_with_schedule(bench.name, "sunway")
        for boundary in SUNWAY_BOUNDARIES:
            digests[f"{bench.name}/{boundary}/sunway/table5"] = _digest(
                SunwayCodeGenerator, sunway, boundary)
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
