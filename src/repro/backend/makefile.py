"""Build-script generation (Sec. 3: AOT compilation emits Makefiles).

One Makefile per generated bundle, using the toolchain of Table 3:
``sw5cc``/``mpicc`` hybrid compilation on Sunway (MPE code with the host
compiler, CPE code with the slave compiler), ``gcc -fopenmp`` on Matrix
and the CPU server, with optional MPI linking for multi-node runs.

The gcc toolchains build with ``-ffp-contract=off``: contracting
``a*b + c`` into an FMA rounds once where the numpy reference rounds
twice, so ``make`` would build a program that is not bit-equal to
``reference_run`` (nor to the native backend, which compiles with these
same flags).
"""

from __future__ import annotations

__all__ = ["generate_makefile", "toolchain_cflags", "TOOLCHAINS"]

TOOLCHAINS = {
    "sunway": {
        "host_cc": "sw5cc -host",
        "slave_cc": "sw5cc -slave",
        "link": "mpicc -hybrid",
        "cflags": "-O3 -msimd",
    },
    "matrix": {
        "cc": "gcc",
        "cflags": "-O3 -fopenmp -march=armv8-a -ffp-contract=off",
        "libs": "-lm",
    },
    # NOTE: -march=native makes binaries host-specific.  Anything that
    # caches build products (repro.backend.native) must key on the
    # *resolved* architecture (gcc -march=native -Q --help=target) plus
    # the compiler version, never on this literal flag string.
    "cpu": {
        "cc": "gcc",
        "cflags": "-O3 -fopenmp -march=native -ffp-contract=off",
        "libs": "-lm",
    },
}


def toolchain_cflags(target: str = "cpu") -> list:
    """The toolchain's cflags as an argv-style list (order preserved)."""
    if target not in TOOLCHAINS:
        raise ValueError(
            f"unknown target {target!r}; known: {sorted(TOOLCHAINS)}"
        )
    return TOOLCHAINS[target]["cflags"].split()


def generate_makefile(name: str, target: str) -> str:
    """Return Makefile text for a generated bundle.

    ``name`` is the bundle stem (``<name>.c`` or ``<name>_master.c`` /
    ``<name>_slave.c``); ``target`` selects the toolchain.
    """
    if target not in TOOLCHAINS:
        raise ValueError(
            f"unknown target {target!r}; known: {sorted(TOOLCHAINS)}"
        )
    tc = TOOLCHAINS[target]
    if target == "sunway":
        return (
            f"# generated by MSC for Sunway (hybrid MPE/CPE)\n"
            f"HOST_CC = {tc['host_cc']}\n"
            f"SLAVE_CC = {tc['slave_cc']}\n"
            f"LINK = {tc['link']}\n"
            f"CFLAGS = {tc['cflags']}\n"
            f"\n"
            f"all: {name}\n"
            f"\n"
            f"{name}_master.o: {name}_master.c {name}.h\n"
            f"\t$(HOST_CC) $(CFLAGS) -c {name}_master.c -o $@\n"
            f"\n"
            f"{name}_slave.o: {name}_slave.c {name}.h\n"
            f"\t$(SLAVE_CC) $(CFLAGS) -c {name}_slave.c -o $@\n"
            f"\n"
            f"{name}_common.o: {name}_common.c {name}.h\n"
            f"\t$(HOST_CC) $(CFLAGS) -c {name}_common.c -o $@\n"
            f"\n"
            f"{name}: {name}_master.o {name}_slave.o {name}_common.o\n"
            f"\t$(LINK) $^ -o $@\n"
            f"\n"
            f"# sequential build against the bundled athread stub"
            f" (testing)\n"
            f"single: {name}_master.c {name}_slave.c {name}_common.c"
            f" {name}.h msc_athread_stub.h\n"
            f"\tgcc -O2 -ffp-contract=off -DMSC_ATHREAD_STUB {name}_master.c"
            f" {name}_slave.c {name}_common.c -o {name} -lm\n"
            f"\n"
            f"clean:\n"
            f"\trm -f {name} *.o\n"
            f"\n"
            f".PHONY: all single clean\n"
        )
    return (
        f"# generated by MSC for target {target}\n"
        f"CC = {tc['cc']}\n"
        f"CFLAGS = {tc['cflags']}\n"
        f"LIBS = {tc['libs']}\n"
        f"\n"
        f"all: {name}\n"
        f"\n"
        f"{name}: {name}.c\n"
        f"\t$(CC) $(CFLAGS) {name}.c -o $@ $(LIBS)\n"
        f"\n"
        f"clean:\n"
        f"\trm -f {name}\n"
        f"\n"
        f".PHONY: all clean\n"
    )
