#!/usr/bin/env python3
"""Check that a linked x86-64 binary keeps its VEX/EVEX code inside the
vector kernel translation units.

Every mixq build targets baseline x86-64 except two translation units,
simd_avx2.cpp (-mavx2) and simd_vnni.cpp (-mavx512*), which the runtime
enters only after a CPUID check. So the binary runs on any x86-64 host as
long as every function containing a VEX- or EVEX-encoded instruction is one
of those units' own functions. This script disassembles the binary and
fails when one is not.

The allowed set is derived from the two object files: the names of their
strong text symbols (`t`/`T` in nm). A weak symbol (`W`) is not allowed
even though a flagged object defines it: an inline or template function
that a flagged unit instantiates gets a weak copy compiled with the unit's
ISA flags, and the linker may keep that copy for every caller.

The same hazard is also caught where it is made, before the copy holds any
vector code: an object that contains VEX/EVEX code must define no weak
symbol (`W`/`V` in nm) at all. Optimized builds usually inline such copies
away, so this is what makes an unoptimized (Debug) build fail on them too.

Usage:
  check_isa_isolation.py --binary BIN --objects OBJ [OBJ ...]
                         [--nm NM] [--objdump OBJDUMP]

Exit status: 0 clean, 1 a stray VEX/EVEX function or a weak symbol in a
vector object, 2 a missing input file, 77 skipped (nm or objdump is not
installed; the reason is printed).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

SKIP = 77

# Legacy prefixes that may precede a VEX/EVEX escape byte in 64-bit mode.
LEGACY_PREFIXES = {0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67,
                   0xF0, 0xF2, 0xF3}
# In 64-bit mode 0xC4/0xC5 always start a VEX prefix and 0x62 an EVEX one.
VEX_EVEX_ESCAPES = {0xC4, 0xC5, 0x62}

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\t([0-9a-f ]+)\t")


def resolve_tool(name, given):
    path = given if given and not given.endswith("NOTFOUND") else None
    return path if path and os.path.exists(path) else shutil.which(name)


def defined_symbols(nm, obj, types):
    """Names of the symbols `obj` defines with an nm type in `types`."""
    out = subprocess.run([nm, "--defined-only", obj], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def is_vex_or_evex(hex_bytes):
    for tok in hex_bytes.split():
        b = int(tok, 16)
        if b in LEGACY_PREFIXES:
            continue
        return b in VEX_EVEX_ESCAPES
    return False


def vex_functions(objdump, binary):
    """Names of the functions in `binary` containing a VEX/EVEX instruction."""
    proc = subprocess.Popen([objdump, "-d", "--insn-width=16", binary],
                            stdout=subprocess.PIPE, text=True)
    found = set()
    current = None
    for line in proc.stdout:
        m = FUNC_RE.match(line.rstrip("\n"))
        if m:
            current = m.group(1)
            continue
        if current is None or current in found:
            continue
        m = INSN_RE.match(line)
        if m and is_vex_or_evex(m.group(1)):
            found.add(current)
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, objdump)
    return found


def demangle(names):
    cxxfilt = shutil.which("c++filt")
    if not cxxfilt or not names:
        return {n: n for n in names}
    out = subprocess.run([cxxfilt], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--binary", required=True)
    ap.add_argument("--objects", nargs="+", required=True)
    ap.add_argument("--nm")
    ap.add_argument("--objdump")
    args = ap.parse_args()

    nm = resolve_tool("nm", args.nm)
    objdump = resolve_tool("objdump", args.objdump)
    if not nm or not objdump:
        print("isa isolation: SKIPPED: nm or objdump not found")
        return SKIP
    for path in [args.binary] + args.objects:
        if not os.path.exists(path):
            print(f"isa isolation: ERROR: {path} does not exist")
            return 2

    allowed = set()
    weak = {}
    for obj in args.objects:
        allowed |= defined_symbols(nm, obj, ("t", "T"))
        if vex_functions(objdump, obj):
            weak[obj] = sorted(defined_symbols(nm, obj, ("W", "V")))
    vex = vex_functions(objdump, args.binary)
    strays = sorted(vex - allowed)
    print(f"isa isolation: {len(vex)} functions in {args.binary} contain "
          f"VEX/EVEX instructions; {len(allowed)} strong text symbols "
          f"allowed from {len(args.objects)} objects")
    failed = False
    if strays:
        names = demangle(strays)
        print(f"isa isolation: FAILED: {len(strays)} functions outside the "
              f"flagged TUs' strong text symbols contain VEX/EVEX code; the "
              f"binary may fault on a host without AVX:")
        for s in strays:
            print(f"  {names[s]}  [{s}]")
        failed = True
    for obj, syms in weak.items():
        if not syms:
            continue
        names = demangle(syms)
        print(f"isa isolation: FAILED: {obj} contains VEX/EVEX code and "
              f"defines {len(syms)} weak symbols; the linker may keep its "
              f"copy for a baseline caller:")
        for s in syms:
            print(f"  {names[s]}  [{s}]")
        failed = True
    if failed:
        return 1
    print("isa isolation: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
