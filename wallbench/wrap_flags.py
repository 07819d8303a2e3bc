#!/usr/bin/env python3
"""Writes the linker response file of the traced binary.

    wrap_flags.py <wraps.def> <out.rsp> <nm> <library.a>...

For every function listed in wraps.def that the libraries define, emits
--wrap=<sym> (route calls through the interposer) and --undefined=<sym>
(pull in the archive member that defines it: the only remaining reference
to <sym> is the interposer's weak __real_ one, which would not). A listed
function the libraries no longer define gets neither flag, so the traced
build keeps linking and that interposer simply never runs.
"""

import re
import subprocess
import sys


def main():
    spec, out, nm, libs = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    with open(spec) as f:
        wanted = [re.search(r"_Z[A-Za-z0-9_]+", line).group(0)
                  for line in f if line.startswith("WRAP")]
    defined = set()
    for lib in libs:
        listing = subprocess.run([nm, "--defined-only", lib], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
        for line in listing.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "TW":
                defined.add(parts[2])
    with open(out, "w") as f:
        for sym in wanted:
            if sym in defined:
                f.write("--wrap=%s\n--undefined=%s\n" % (sym, sym))
            else:
                print("wrap_flags: %s is not defined; not wrapped" % sym,
                      file=sys.stderr)


if __name__ == "__main__":
    main()
