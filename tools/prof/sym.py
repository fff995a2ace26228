#!/usr/bin/env python3
"""Symbolize prof.c dumps: self and inclusive time per function.

    sym.py [--under NAME] [--top N] [--callers NAME] run1.prof [run2.prof ...]

Samples of all the files given are added up (a timer tick is 4 ms here, so
one short run has few). Only samples with a frame whose name contains
NAME (default `WorkflowSystem::run`, the benchmark's timed call) count;
`--under ''` keeps everything. Addresses are resolved with `nm -C -n` on
the executable named in the dump's own /proc/self/maps, by bisection;
frames in other objects (libc, the preload itself) show as `[object]`.
`--callers NAME` adds a table of (innermost frame matching NAME, its caller):
which of the many `from_iter`s, say, is the hot one.
"""
import argparse
import bisect
import collections
import os
import subprocess


def load_symbols(exe):
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


class Dump:
    def __init__(self, path):
        self.maps = []      # (start, end, file offset, object path)
        self.samples = []   # [innermost address, ..., outermost]
        for line in open(path):
            if line.startswith("M "):
                f = line[2:].split()
                if len(f) >= 6:
                    lo, hi = (int(x, 16) for x in f[0].split("-"))
                    self.maps.append((lo, hi, int(f[2], 16), f[5]))
            elif line.startswith("S"):
                self.samples.append([int(a, 16) for a in line.split()[1:]])
        # The executable is the first mapped object that is not a library.
        self.exe = next(p for _, _, _, p in self.maps if ".so" not in p and p.startswith("/"))
        # PIE load address (where file offset 0 is mapped); nm addresses are
        # relative to it. Segment offsets and addresses differ by padding,
        # so `start - offset` of the text mapping is not it.
        self.bias = min(lo for lo, _, off, p in self.maps if p == self.exe and off == 0)

    def name(self, addr, symbols):
        for lo, hi, _, path in self.maps:
            if lo <= addr < hi:
                if path != self.exe:
                    return "[%s]" % os.path.basename(path)
                addrs, names = symbols
                # A return address points just past the call: step back one.
                i = bisect.bisect_right(addrs, addr - self.bias - 1) - 1
                return names[i] if i >= 0 else "[?]"
        return "[unmapped]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--under", default="WorkflowSystem::run")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", metavar="NAME")
    args = ap.parse_args()

    self_t, incl_t, callers_t = (collections.Counter() for _ in range(3))
    total = kept = 0
    symbols = {}
    for path in args.dumps:
        dump = Dump(path)
        syms = symbols.setdefault(dump.exe, load_symbols(dump.exe))
        for stack in dump.samples:
            total += 1
            names = [dump.name(a, syms) for a in stack]
            if not names or (args.under and not any(args.under in n for n in names)):
                continue
            kept += 1
            self_t[names[0]] += 1
            for n in set(names):
                incl_t[n] += 1
            if args.callers:
                for k, n in enumerate(names[:-1]):
                    if args.callers in n:
                        callers_t["%s  <-  %s" % (n[:70], names[k + 1])] += 1
                        break

    print("%d samples, %d under %r" % (total, kept, args.under))
    tables = [("self", self_t), ("inclusive", incl_t)]
    if args.callers:
        tables.append(("callers of %r" % args.callers, callers_t))
    for title, table in tables:
        print("\n%s" % title)
        for name, n in table.most_common(args.top):
            print("%6d %5.1f%%  %s" % (n, 100.0 * n / max(kept, 1), name[:150]))


if __name__ == "__main__":
    main()
