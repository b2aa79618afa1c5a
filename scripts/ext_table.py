#!/usr/bin/env python3
"""Print the Ext tables between all irreducibles up to a chosen degree."""

import argparse

from uqslcat.category import ext_dim
from uqslcat.qmodules import family_label


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--max-deg", type=int, default=4)
    args = ap.parse_args()
    p = args.p
    irreps = [(a, s) for a in (1, -1) for s in range(1, p + 1)]
    for n in range(args.max_deg + 1):
        print(f"\nExt^{n} at p={p} (rows: source, cols: target)")
        header = "        " + " ".join(f"{family_label('X', *t):>6}" for t in irreps)
        print(header)
        for src in irreps:
            row = [f"{family_label('X', *src):>7}"]
            for dst in irreps:
                row.append(f"{ext_dim(p, src, dst, n):>6}")
            print(" ".join(row))


if __name__ == "__main__":
    main()
