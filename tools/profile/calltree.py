#!/usr/bin/env python3
"""Call tree with sample shares from a sampler.so dump.

    calltree.py <program> <samples> [--under NAME] [--without NAME]...
                [--share NAME]... [--self] [--min PCT] [--depth N]

Resolves every address with `addr2line -f -i -C` (inlined frames expand to
their own tree levels), then prints the tree root-first with each node's
inclusive share of the samples counted. `--under NAME` counts only samples
with a frame whose function contains NAME and roots the tree there (e.g.
`--under run_benchmark` for the driver loop alone); `--without NAME` drops samples
that have such a frame (e.g. a baseline pass sharing the loop). With
`--share NAME` the tree is replaced by one line per NAME: the share of the
counted samples that have a frame containing NAME, wherever it was called
from (one row of a per-layer table). With `--self` it is replaced by one
line per function: the share of the counted samples whose *leaf* frame it is,
inlined frames counting as functions of their own — where the time is spent,
not under what.
"""
import argparse
import collections
import re
import subprocess


def resolve(program, addrs):
    """{address: [function, ...]} outermost first, inlined frames included."""
    out = subprocess.run(
        ["addr2line", "-e", program, "-a", "-f", "-i", "-C"] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    # After each echoed address come (function, file:line) line pairs,
    # innermost inlined frame first.
    frames, lines = {}, []
    for line in out:
        if line.startswith("0x"):
            lines = frames.setdefault(int(line, 16), [])
        else:
            lines.append(line)
    # Drop the hash suffix rustc appends to every symbol.
    return {a: [re.sub(r"::h[0-9a-f]{16}$", "", f) for f in reversed(l[0::2])] or ["??"]
            for a, l in frames.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("program")
    ap.add_argument("samples")
    ap.add_argument("--under")
    ap.add_argument("--without", action="append", default=[])
    ap.add_argument("--share", action="append", default=[])
    ap.add_argument("--self", action="store_true", dest="exclusive")
    ap.add_argument("--min", type=float, default=1.0, help="hide nodes below this %% (default 1)")
    ap.add_argument("--depth", type=int, default=12)
    args = ap.parse_args()

    stacks = []
    for line in open(args.samples):
        addrs = [int(a, 16) for a in line.split()]
        if addrs:
            # A return address names the instruction after the call: step
            # back into the call so inlined call sites resolve to the caller.
            stacks.append([addrs[0]] + [a - 1 for a in addrs[1:]])
    names = resolve(args.program, sorted({a for s in stacks for a in s}))

    tree = lambda: {"n": 0, "kids": collections.defaultdict(tree)}
    root, counted, shares, leaves = tree(), 0, collections.Counter(), collections.Counter()
    for stack in stacks:
        path = [f for a in reversed(stack) for f in names[a]]
        if any(w in f for w in args.without for f in path):
            continue
        if args.under:
            at = next((i for i, f in enumerate(path) if args.under in f), None)
            if at is None:
                continue
            path = path[at:]
        counted += 1
        shares.update(name for name in args.share if any(name in f for f in path))
        leaves[path[-1]] += 1
        node = root
        for f in path:
            node = node["kids"][f]
            node["n"] += 1

    print(f"{counted} of {len(stacks)} samples counted")
    for name in args.share:
        print(f"{100.0 * shares[name] / max(counted, 1):6.1f}%  {name}")
    if args.exclusive:
        for name, n in leaves.most_common():
            if 100.0 * n / counted >= args.min:
                print(f"{100.0 * n / counted:6.1f}%  {name}")
    if args.share or args.exclusive:
        return

    def show(node, depth):
        for name, kid in sorted(node["kids"].items(), key=lambda kv: -kv[1]["n"]):
            share = 100.0 * kid["n"] / max(counted, 1)
            if share >= args.min and depth < args.depth:
                print(f"{share:6.1f}%  {'  ' * depth}{name}")
                show(kid, depth + 1)

    show(root, 0)


if __name__ == "__main__":
    main()
