#!/usr/bin/env python3
"""Call tree with sample shares from a sampler.so dump.

    calltree.py <program> <samples> [--under NAME] [--without NAME]...
                [--share NAME]... [--self] [--lines NAME [--file F]]
                [--min PCT] [--depth N]

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
not under what. With `--lines NAME` it is replaced by one line per source line:
of the counted samples with a frame containing NAME, the share whose innermost
frame sits on that line — or, with `--file F`, whose innermost frame at or
below NAME in a file whose path contains F does — followed by what runs there
(the inlined or called frames below it, outermost first). That is how a hot statement inside
a function is found, e.g. `--lines fetch_delta --file core/src/read.rs`.
Needs line tables: see README.md for a build that keeps them.
"""
import argparse
import collections
import re
import subprocess


def resolve(program, addrs):
    """{address: [(function, file:line), ...]} outermost first, inlined frames
    included."""
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
    # Drop the hash suffix rustc appends to every symbol, and the
    # discriminator addr2line appends to some lines.
    return {a: list(reversed([(re.sub(r"::h[0-9a-f]{16}$", "", f), re.sub(r" \(discriminator \d+\)$", "", at))
                              for f, at in zip(l[0::2], l[1::2])])) or [("??", "??:0")]
            for a, l in frames.items()}


def short(at):
    """A source location's last three path components: `core/src/read.rs:387`."""
    return "/".join(at.split("/")[-3:])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("program")
    ap.add_argument("samples")
    ap.add_argument("--under")
    ap.add_argument("--without", action="append", default=[])
    ap.add_argument("--share", action="append", default=[])
    ap.add_argument("--self", action="store_true", dest="exclusive")
    ap.add_argument("--lines", metavar="NAME")
    ap.add_argument("--file", metavar="F", help="with --lines: bucket by the innermost frame in this file")
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
    frames = resolve(args.program, sorted({a for s in stacks for a in s}))
    names = {a: [f for f, _ in fs] for a, fs in frames.items()}

    tree = lambda: {"n": 0, "kids": collections.defaultdict(tree)}
    root, counted, shares, leaves = tree(), 0, collections.Counter(), collections.Counter()
    lines, under = collections.Counter(), 0
    for stack in stacks:
        located = [fa for a in reversed(stack) for fa in frames[a]]
        path = [f for f, _ in located]
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
        top = next((i for i, (f, _) in enumerate(located) if args.lines and args.lines in f), None)
        if top is not None:
            under += 1
            # The innermost frame at or below NAME (in F, if given).
            at = next((i for i in reversed(range(top, len(located)))
                       if args.file is None or args.file in located[i][1]), None)
            if at is not None:
                below = " > ".join(f for f, _ in located[at + 1:at + 4])
                lines[(short(located[at][1]), below or "(here)")] += 1
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
    if args.lines:
        print(f"{100.0 * under / max(counted, 1):6.1f}%  under {args.lines}")
        for (at, below), n in lines.most_common():
            if 100.0 * n / counted >= args.min:
                print(f"{100.0 * n / counted:6.1f}%  {at}  {below}")
    if args.share or args.exclusive or args.lines:
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
