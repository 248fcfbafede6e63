#!/usr/bin/env python3
"""Checks that JSON documents agree on their deterministic content.

With --sections, each FILE is reduced to the named top-level sections,
which are compared in full; a file missing one of them fails. Otherwise
a key is dropped, at any depth, when it is one of --keys, ends with one
of --suffixes or contains 'time'. Every FILE must then equal the first
by name; otherwise the script exits 1 naming the files that differ.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ('--sections', '--keys', '--suffixes'):
        parser.add_argument(flag, default='', help='comma-separated')
    parser.add_argument('files', nargs='+')
    args = parser.parse_args()
    sections, keys, suffixes = (tuple(filter(None, a.split(','))) for a in
                                (args.sections, args.keys, args.suffixes))
    if sections and (keys or suffixes):
        parser.error('--sections compares whole sections; '
                     'it takes no --keys or --suffixes')

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items()
                    if k not in keys and not k.endswith(suffixes)
                    and 'time' not in k}
        if isinstance(o, list):
            return [strip(x) for x in o]
        return o

    def select(doc, name):
        missing = [s for s in sections if s not in doc]
        if missing:
            sys.exit(f'{name} has no section {missing}')
        return {s: doc[s] for s in sections}

    runs = {}
    for name in sorted(args.files):
        with open(name) as f:
            doc = json.load(f)
        kept = select(doc, name) if sections else strip(doc)
        runs[name] = json.dumps(kept, sort_keys=True)
    ref_name, ref = next(iter(runs.items()))
    bad = [name for name, text in runs.items() if text != ref]
    if bad:
        sys.exit(f'output differs from {ref_name}: {bad}')
    what = ('in ' + ', '.join(sections) if sections
            else 'modulo timing fields')
    print(f'{len(runs)} runs identical {what}')


if __name__ == '__main__':
    main()
