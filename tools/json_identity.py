#!/usr/bin/env python3
"""Checks that JSON documents are identical once timing fields are dropped.

A key is dropped, at any depth, when it is one of --keys, ends with one of
--suffixes or contains 'time'. Every FILE must then equal the first by name;
otherwise the script exits 1 naming the files that differ.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ('--keys', '--suffixes'):
        parser.add_argument(flag, default='', help='comma-separated')
    parser.add_argument('files', nargs='+')
    args = parser.parse_args()
    keys, suffixes = (tuple(filter(None, a.split(','))) for a in
                      (args.keys, args.suffixes))

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items()
                    if k not in keys and not k.endswith(suffixes)
                    and 'time' not in k}
        if isinstance(o, list):
            return [strip(x) for x in o]
        return o

    runs = {}
    for name in sorted(args.files):
        with open(name) as f:
            runs[name] = json.dumps(strip(json.load(f)), sort_keys=True)
    ref_name, ref = next(iter(runs.items()))
    bad = [name for name, text in runs.items() if text != ref]
    if bad:
        sys.exit(f'output differs from {ref_name}: {bad}')
    print(f'{len(runs)} runs identical modulo timing fields')


if __name__ == '__main__':
    main()
