"""Traced stand-in for the ``hermband`` console script.

Usage: python3 clichild.py SPANS.json LEVELS -- CLI-ARGS...

Times the package import, builds the 1-D tile levels listed in LEVELS
(comma-separated, possibly empty) through ``tiles.build_level`` -- the
cache the command itself then reads, so the command does the same work as
untraced -- and times ``hermband.cli.main``.  Spans go to SPANS.json; the
exit code is the command's.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    span_path, levels = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    from hermband import cli, tiles
    spans = [{"name": "hermband.import", "start": _t0, "end": time.perf_counter(), "attrs": {}}]
    nodes = 0
    # the CLI builds TileConfig(dim=1, max_level=...); max_level is not part
    # of the build_level cache key, so this fills the entry the command reads
    cfg = tiles.TileConfig(dim=1)
    for j in (int(v) for v in levels.split(",") if v):
        start = time.perf_counter()
        ts = tiles.build_level(j, cfg)
        spans.append({"name": "tiles.build_level", "start": start, "end": time.perf_counter(),
                      "attrs": {"level": j, "dim": 1}})
        nodes += ts.count
    start = time.perf_counter()
    rc = cli.main(argv)
    spans.append({"name": "cli.main", "start": start, "end": time.perf_counter(), "attrs": {}})
    with open(span_path, "w") as fh:
        json.dump({"spans": spans, "nodes_built": nodes}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
