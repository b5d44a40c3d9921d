"""Write the stored reference outputs that bench/check.py compares against.

    python3 bench/make_reference.py

Runs every checked invocation of every workload once, in process, and
writes ``bench/reference/<check>.json`` (``.json.gz`` for the 20 MB regions
outputs, which keep every ``REGIONS_STRIDE``-th row). The references hold
the outputs of the commit that introduced the benchmark; rewrite them only
for a change whose output difference is intended and stated.
"""

from __future__ import annotations

import gzip
import json
import sys

import check
from run import BenchError, import_cli, invoke, limit_blas_threads

# a prime, so the sampled rows fall on different thetas of each image curve
REGIONS_STRIDE = 127


def main() -> int:
    limit_blas_threads()
    try:
        cli = import_cli()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spec = check.load_spec()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in spec["workloads"].values():
        for inv in workload["invocations"]:
            name = inv["check"]
            if check.kind_of(name) == "tvd":
                continue  # seeded data: checked by invariants, not by a reference
            code, out, _ = invoke(cli.main, inv["argv"])
            regions = check.kind_of(name) == "regions"
            ref = check.make_reference(name, code, out, REGIONS_STRIDE if regions else 1)
            path = check.REFERENCE_DIR / (f"{name}.json.gz" if regions else f"{name}.json")
            if regions:
                with gzip.GzipFile(path, "wb", mtime=0) as fh:
                    fh.write(json.dumps(ref, indent=0).encode())
            else:
                path.write_text(json.dumps(ref, indent=1) + "\n")
            print(f"{path.relative_to(check.BENCH_DIR.parent)}: exit {code}, "
                  f"{len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
