"""Write perfbench/golden.json: reference digests of the byte-checked outputs
for every row of the workload input table.

    python3 perfbench/make_golden.py

Run it from the root of a checkout of the commit whose output is the
reference.  For each row it runs the `closed_products` calls and the
closed-form column of `fringe_scan` (`mz --method closed` on the same grid;
the `P_closed` column does not depend on `--method`) and stores
the digests plus the per-pass work counts.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, git_commit

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from spdcsim.cli import main as cli_main

    rows, work = {}, {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        workdir = Path(tmp)
        for row in range(workloads.TABLE_ROWS):
            calls = workloads.plan("closed_products", row, workdir)
            (fringe,) = workloads.plan("fringe_scan", row, workdir)
            argv = list(fringe.argv)
            argv[argv.index("both")] = "closed"
            fringe = workloads.Invocation(fringe.command, tuple(argv), fringe.out)
            for call in [*calls, fringe]:
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli_main(list(call.argv))
                if rc != 0:
                    raise SystemExit(f"row {row}: {call.command} failed")
            digests = workloads.product_digests("closed_products", calls)
            digests.update(workloads.product_digests("fringe_scan", [fringe]))
            rows[str(row)] = digests
            csv = [c for c in calls if c.out.endswith(".csv")]
            work[str(row)] = {
                "fringe_delays": len(workloads.data_section(Path(fringe.out).read_text())) - 1,
                "closed_products_csv_rows": sum(
                    len(workloads.data_section(Path(c.out).read_text())) - 1 for c in csv),
            }
            print(row, work[str(row)], file=sys.stderr)
    golden = {"reference_commit": git_commit(), "rows": rows, "work": work}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
