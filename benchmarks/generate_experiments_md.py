"""Regenerate EXPERIMENTS.md from the benchmark sweeps, memoized.

Run:  python benchmarks/generate_experiments_md.py
(Each experiment's sweep is the same code the pytest benchmarks use.)

The document is one campaign (:func:`repro.campaign.experiments_md_spec`)
run through the content-addressed result store, so a regeneration after
an edit that did not touch a sweep function is pure cache hits, and an
edit to one sweep recomputes only that experiment's tasks.  The section
titles, blurbs, and chart hooks live in :data:`repro.campaign.SECTIONS`;
rendering is :func:`repro.campaign.render_experiments_md` -- the same
path ``repro campaign report`` uses, so this script holds no table
logic of its own.

``--store DIR`` picks the result store (default
``benchmarks/.campaign``, gitignored); ``--no-cache`` runs everything
fresh in a throwaway store; ``--force`` recomputes into the persistent
store.  EXPERIMENTS.md is the one committed record of E1-E24.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.campaign import (
    CampaignRunner,
    InlineTarget,
    ResultStore,
    experiments_md_spec,
    render_experiments_md,
)

DEFAULT_STORE = Path(__file__).parent / ".campaign"


def main(out_path: str = "EXPERIMENTS.md", *, store_root: str = "",
         force: bool = False) -> None:
    t0 = time.time()
    spec = experiments_md_spec()
    store = ResultStore(store_root or DEFAULT_STORE)
    runner = CampaignRunner(spec, store, InlineTarget())

    def progress(msg: str) -> None:
        print(msg, flush=True)

    result = runner.run(force=force, progress=progress)
    print(result.summary())
    text = render_experiments_md(result.reports, elapsed=time.time() - t0)
    Path(out_path).write_text(text)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_path", nargs="?", default="EXPERIMENTS.md")
    ap.add_argument("--store", default="",
                    help="result store directory (default "
                         "benchmarks/.campaign)")
    ap.add_argument("--no-cache", action="store_true",
                    help="run every sweep fresh in a throwaway store")
    ap.add_argument("--force", action="store_true",
                    help="recompute every task into the persistent store")
    ns = ap.parse_args()
    if ns.no_cache:
        with tempfile.TemporaryDirectory() as tmp:
            main(ns.out_path, store_root=tmp, force=ns.force)
    else:
        main(ns.out_path, store_root=ns.store, force=ns.force)
