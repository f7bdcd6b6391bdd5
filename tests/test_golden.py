"""Golden digests of `pmurel pipeline --seed 42` on the default config.

Every file the pipeline writes must keep these sha256 digests, so a change
that means to keep the outputs byte-identical is checked here.  ``markov.csv``
is not pinned (the pipeline does not write it, and its last bits come from
BLAS matrix products, which may differ between CPUs).
"""

import hashlib

from pmurel.cli import main

GOLDEN = {
    "availability.csv": "2bfa2decabc27bb18059547ae431b523491feda4b79adba8b712da7572522020",
    "crisp.csv": "b4239a8d4e57cdfc69a92d5aa1ef1e6f1307e9309e43bd7b34b78b81a0cd06c0",
    "curve.csv": "f7e4b808dc9aa1dde1f8bb764fcbc94832a6dfdb341c5a613b6abe3aa23b086d",
    "exposure.csv": "4dbb8492fbeeef00a2cb881e112e17fe12cab63e4aef2ff250f33fb61cabcdec",
    "failure_rate.csv": "8e9b2f0cc5323d33623fd4fe3c72c0879bf8d6c789a30b494ac936ba7a8f7876",
    "fit.csv": "9f14166c4db4905d7c16aa65177537edec81c3dcff12c15d96a15a1dcbd4e79c",
    "repair_rate.csv": "209bdc103dfa9d4bb7e7a9d6dff8d3a3292c435bb0a7dd8b294363fea8895384",
    "report.txt": "dabc43801fdfc7464be086958e1b26235f79fb8b3b361f5ccc3ac3e56e6a5815",
    "summary.csv": "0de5b08c34b1d44355bf1bd18042677b35f83d2e43d42bab0671475ebe391d9b",
    "unavailability.csv": "5763e4d7b7165c6daa7a9a84d59b564fe948b40c980649a88a2f47e70979faf2",
}


def test_default_pipeline_outputs_match_golden_digests(tmp_path):
    assert main(["pipeline", "--out", str(tmp_path), "--seed", "42"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == GOLDEN
