"""Golden digests of `pmurel pipeline --seed 42` on the default config, and
of `pmurel simulate --seed 42` on long missions.

Every file these runs write must keep these sha256 digests, so a change that
means to keep the outputs byte-identical is checked here.  The default config
draws its Monte Carlo uniforms in narrow rounds and the long missions in wide
ones, so each kind of substream has pinned outputs.  The Monte Carlo times
go through the package's own log, not libm's, so those outputs hold on any
IEEE-754 platform; CI checks the long missions off glibc.  ``markov.csv``
is not pinned, since its last bits come from BLAS matrix products, which may
differ between CPUs; the pipeline's must equal that of ``pmurel markov``.
"""

import hashlib
import json

from pmurel.cli import main

GOLDEN = {
    "availability.csv": "2bfa2decabc27bb18059547ae431b523491feda4b79adba8b712da7572522020",
    "crisp.csv": "b4239a8d4e57cdfc69a92d5aa1ef1e6f1307e9309e43bd7b34b78b81a0cd06c0",
    "curve.csv": "f7e4b808dc9aa1dde1f8bb764fcbc94832a6dfdb341c5a613b6abe3aa23b086d",
    "exposure.csv": "9b35c77c0728825b952de37ac43eea3069bb67ea0a266f9c201a8747234ba82c",
    "failure_rate.csv": "8e9b2f0cc5323d33623fd4fe3c72c0879bf8d6c789a30b494ac936ba7a8f7876",
    "fit.csv": "887bd8df60f2c450aabf84855cebd53cb9041fa0cba2aca169cbe9baad77c21f",
    "repair_rate.csv": "209bdc103dfa9d4bb7e7a9d6dff8d3a3292c435bb0a7dd8b294363fea8895384",
    "report.txt": "e6804ba37ef5bace2f5aa8598464a0d9b4bbd0e3b3eb89ad5bd4017fd8a7c0c6",
    "summary.csv": "0de5b08c34b1d44355bf1bd18042677b35f83d2e43d42bab0671475ebe391d9b",
    "unavailability.csv": "5763e4d7b7165c6daa7a9a84d59b564fe948b40c980649a88a2f47e70979faf2",
}


def test_default_pipeline_outputs_match_golden_digests(tmp_path):
    assert main(["pipeline", "--out", str(tmp_path), "--seed", "42"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written.pop("markov.csv") == markov_digest(tmp_path / "markov")
    assert written == GOLDEN


def markov_digest(out):
    assert main(["markov", "--out", str(out)]) == 0
    return hashlib.sha256((out / "markov.csv").read_bytes()).hexdigest()


# 20 missions of 2000 years: about 2700 draws per replication and round
WIDE_ROUNDS = {
    "schema": "pmu-reliability/1",
    "simulation": {"failure_rate": 0.6566, "repair_rate": 22.2898, "mission_time": 2000.0,
                   "n_replications": 20, "n_intervals": 8},
}

GOLDEN_WIDE_ROUNDS = {
    "exposure.csv": "874a23fc72dd57afcd5c3f1544672fbfffc3f2500ec36ebfa2634d3d66fff069",
    "summary.csv": "3d2f8002bd70b999c81b1af25861ea3674b17e8068b6caf578a67a2893256a61",
}


def test_long_mission_simulation_matches_golden_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WIDE_ROUNDS))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "42"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GOLDEN_WIDE_ROUNDS
