"""Golden digests of `pmurel pipeline --seed 42` on the default config, of
`pmurel simulate --seed 42` on long missions, and of `pmurel fuzzy` on three
edge configs.

Every file these runs write must keep these sha256 digests, so a change that
means to keep the outputs byte-identical is checked here.  The default config
draws its Monte Carlo uniforms in narrow rounds and the long missions in wide
ones, so each kind of substream has pinned outputs.  The Monte Carlo times
go through the package's own log, not libm's, so those outputs hold on any
IEEE-754 platform; CI checks the long missions off glibc.  ``markov.csv``
is not pinned, since its last bits come from BLAS matrix products, which may
differ between CPUs; the pipeline's must equal that of ``pmurel markov``.
The fuzzy bands use IEEE ``+ - * /`` alone, so CI checks their bytes off
glibc too.
"""

import hashlib
import json

import pytest

from pmurel.cli import main

GOLDEN = {
    "availability.csv": "2bfa2decabc27bb18059547ae431b523491feda4b79adba8b712da7572522020",
    "crisp.csv": "b4239a8d4e57cdfc69a92d5aa1ef1e6f1307e9309e43bd7b34b78b81a0cd06c0",
    "curve.csv": "1dc0644c46b6d9a42d4c13005d501c0a987f32d9a496c0464cf9046b0b48e82d",
    "exposure.csv": "9b35c77c0728825b952de37ac43eea3069bb67ea0a266f9c201a8747234ba82c",
    "failure_rate.csv": "8e9b2f0cc5323d33623fd4fe3c72c0879bf8d6c789a30b494ac936ba7a8f7876",
    "fit.csv": "887bd8df60f2c450aabf84855cebd53cb9041fa0cba2aca169cbe9baad77c21f",
    "repair_rate.csv": "209bdc103dfa9d4bb7e7a9d6dff8d3a3292c435bb0a7dd8b294363fea8895384",
    "report.txt": "b5de651544de1e55378f82753aaa390b3c711826226ad4a68649d7ac45907103",
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
    "schema": "pmu-reliability/3",
    "simulation": {"mission_time": 2000.0, "n_replications": 20, "n_intervals": 8},
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


EVENTS_PER_YEAR = {"failure_rate_center": 0.6566, "repair_rate_center": 22.2898,
                   "repair_rate_unit": "events_per_year"}

# fuzzy section -> digest of each file `pmurel fuzzy` writes
EDGE_BANDS = {
    # lambda/mu below 1e-15: both availability corners round to within an ulp
    # of 1, in either order
    "ratio": (
        {"failure_rate_center": 1.11e-9, "repair_rate_center": 8.5e6, "repair_rate_unit": "events_per_year"},
        {
            "availability.csv": "19de4187fbfa565ffa653c18e39685511903c50975cb88219264f93535e198b7",
            "crisp.csv": "c8aea0b1be70d90c2025852738e6ba73206c04bceb4eef348b5e4174404616a9",
            "failure_rate.csv": "2abd23b13c029b2b599c461fa0e8d6b1195398d294fe7d391f5bfc3fecdf27b8",
            "repair_rate.csv": "01196b79010eecbc8d5966e189a3697ff10114f60ab8fa4bc1ba75f9be3c7193",
            "unavailability.csv": "60e8fa697f1f9de93b7dd5af059889b5761239cdae1fe2b98b3aa056c59d25e2",
        },
    ),
    # a mean repair time in hours, a 90% half-width and 37 levels
    "hours": (
        {**EVENTS_PER_YEAR, "repair_rate_center": 9.5, "repair_rate_unit": "hours_per_repair",
         "halfwidth_fraction": 0.9, "alpha_levels": 37},
        {
            "availability.csv": "382c9a862fd2fdfa94ad72f2aa4ec6827e138ab5c69261fe42b8363809f5cd66",
            "crisp.csv": "c72a39ce9a55ca38867eaed473b5e64d873d0d28301315fc966113269a9c6849",
            "failure_rate.csv": "eea145d0915702a26ec8dcef5abb32503bbc21407adb81b38638a95d944b5a11",
            "repair_rate.csv": "5b4f230938d2647020a35279d2da7e16f1cd5cc360046c400c43968f48df9f3e",
            "unavailability.csv": "51e1de0d38df49fd2145bb68ce822bb404c02ff484efb585ab98a254f1b84f33",
        },
    ),
    # the core alone
    "core": (
        {**EVENTS_PER_YEAR, "alpha_levels": 1},
        {
            "availability.csv": "44ab8c5fb19736965211052b34f3fabc0d1486c385d765782a927c96f9036a8a",
            "crisp.csv": "b4239a8d4e57cdfc69a92d5aa1ef1e6f1307e9309e43bd7b34b78b81a0cd06c0",
            "failure_rate.csv": "4651f6b41e362b2e197c3b98c1a3df2ad34731dc7093b0ab51f7e976385ba7d5",
            "repair_rate.csv": "e5d0ff67abbc180b40d3f9de985fcff6c2d85b237d993a94be1fbcb953f2bba6",
            "unavailability.csv": "fcc719cc4cf7b6c9a8bd8a1fe712b91210ac5f6307e88c0639b41613a04e5b20",
        },
    ),
}


@pytest.mark.parametrize("name", list(EDGE_BANDS))
def test_fuzzy_edge_bands_match_golden_digests(tmp_path, name):
    section, golden = EDGE_BANDS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": "pmu-reliability/3", "fuzzy": section}))
    out = tmp_path / "out"
    assert main(["fuzzy", "--config", str(config), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == golden
