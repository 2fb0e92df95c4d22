"""Golden trace hashes: byte-identical behaviour across processes and commits.

Each case runs a full-budget search at a fixed seed and pins the sha256 of
``trace_csv + trace_jsonl`` and of the final weight matrix's bytes; the
heavy-migration case also pins the archive. A change that moves any sampled
token, score, loss, weight or archive entry by one ulp changes a hash.
Re-pin only in the change that causes the drift, with the reason recorded in
CHANGES.md.
"""

import hashlib
import json

import pytest

from migrate.harness import default_config, run_any, trace_csv, trace_jsonl

# name -> (task, method, seed, overrides, trace sha256, weights sha256)
CASES = {
    "words-migrate-mu2": (
        "words", "migrate", 3, dict(mu=2, budget=600),
        "73260daf2c978eb61ebbcf419a60834fc64627bd88912dd761bbef1cbb76512f",
        "ad966fe9db3c17f510237e6ea7439a4101ddca9c900d30093e6732092648fc9a"),
    "words-ns": (
        "words", "ns", 4, dict(budget=300),
        "64d9c8c54389c6168675c695a63ea63ba282835033c809971c77dac8b64875ac",
        "c729aac31d4925b958c00fe972c36c1e95eb3951508b47567e5ee039c0ac2bb8"),
    "grids-migrate-islands": (
        "grids", "migrate", 5, dict(islands=True, budget=960),
        "498eebf1cfab59466efedc7d0b2f878823ba84811981eef2b8b72ba5e74d30b0",
        "9e63a16b5fad24bfd561131c00c0ef4924e83a4a2b954848f93bc6690ab8d9ac"),
    "grids-migrate-opro": (
        "grids", "migrate-opro", 6, dict(budget=480),
        "4bd7b45129a7052120e06d58b3dcc535024f3fe46551b3e142c100e52a1e8d95",
        "ae8fe947b9748cdfd33226705646a32d7ed7400daa2025e8698e2ac1670bd148"),
    "grids-grpo-greedy-t07": (
        "grids", "grpo-greedy", 7, dict(temperature=0.7, budget=480),
        "52b514386532a62af9fd339f9e03e2b1e8a5fdeee8b2a0066d0eabfae8aad1b5",
        "d6bf9606142060733479ac1fd5fe8390f5a0091916b60532ad7e3c139c92248b"),
    "molecules-grpo": (
        "molecules", "grpo", 8, dict(budget=300),
        "91f17bee67acb1a230f91fef054800ef40a1c8e1cd9a80571206f5ebf82210a6",
        "20010b5e5f1927b6bf2242ce6d5fcb49becc831c9f63479ec712e01f6c2b97b4"),
    "molecules-opro": (
        "molecules", "opro", 9, dict(budget=400),
        "b0b7c9de702ccb580e6d3fbe39edef70b8c3103346d311dc6998a8f692562d93",
        "8ec80619c4e78fbddcae154346e04167073fc64373bcad92fcf26288dab0e756"),
    "molecules-migrate-adam": (
        "molecules", "migrate", 10, dict(optimizer="adam", budget=300),
        "3b76c537d0407ab2aed1a158f0c7444fb516118cdad3b9ccb54fb6f70b9fb66a",
        "5365212dc67e876c7d03599e2c1f4c6ff4773a8a2276b2f863b4f58fe510686e"),
    # Adam with mu > 1: every step of an update reuses the same frozen group.
    "grids-grpo-adam-mu3": (
        "grids", "grpo", 12, dict(optimizer="adam", mu=3, budget=480),
        "f9dab17430e78937ccd15a01a37c4343f69258d00d8f866ae873f905ef8f0c16",
        "950341d6013b703b6b9f4d1676503b06d13be3d85ec850892d9c8d7ee89ac6d0"),
}


# Migration every third iteration over three islands, half of each island's
# members joining the next: the elites come to belong to several islands.
# (task, method, seed, overrides, trace sha256, weights sha256, archive sha256)
HEAVY_MIGRATION = (
    "grids", "migrate", 11,
    dict(islands=True, island_count=3, migration_interval=3, migration_fraction=0.5,
         budget=300),
    "1a5ac58a8a13ae1b5835ec26b2622e5d7f4682a6045a79ef7ba7915cca243aa3",
    "231ac7fed3d141b1155acd95626748ae4cc2b359005b384d3abdee4ef883d7e1",
    "6725edfcf0a272dbfa877ef20d1294692a2c4a72c9ff799996f6683fdd17816b")


def digests(task, method, seed, overrides):
    """sha256 of trace_csv + trace_jsonl, of the final W bytes and of every
    archive entry's (text, score, provenance, born_iteration, islands)."""
    config = default_config(task, method, seed=seed, stop_threshold=None, **overrides)
    trace = run_any(config)
    assert trace.summary.status == "ok", trace.summary.error
    text = trace_csv(trace) + trace_jsonl(trace)
    archive = trace.archive
    rows = [(c.text, c.score, c.provenance, c.born_iteration, archive.islands_of(i))
            for i, c in enumerate(archive.entries)]
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(trace.final_params.W.tobytes()).hexdigest(),
            hashlib.sha256(json.dumps(rows).encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    task, method, seed, overrides, trace_sha, weights_sha = CASES[name]
    assert digests(task, method, seed, overrides)[:2] == (trace_sha, weights_sha)


def test_golden_heavy_migration():
    task, method, seed, overrides, *hashes = HEAVY_MIGRATION
    assert digests(task, method, seed, overrides) == tuple(hashes)
