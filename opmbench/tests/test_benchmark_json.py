import json
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == \
        [w for w in run.WORKLOADS if w not in run.NOT_IN_BENCHMARK_JSON]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
