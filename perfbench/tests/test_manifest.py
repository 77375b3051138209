import json
import os

import run
import tolerances
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_lists_the_metrics_the_runner_prints():
    m = _manifest()
    assert {e["name"]: e["unit"] for e in m["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in m["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in m["workloads"]] == list(workloads.WORKLOADS)


def test_tolerance_table_covers_every_verify_configuration():
    table = tolerances.load()
    import checks

    for k, lam, suites in workloads.verify_configs():
        entry = table[checks.config_key(k, lam)]
        assert set(suites) <= set(entry)
