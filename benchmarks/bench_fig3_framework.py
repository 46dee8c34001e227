"""Fig. 3 — the framework inventory, fully populated.

Fig. 3 decomposes the field into five component axes: functional
representations, datasets, approaches, evaluation metrics, and system
designs.  This benchmark enumerates the library's registries, instantiates
every component, and prints the complete inventory — verifying that every
axis of the framework is populated and working.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import print_table

from repro.core.registry import (
    approach_registry,
    dataset_registry,
    functional_representations,
    metric_registry,
    system_registry,
)
from repro.parsers.base import LLM, NEURAL, PLM, TRADITIONAL


#: the evaluation metrics of the survey's Section 5 battery
SURVEY_METRICS = frozenset({
    "strict_string_match",
    "exact_string_match",
    "fuzzy_match",
    "component_match",
    "execution_match",
    "test_suite_match",
    "vis_exact_match",
    "vis_component_match",
})
#: metrics this repository adds beyond the survey's battery
REPO_METRICS = frozenset({"lineage_match"})


def _enumerate():
    approaches = {
        name: factory() for name, factory in approach_registry().items()
    }
    systems = {
        name: factory() for name, factory in system_registry().items()
    }
    return {
        "representations": functional_representations(),
        "datasets": dataset_registry(),
        "approaches": approaches,
        "metrics": metric_registry(),
        "systems": systems,
    }


def test_fig3_framework_inventory(benchmark):
    inventory = benchmark.pedantic(_enumerate, rounds=1, iterations=1)

    rows = []
    for axis, members in inventory.items():
        for name in members:
            detail = ""
            if axis == "approaches":
                member = members[name]
                detail = f"stage={member.stage} year={member.year}"
            rows.append((axis, name, detail))
    print_table(
        "Fig. 3 — framework components",
        ["axis", "component", "detail"],
        rows,
    )

    assert len(inventory["representations"]) == 3
    assert len(inventory["datasets"]) == 38
    assert len(inventory["approaches"]) >= 18
    assert set(inventory["metrics"]) == SURVEY_METRICS | REPO_METRICS
    assert len(inventory["systems"]) == 4

    # every approach stage is represented, for both tasks
    stages = {member.stage for member in inventory["approaches"].values()}
    assert {TRADITIONAL, NEURAL, PLM, LLM} <= stages
    vis_stages = {
        member.stage
        for name, member in inventory["approaches"].items()
        if name.startswith("vis_")
    }
    assert {"traditional", "neural", "llm"} <= vis_stages
