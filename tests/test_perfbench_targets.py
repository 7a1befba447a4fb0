"""The benchmark's trace targets: perfbench/spans.py times each mechanism
by patching names in the lpcsm modules that call them, and skips a name
that is gone. A src change must not drop one more name from that list
unseen."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The targets that were already missing when this guard was added: the
# slow write stopped calling `ont_transport`, and decode reaches the block
# through lpcsm.model rather than through these lpcsm.runtime names.
KNOWN_MISSING = {"lpcsm.memory.ont_transport"} | {
    f"lpcsm.runtime.{name}" for name in (
        "embed", "_attend_step", "fast_update", "memory_read", "slow_write",
        "predict_init", "refine_step", "event_scores", "hard_mask",
        "mhc_route")}


def test_no_new_missing_trace_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # The dataclasses in spans.py look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    with spans.Tracer().installed() as missing:
        pass
    assert set(missing) <= KNOWN_MISSING
