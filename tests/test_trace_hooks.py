"""The traced benchmark pass replaces each name in `perfbench/spans.py`'s
`CALL_SITES` on its module with `getattr`/`setattr`, so every listed name
must stay importable from the module it is listed under."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_call_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.CALL_SITES) >= 19
    for module_name, attr, layer in spans.CALL_SITES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, layer)
