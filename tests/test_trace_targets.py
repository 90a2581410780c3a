"""The benchmark's span tracer must find every layer it wraps.

``perfbench/spans.py`` names each layer as (module, function) or
(module, Class.method) and looks a method up in the class's own
``__dict__``, so moving a method to a base class breaks ``--trace 1``
without failing any computation.  spans.py imports only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("_trace_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_target_resolves(layer):
    modname, attr = LAYERS[layer]
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), (
            f"{attr} is not in the class's own __dict__")
    else:
        assert callable(getattr(module, attr))
