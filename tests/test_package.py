import dataclasses
import importlib
import pkgutil

import pytest

import ardlkit

# The inputs that check their fields on construction.  They stay frozen
# dataclasses because dataclasses.replace re-runs that check, where
# NamedTuple._replace would skip it.
VALIDATED_INPUTS = {"ArdlSpec", "Dgp", "ModelSpec", "PipelineConfig", "TimeSeriesFrame"}


def _public_classes() -> list[type]:
    """Every public class defined in an ardlkit module, exceptions aside."""
    classes = []
    for info in pkgutil.iter_modules(ardlkit.__path__):
        module = importlib.import_module(f"ardlkit.{info.name}")
        classes += [obj for name, obj in vars(module).items()
                    if isinstance(obj, type) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not issubclass(obj, Exception)]
    return classes


PUBLIC_CLASSES = _public_classes()
RECORDS = [cls for cls in PUBLIC_CLASSES if cls.__name__ not in VALIDATED_INPUTS]


def test_every_public_name_resolves():
    missing = [name for name in ardlkit.__all__ if not hasattr(ardlkit, name)]
    assert missing == []
    assert len(set(ardlkit.__all__)) == len(ardlkit.__all__)


def test_only_the_validated_inputs_are_dataclasses():
    dataclass_names = {cls.__name__ for cls in PUBLIC_CLASSES if dataclasses.is_dataclass(cls)}
    assert dataclass_names == VALIDATED_INPUTS
    assert all(cls.__dataclass_params__.frozen
               for cls in PUBLIC_CLASSES if cls.__name__ in VALIDATED_INPUTS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_every_other_public_record_is_a_named_tuple(record):
    assert issubclass(record, tuple) and isinstance(record._fields, tuple)
    # a field named like a tuple method would hide that method
    assert not {"count", "index"} & set(record._fields)


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(record):
    instance = record(*range(len(record._fields)))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(instance, field, None)
