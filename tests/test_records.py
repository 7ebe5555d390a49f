"""The nine record classes against the dataclasses they replaced.

core._Record stands in for @dataclass so that importing the package loads
neither dataclasses nor inspect.  The dataclass versions are kept below as
the reference, and every record class (the nine and their subclasses) is
built both ways from the same fields and compared: construction, equality
across sibling classes, hash or unhashability, repr, frozen fields,
defaults and the zero-dropping __post_init__.  A fresh interpreter checks
that importing the CLI leaves dataclasses and inspect unloaded.
"""

import os
import subprocess
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest

from dualeq import engine, qsym, tableaux


class Ref:
    """The records as they were, as dataclasses."""

    @dataclass(frozen=True)
    class DEGround:
        stat_kind: str
        n: int
        labels: tuple
        stats: tuple
        invs: dict
        desc: str = ""

    @dataclass
    class Witness:
        condition: str
        labels: tuple
        detail: str

    @dataclass
    class VerificationReport:
        kind: str
        ground: str
        results: dict
        witnesses: list = field(default_factory=list)
        counts: dict = field(default_factory=dict)
        notes: dict = field(default_factory=dict)

    @dataclass
    class ClassClassification:
        shape: tuple
        mapping: dict

    @dataclass
    class ClassificationFailure:
        reason: str
        detail: object

    @dataclass(frozen=True)
    class QSymVector:
        n: int
        coeffs: dict

        def __post_init__(self):
            coeffs = {frozenset(k): v for k, v in self.coeffs.items() if v != 0}
            object.__setattr__(self, "coeffs", coeffs)

    class QSymF(QSymVector):
        letter = "F"

    class QSymG(QSymVector):
        letter = "G"

    @dataclass(frozen=True)
    class SchurExpansion:
        letter = "s"
        n: int
        coeffs: dict

        def __post_init__(self):
            coeffs = {sh: c for sh, c in self.coeffs.items() if c != 0}
            object.__setattr__(self, "coeffs", coeffs)

    class PExpansion(SchurExpansion):
        letter = "P"

    @dataclass(frozen=True)
    class ExpansionFailure:
        witness: frozenset
        residual: int

    class NotSymmetric(ExpansionFailure):
        name = "not-symmetric"

    class NotInSpan(ExpansionFailure):
        name = "not-in-span"

    @dataclass(frozen=True)
    class Tableau:
        kind: str
        rows: tuple


for _cls in vars(Ref).values():
    if isinstance(_cls, type):
        _cls.__qualname__ = _cls.__name__  # so both reprs name the class alike

HOME = {"engine": engine, "qsym": qsym, "tableaux": tableaux}

# class name -> (module, sample fields); siblings share their sample
SAMPLES = {
    "DEGround": ("engine", ("des", 3, ("12", "21"), (frozenset(), frozenset({1})),
                            {2: (0, 1)})),
    "Witness": ("engine", ("ii", ("21",), "index 2: descent not transported")),
    "VerificationReport": ("engine", ("weak", "perm 3 d", {"i": True, "ii": False})),
    "ClassClassification": ("engine", ((2, 1), {"1": "1"})),
    "ClassificationFailure": ("engine", ("no-isomorphism", {"shape": (2, 1)})),
    "QSymVector": ("qsym", (3, {frozenset({1}): 2, frozenset({2}): 0, frozenset(): -1})),
    "QSymF": ("qsym", None),
    "QSymG": ("qsym", None),
    "SchurExpansion": ("qsym", (3, {(2, 1): 2, (3,): 0, (1, 1, 1): 1})),
    "PExpansion": ("qsym", None),
    "ExpansionFailure": ("qsym", (frozenset({1, 3}), -2)),
    "NotSymmetric": ("qsym", None),
    "NotInSpan": ("qsym", None),
    "Tableau": ("tableaux", ("shifted", ((1, 2, -4), (3,)))),
}
SIBLINGS = [
    ("QSymVector", "QSymF", "QSymG"),
    ("SchurExpansion", "PExpansion"),
    ("ExpansionFailure", "NotSymmetric", "NotInSpan"),
]
FAMILY = {name: family for family in SIBLINGS for name in family}
FAMILIES = SIBLINGS + [(name,) for name in SAMPLES if name not in FAMILY]


def sample(name):
    return SAMPLES[name][1] or SAMPLES[FAMILY[name][0]][1]


def classes(name):
    """The record class of that name and its dataclass reference."""
    return getattr(HOME[SAMPLES[name][0]], name), getattr(Ref, name)


def outcome(fn):
    """What a call gives: its value, or the type of what it raises."""
    try:
        return "value", fn()
    except Exception as exc:  # compared across the two versions
        return "raises", type(exc)


def both(name, *args, **kwargs):
    new, ref = classes(name)
    return new(*args, **kwargs), ref(*args, **kwargs)


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_and_construction(name):
    new, ref = classes(name)
    assert new._fields == tuple(f.name for f in fields(ref))
    values = sample(name)
    a, b = both(name, *values)
    assert repr(a) == repr(b)
    by_keyword = new(**dict(zip(new._fields, values)))
    assert by_keyword == a and repr(by_keyword) == repr(b)
    mixed = new(values[0], **dict(zip(new._fields[1:], values[1:])))
    assert mixed == a
    for args, kwargs in [
        (values + (None, None, None, None), {}),  # too many fields
        (values[:1], {}),  # a field missing
        (values, {"nonsense": 1}),
        (values, {new._fields[0]: values[0]}),  # a field given twice
    ]:
        assert outcome(lambda: new(*args, **kwargs)) == ("raises", TypeError)
        assert outcome(lambda: ref(*args, **kwargs)) == ("raises", TypeError)


@pytest.mark.parametrize("name", SAMPLES)
def test_hash_or_unhashable(name):
    a, b = both(name, *sample(name))
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(b))


def attribute_error(fn):
    try:
        fn()
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("name", SAMPLES)
def test_frozen_fields(name):
    a, b = both(name, *sample(name))
    frozen = type(b).__dataclass_params__.frozen
    for f in a._fields:
        value = getattr(b, f)
        assert attribute_error(lambda: setattr(a, f, value)) is frozen
        assert attribute_error(lambda: setattr(b, f, value)) is frozen
        assert attribute_error(lambda: delattr(a, f)) is frozen
        assert attribute_error(lambda: delattr(b, f)) is frozen
    assert outcome(lambda: repr(a)) == outcome(lambda: repr(b))


@pytest.mark.parametrize("family", FAMILIES, ids="/".join)
def test_equality_within_and_across_siblings(family):
    values = sample(family[0])
    first = values[0]
    changed = (first + "x" if isinstance(first, str) else (9,),) + values[1:]
    for x in family:
        for y in family:
            for args in (values, changed):
                a1, b1 = both(x, *values)
                a2, b2 = both(y, *args)
                assert (a1 == a2, a1 != a2) == (b1 == b2, b1 != b2), (x, y, args)
        assert (both(x, *values)[0] == object()) is False
    assert qsym.QSymF(2, {}) != qsym.QSymG(2, {})
    assert qsym.PExpansion(3, {(2, 1): 1}) != qsym.SchurExpansion(3, {(2, 1): 1})
    assert qsym.NotInSpan(frozenset(), 1) != qsym.ExpansionFailure(frozenset(), 1)


def test_defaults():
    a, b = both("DEGround", *sample("DEGround"))
    assert a.desc == b.desc == ""
    assert both("DEGround", *sample("DEGround"), desc="x")[0].desc == "x"
    r1, ref1 = both("VerificationReport", *sample("VerificationReport"))
    r2, ref2 = both("VerificationReport", *sample("VerificationReport"))
    for f in ("witnesses", "counts", "notes"):
        assert getattr(r1, f) == getattr(ref1, f)
        assert getattr(r1, f) is not getattr(r2, f)
    r1.witnesses.append(engine.Witness("i", ("1",), "x"))
    assert r2.witnesses == [] and repr(r2) == repr(ref2)
    given = []
    assert engine.VerificationReport("weak", "g", {}, witnesses=given).witnesses is given


def test_post_init_drops_zeros():
    for name in ("QSymVector", "QSymF", "QSymG", "SchurExpansion", "PExpansion"):
        a, b = both(name, *sample(name))
        assert a.coeffs == b.coeffs and 0 not in a.coeffs.values()
        k, v = both(name, n=sample(name)[0], coeffs=sample(name)[1])
        assert k.coeffs == v.coeffs
    (key,) = qsym.QSymF(2, {(1,): 1}).coeffs  # keys become frozensets
    assert key == frozenset({1}) and isinstance(key, frozenset)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: compare with the modules loaded before the
    # import, since site may load either on some machines
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys; before = set(sys.modules); import dualeq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
