"""The record classes against their ``dataclasses`` twins, and the start-up
imports that records keep out of a fresh process.

Every record class of the package is rebuilt here as the dataclass it
replaced (same annotations, defaults, methods and options), and both are
driven through the same constructions: field order, construction by
position and keyword, the ``TypeError`` refusals, defaults, ``==``,
``hash``, frozen assignment and deletion, and the repr text that
witnesses print through.
"""

import dataclasses
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cocycle_lab import _records, dynamics, involution_cocycles, space, suites, values, zcocycles
from cocycle_lab.dynamics import MarkerSequence, Odometer, Tower, TowerDecomposition
from cocycle_lab.involution_cocycles import (
    IdentityCheck,
    InvolutionCocycle,
    TransferReport,
    h_approximate,
    verify_identities,
)
from cocycle_lab.sampling import coboundary_generator, cylinder_function, invariant_family
from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
)
from cocycle_lab.suites import ExperimentConfig, Report
from cocycle_lab.values import (
    INTEGERS,
    RATIONALS,
    GroupValue,
    ModularGroup,
    NeighborhoodChain,
    RationalVectorGroup,
    integers_mod,
)
from cocycle_lab.zcocycles import (
    GHWitness,
    ZCocycle,
    coboundary_solve,
    gh_check,
    skew_orbit,
)

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (values, space, dynamics, zcocycles, involution_cocycles, suites)

# The dataclass options each record had as a dataclass: all frozen.
OPTIONS = {ModularGroup: {"frozen": True, "repr": False},
           RationalVectorGroup: {"frozen": True, "repr": False}}


def _installed(value) -> bool:
    """Whether a class attribute is a method ``record`` installed."""
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename == _records.__file__


def twin(cls):
    """``cls`` rebuilt as the dataclass it was: its own body, less what
    ``record`` installed, under ``@dataclass`` with its old options."""
    skip = {"__dict__", "__weakref__", "_fields"}
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in skip and not _installed(v) and not (k == "__hash__" and v is None)}
    new = type(cls.__name__, cls.__bases__, namespace)
    new.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(**OPTIONS.get(cls, {"frozen": True}))(new)


def _field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _samples():
    """Per record class, the positional arguments of one representative instance."""
    rng = random.Random(4)
    model = Odometer((2, 2, 2))
    f = cylinder_function(rng, model.bases, RATIONALS)
    g, _ = coboundary_generator(rng, model.bases, RATIONALS)
    family = invariant_family(rng, 3, 2, RATIONALS)
    report = h_approximate(family, NeighborhoodChain(Fraction(1, 4)))
    certificate = coboundary_solve(ZCocycle(model, g))
    gh = gh_check(f, horizon=6, model=model)
    orbit = skew_orbit(g, ((0, 0, 0), GroupValue(RATIONALS, 0)), 4, model=model)
    fair = BernoulliMeasure.uniform(model.bases)
    dirac = DiracMeasure(model.bases, (1, 0, 1))

    def oracle(n, x):  # f_1 reads its own digit: a square-identity witness
        return GroupValue(RATIONALS, -2 if x[0] else 1)

    check = verify_identities(oracle, count=1, bases=(2, 2))
    assert not check.ok and gh.witness is not None
    from_fields = [certificate, gh, gh.witness, orbit, report, check, family]
    samples = {type(r): _field_values(r) for r in from_fields}
    samples.update({
        Odometer: ((2, 2, 2),),
        dynamics.FullGroupElement: (model, CylinderFunction((2,), INTEGERS, (1, 1))),
        Tower: (2, (0, 2)),
        TowerDecomposition: (model, (0, 2), (Tower(2, (0, 2)),)),
        MarkerSequence: (model,),
        InvolutionCocycle: (family,),
        CylinderFunction: ((2, 2), RATIONALS, (Fraction(1, 3), 0, 1, -2)),
        BernoulliMeasure: (model.bases, fair.weights),
        MarkovMeasure: ((2, 2), (Fraction(1, 3), Fraction(2, 3)),
                        (((Fraction(1, 2), Fraction(1, 2)), (1, 0)),)),
        DiracMeasure: (model.bases, (1, 0, 1)),
        MixtureMeasure: ((fair, dirac), (Fraction(1, 2), Fraction(1, 2))),
        ExperimentConfig: ((2, 2, 2), "vec:2", 3, Fraction(1, 8), 5, 2, 1, Fraction(1, 2)),
        Report: ("density", {"seed": 1}, ("n", "tau3"), [{"n": 1, "tau3": 0}], []),
        ModularGroup: (5,),
        RationalVectorGroup: (2,),
        GroupValue: (RATIONALS, Fraction(1, 3)),
        NeighborhoodChain: (Fraction(1, 4),),
        ZCocycle: (model, f),
    })
    return samples


SAMPLES = _samples()
RECORDS = sorted(SAMPLES, key=lambda cls: (cls.__module__, cls.__qualname__))


def test_every_record_class_has_a_sample():
    found = {obj for module in MODULES for obj in vars(module).values()
             if isinstance(obj, type) and _installed(vars(obj).get("__init__"))}
    assert found == set(SAMPLES)
    assert len(found) == 25


def _outcome(call, cls):
    """What a call on a class gives: the repr of its result, or the type it raised."""
    try:
        return repr(call(cls))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome compared
        return type(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_behaves_as_its_dataclass(cls):
    old = twin(cls)
    args = SAMPLES[cls]
    kwargs = dict(zip(cls._fields, args))
    assert cls._fields == tuple(f.name for f in dataclasses.fields(old))
    first, *rest = cls._fields
    built = [cls(*args), cls(**kwargs), cls(args[0], **{k: kwargs[k] for k in rest})]
    reference = old(*args)
    assert old(**kwargs) == reference
    for record in built:
        assert repr(record) == repr(reference)
        assert list(vars(record)) == list(vars(reference))
        assert record == built[0] and not record != built[0]
        assert record != reference and reference != record  # one class only
        assert _outcome(hash, record) == _outcome(hash, reference)

    refusals = (
        lambda c: c(*args, args[0]),  # one argument too many
        lambda c: c(*args, **{first: args[0]}),  # a field given twice
        lambda c: c(**kwargs, no_such_field=1),
    )
    for call in refusals:
        assert _outcome(call, cls) is _outcome(call, old) is TypeError
    # no arguments: a TypeError, except where every field has a default
    assert _outcome(lambda c: c(), cls) == _outcome(lambda c: c(), old)

    record = built[0]
    for name in (*cls._fields, "other"):
        for target, refusal in ((record, _records.FrozenInstanceError),
                                (reference, dataclasses.FrozenInstanceError)):
            with pytest.raises(refusal):
                setattr(target, name, 0)
            with pytest.raises(refusal):
                delattr(target, name)


def test_frozen_refusals_are_attribute_errors_with_the_dataclass_text():
    v = GroupValue(INTEGERS, 3)
    with pytest.raises(_records.FrozenInstanceError, match="cannot assign to field 'payload'"):
        v.payload = 4
    with pytest.raises(_records.FrozenInstanceError, match="cannot delete field 'group'"):
        del v.group
    assert issubclass(_records.FrozenInstanceError, AttributeError)


def test_record_takes_no_options():
    with pytest.raises(TypeError):
        _records.record(frozen=False)


def test_the_printed_reprs_are_unchanged():
    # the text that witnesses and reports print through str()
    model = Odometer((2, 2))
    assert repr(Odometer((2, 2, 2))) == "Odometer(bases=(2, 2, 2))"
    assert repr(integers_mod(5)) == "mod:5" and repr(RationalVectorGroup(2)) == "vec:2"
    assert repr(GroupValue(RATIONALS, Fraction(1, 3))) == "Fraction(1, 3)@rat"
    witness = GHWitness((0, 1), 3, GroupValue(INTEGERS, 6))
    assert repr(witness) == "GHWitness(prefix=(0, 1), radius=3, value=6@int)"
    certificate = coboundary_solve(ZCocycle(model, CylinderFunction((2,), INTEGERS, (1, -1))))
    assert repr(certificate) == (
        "CoboundaryCertificate(model=Odometer(bases=(2, 2)), "
        "generator=CylinderFunction(bases=(2,), group=int, table=(1, -1)), "
        "transfer=CylinderFunction(bases=(2, 2), group=int, table=(0, 1, 0, 1)), spread_bound=1)"
    )
    check = IdentityCheck(False, {"identity": "square", "n": 1, "x": (1, 0),
                                  "value": GroupValue(RATIONALS, Fraction(-1))})
    assert repr(check) == (
        "IdentityCheck(ok=False, witness={'identity': 'square', 'n': 1, 'x': (1, 0), "
        "'value': Fraction(-1, 1)@rat})"
    )
    for record in (witness, certificate, check):
        assert repr(record) == repr(twin(type(record))(*_field_values(record)))


def test_a_config_normalises_its_fields_and_is_a_hashable_value():
    config = ExperimentConfig(bases=[2, 2], eps0="1/8", epsilon_max=2)
    assert (config.bases, config.eps0, config.epsilon_max) == ((2, 2), Fraction(1, 8), Fraction(2))
    assert type(config.bases) is tuple and type(config.epsilon_max) is Fraction
    assert config == ExperimentConfig((2, 2), eps0=Fraction(1, 8), epsilon_max=Fraction(2))
    assert hash(config) == hash(ExperimentConfig((2, 2), eps0=Fraction(1, 8), epsilon_max=2))
    assert ExperimentConfig() == ExperimentConfig()
    assert repr(ExperimentConfig()) == repr(twin(ExperimentConfig)())


def test_a_report_is_built_from_its_lists_and_fills_them():
    rows, checks = [], []
    report = Report("a", {}, ("n",), rows, checks)
    report.add_row(n=1)
    report.check("x", True)
    assert report.rows is rows == [{"n": 1}]
    assert report.checks is checks == [{"name": "x", "passed": True, "witness": ""}]
    with pytest.raises(TypeError, match="missing required argument 'rows'"):
        Report("a", {}, ("n",))


def test_the_max_transfer_is_a_field_inside_eq_and_repr():
    family = invariant_family(random.Random(4), 3, 2, RATIONALS)
    report = h_approximate(family, NeighborhoodChain(Fraction(1, 4)))
    assert report.max_transfer == max(abs(v) for v in report.transfer.table)
    assert type(report.max_transfer) is Fraction
    assert "max_transfer=" in repr(report)
    other = TransferReport(*_field_values(report)[:-1], report.max_transfer + 1)
    assert other != report and repr(other) != repr(report)
    assert TransferReport(*_field_values(report)) == report


def test_post_init_is_looked_up_at_each_construction(monkeypatch):
    # perfbench/spans.py times construction by patching __post_init__ on the class
    calls = []
    original = CylinderFunction.__post_init__

    def counted(self):
        calls.append(self.bases)
        original(self)

    monkeypatch.setattr(CylinderFunction, "__post_init__", counted)
    f = CylinderFunction((2,), INTEGERS, (1, 2))
    assert calls == [(2,)] and f.table == (1, 2)
    with pytest.raises(ValueError):
        CylinderFunction((2,), INTEGERS, (1,))
    assert len(calls) == 2


def test_a_fresh_process_imports_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cocycle_lab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    # -I -S: no site hooks, user paths or environment, so only the package imports
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
    source = Path(_records.__file__).read_text()
    for call in ("exec(", "eval(", "compile("):
        assert call not in source
