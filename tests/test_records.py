"""The package's read-only records: frozen, strict constructors, value semantics.

Every value type except ``Scenario``, ``Segment`` and ``NormConstants`` (which
``dataclasses.replace`` is called on) is a ``Record``; one instance of each is
taken from a small run with a membership event.
"""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import blendnet.cli
from blendnet import apps
from blendnet._record import Record
from blendnet.analysis import (
    blended_bound,
    certify_segment,
    error_report,
    estimate_sup_f,
    fraction_identities,
    kmin_corollary,
    lemma4_check,
    norm_constants,
)
from blendnet.graph import DirectedGraph, Join, Leave, generate_connected
from blendnet.simulator import InitialCondition, initial_box, simulate, transform

SRC = Path(__file__).resolve().parents[1] / "src"


def package_records() -> set[type]:
    found, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("blendnet."):
                found.add(cls)
    return found


@pytest.fixture(scope="module")
def instances():
    g = generate_connected(6, 0.6, seed=4)
    cfg = apps.NetSizeConfig(mu=0.5)
    sc = apps.netsize_scenario(g, cfg, K=6, horizon=30, events=((15, Leave(6)),), initial=initial_box(0.0, 1.0))
    trace = simulate(sc)
    seg = trace.segments[-1]
    cert = certify_segment(seg)
    nc = norm_constants(seg, cert)
    state = trace.state_at(20)
    return [
        Join(7, ((7, 1),)),
        Leave(6),
        g,
        seg.weights,
        seg.report,
        seg.pair,
        seg.decomposition,
        seg.dynamics[0],
        seg.affine,
        seg.blended,
        state,
        transform(state, seg.decomposition),
        sc.initial,
        trace,
        cert,
        lemma4_check(seg.blended.step, cert, [(0, [0.0], [1.0])]),
        blended_bound(cert, 16, trace.blended_at(16), 1.0, norms=nc),
        kmin_corollary(nc, 1e-3, 10.0),
        estimate_sup_f(nc, 1e-3, 1.0, samples=5),
        fraction_identities(trace, seg),
        error_report(trace, nc),
        cfg,
        apps.netsize_estimate(trace),
        apps.PageRankConfig(n_agents=6),
        apps.DegSeqConfig(theta=0.5),
        blendnet.cli.LoadedScenario(sc, "netsize", cfg, Path("out")),
    ]


def test_one_instance_per_record_class(instances):
    assert {type(obj) for obj in instances} == package_records()
    assert len(instances) == len(package_records()) == 26


def test_records_refuse_assignment_and_deletion(instances):
    for obj in instances:
        for name in (*type(obj)._fields, "unknown"):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)


def test_records_refuse_missing_extra_and_repeated_arguments(instances):
    for obj in instances:
        cls, fields = type(obj), type(obj)._fields
        values = [getattr(obj, name) for name in fields]
        with pytest.raises(TypeError, match="arguments but"):
            cls(*values, None)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{fields[0]: values[0]})
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(*values, unknown=None)
        required = [name for name in fields if name not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match=f"missing required argument {required[-1]!r}"):
                cls(*values[: fields.index(required[-1])])


def test_golden_reprs_and_scenario_digest():
    assert repr(Join(7, ((7, 1), (1, 7)))) == "Join(node=7, edges=((7, 1), (1, 7)))"
    assert repr(Leave(4)) == "Leave(node=4)"
    assert repr(InitialCondition()) == "InitialCondition(kind='zeros', constant=0.0, low=0.0, high=0.0, values=())"
    assert repr(initial_box(-1.0, 2.5)) == "InitialCondition(kind='box', constant=0.0, low=-1.0, high=2.5, values=())"
    g = generate_connected(8, 0.5, seed=3)
    events = ((10, Leave(4)), (20, Join(9, ((9, 1), (2, 9)))))
    sc = apps.netsize_scenario(g, apps.NetSizeConfig(mu=0.5), 6, 40, initial=initial_box(-1.0, 2.5), events=events, seed=5)
    assert sc.describe().endswith(
        "initial=InitialCondition(kind='box', constant=0.0, low=-1.0, high=2.5, values=())\n"
        "events=10:Leave(node=4);20:Join(node=9, edges=((9, 1), (2, 9)))"
    )
    assert sc.digest == "162e1bdd84b04f4f"  # the value under frozen dataclasses


def test_equal_fields_compare_and_hash_alike():
    pairs = [
        (apps.NetSizeConfig(0.4, 3), apps.NetSizeConfig(mu=0.4, anchor=3)),
        (apps.PageRankConfig(5, 0.3), apps.PageRankConfig(n_agents=5, nu=0.3, m=0.15)),
        (apps.DegSeqConfig(0.5, ((1, 2),)), apps.DegSeqConfig(ids=((1, 2),))),
        (DirectedGraph.build([(1, 2), (2, 3)], undirected=True), DirectedGraph((3, 2, 1), {(2, 1), (1, 2), (3, 2), (2, 3)}, True)),
        (Join(5), Join(node=5, edges=())),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert apps.NetSizeConfig(0.4) != apps.NetSizeConfig(0.5)
    assert DirectedGraph.build([(1, 2)]) != DirectedGraph.build([(2, 1)])


def test_different_record_classes_are_not_equal():
    class First(Record):
        x: int

    class Second(Record):
        x: int

    assert First(1) == First(1) and First(1) != Second(1)
    assert Leave(3) != Join(3)


def test_fields_follow_annotations_defaults_and_inheritance():
    class Base(Record):
        a: int
        b: float = 2.0

    class Child(Base):
        c: str = "c"

        def __post_init__(self):
            object.__setattr__(self, "a", int(self.a))

    child = Child("4", c="z")
    assert Child._fields == ("a", "b", "c")
    assert (child.a, child.b, child.c) == (4, 2.0, "z")
    assert repr(child).endswith("<locals>.Child(a=4, b=2.0, c='z')")  # the qualified name, as a dataclass prints it
    assert child == Child(4, 2.0, "z") and hash(child) == hash(Child(4, c="z"))
    assert child != Child(4) and Base(4) != Child(4)


def test_only_three_dataclasses_after_cli_import():
    code = (
        "import dataclasses, sys\n"
        "import blendnet.cli\n"
        "names = sorted(c.__name__ for m, mod in list(sys.modules.items()) if m.split('.')[0] == 'blendnet'\n"
        "               for c in vars(mod).values() if isinstance(c, type) and c.__module__ == m and dataclasses.is_dataclass(c))\n"
        "print(' '.join(names))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NormConstants", "Scenario", "Segment"]
