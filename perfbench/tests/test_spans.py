"""Self time over nested spans, and the wrappers that record them."""

import types

import pytest

import spans


def _span(name, start, end, parent, busy=None):
    return [name, start, end, parent, busy]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_covered_once():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 6.0, 0),
        _span("b", 4.0, 8.0, 0),
    ]
    # the children cover [1, 8): 7 of the root's 10
    assert spans.self_times(recorded)[0] == pytest.approx(3.0)


def test_sliced_children_subtract_their_busy_time():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("scan", 1.0, 9.0, 0, busy=2.5),
        _span("view", 1.0, 9.0, 0, busy=4.0),
        _span("scan.inner", 1.5, 8.5, 2, busy=1.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx([3.5, 2.5, 3.0, 1.0])


def test_layer_totals_add_up_to_the_roots():
    recorded = [
        _span("op", 0.0, 10.0, -1),
        _span("x", 1.0, 4.0, 0),
        _span("y", 5.0, 6.0, 0),
        _span("other", 20.0, 25.0, -1),
    ]
    seconds, calls, roots, total = spans.layer_totals(recorded, "op")
    assert roots == 1 and total == pytest.approx(10.0)
    assert sum(seconds.values()) == pytest.approx(total)
    assert calls == {"op": 1, "x": 1, "y": 1}


def test_wrappers_nest_and_undo():
    module = types.SimpleNamespace()

    def outer():
        return module.inner() + 1

    def inner():
        return 41

    def numbers():
        yield from range(3)

    module.outer, module.inner, module.numbers = outer, inner, numbers
    recorder = spans.Recorder()
    installation = spans.install(
        recorder,
        [
            (module, "outer", "outer", "call"),
            (module, "inner", "inner", "call"),
            (module, "numbers", "numbers", "iter"),
        ],
    )
    assert module.outer() == 42 and recorder.spans == []  # off: nothing recorded
    recorder.on = True
    assert module.outer() == 42
    assert list(module.numbers()) == [0, 1, 2]
    names = [(span[0], span[3]) for span in recorder.spans]
    assert names == [("outer", -1), ("inner", 0), ("numbers", -1)]
    assert recorder.spans[2][4] is not None  # sliced: busy time recorded
    installation.remove()
    assert module.outer is outer and module.numbers is numbers
