"""The benchmark's tracer finds every function it wraps.

``perfbench/traced.py`` wraps each ``(module, name)`` pair of its
``BINDINGS`` list with ``getattr``, so renaming or dropping one of those
names breaks traced benchmark runs long before anything else notices.
"""

import importlib.util
import inspect
import pathlib

TRACED = pathlib.Path(__file__).parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    traced = load_traced()
    assert traced.BINDINGS
    for module, attr, _ in traced.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_csv_writers_take_the_trace_first():
    traced = load_traced()
    for module, attr, _ in traced.BINDINGS:
        if attr in ("_trace_csv", "_full_circle_csv"):
            assert list(inspect.signature(getattr(module, attr)).parameters) == ["trace"]



def test_parse_result_counts_rows_and_feeds_the_check(tmp_path):
    # the tracer counts cli.parse rows and lattice.check points with len();
    # a bare (xs, ys) pair would read as 2 rows whatever the file held
    traced = load_traced()
    cli = traced.cli
    describe = {attr: d for module, attr, d in traced.BINDINGS if module is cli}
    path = tmp_path / "square.csv"
    path.write_text("n,x,y\n\n0,0,0\n1,1,0\n2,1,1\n\n3,0,1\n")
    points = cli._read_points_csv(str(path))
    assert describe["_read_points_csv"]((str(path),), points) == ("cli.parse", {"rows": 4})
    report = cli.check_path(points, "closed")
    assert (report.is_closed_valid, report.violations) == (True, ())
    assert describe["check_path"]((points, "closed"), report) == (
        "lattice.check", {"points": 4, "violations": 0})


def test_signum_sequence_and_means_count_every_sample():
    # the tracer counts estimators.sequence and estimators.mean samples with
    # len(seq.l1_values), so the signum view must keep the 2r count that
    # perfbench/test_smoke.py needs above 0
    traced = load_traced()
    estimators = traced.estimators
    for r in (1, 2, 150_000):
        seq = estimators.pi_sequence(r, "signum")
        assert traced._sequence((r, "signum"), seq) == (
            "estimators.sequence", {"samples": 2 * r})
        for mean in (estimators.arithmetic_mean_pi, estimators.harmonic_mean_pi):
            assert traced._mean((seq,), mean(seq)) == ("estimators.mean", {"samples": 2 * r})
