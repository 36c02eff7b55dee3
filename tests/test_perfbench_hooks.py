"""The benchmark's hooks still find what they wrap in the package.

``perfbench/workloads.install_hooks`` replaces package attributes by name,
and a name it cannot find goes on the tracer's ``missing`` list instead of
failing the run.  So this pins that list: a deletion in the package that
unhooks one more benchmark counter fails here, not silently."""

from pathlib import Path

from paritytree import game_core, progress_measure, universal_tree

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_only_the_known_hooks_are_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    originals = (game_core.validate_game, progress_measure.lift_value, universal_tree.embed)
    tracer = tracing.Tracer()
    workloads.install_hooks(tracer)
    try:
        assert tracer.missing == [
            "paritytree.zielonka.pre",
            "lift_slots.min_geq",
            "paritytree.progress_measure.min_leaf_geq",
        ]
        assert progress_measure.lift_value is not originals[1]
    finally:
        tracer.restore()
    assert (game_core.validate_game, progress_measure.lift_value,
            universal_tree.embed) == originals
