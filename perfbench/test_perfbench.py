"""Tests of the benchmark's own arithmetic and inputs (not of qtnn).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import types

import numpy as np
import pytest

import bench_data
from bench_spans import Span, Tracer, self_times, totals_by_name


def test_self_time_subtracts_nested_children():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("middle", 1.0, 7.0, 0, 0),
        Span("inner", 2.0, 5.0, 1, 0),
    ]
    # a grandchild is charged to its parent, not again to the root
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0])


def test_self_time_subtracts_every_sibling():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 4.0, 8.5, 0, 0),
        Span("a", 9.0, 9.5, 0, 0),
        Span("root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.5, 0.5, 1.0])
    totals = totals_by_name(spans)
    assert totals["a"][0] == 2 and totals["a"][1] == pytest.approx(2.5)
    assert totals["root"][0] == 2 and totals["root"][1] == pytest.approx(4.0)


def test_tracer_nests_counts_and_restores():
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x * 2
    owner.outer = lambda x: owner.inner(x) + owner.inner(x)
    originals = dict(vars(owner))
    tracer = Tracer()

    def count(counts, args, kwargs, result):
        counts["inner.items"] += args[0]

    tracer.install(owner, "inner", "inner", count)
    tracer.install(owner, "outer", "outer")
    try:
        assert owner.outer(3) == 12
    finally:
        tracer.remove()
    assert vars(owner) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["inner.items"] == 6
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root.end - root.start)
    assert all(t >= 0.0 for t in own)


def test_synthetic_images_shape_density_and_seed():
    images, labels = bench_data.synthetic_images(np.random.default_rng(7), 3000)
    assert images.shape == (3000, 28, 28) and images.dtype == np.uint8
    assert labels.shape == (3000,) and set(np.unique(labels)) == set(range(10))
    density = np.count_nonzero(images) / images.size
    assert 0.17 < density < 0.21
    again, again_labels = bench_data.synthetic_images(np.random.default_rng(7), 3000)
    assert again.tobytes() == images.tobytes() and again_labels.tobytes() == labels.tobytes()
    other, _ = bench_data.synthetic_images(np.random.default_rng(8), 3000)
    assert other.tobytes() != images.tobytes()


def test_synthetic_classes_are_learnable():
    images, labels = bench_data.synthetic_images(np.random.default_rng(3), 4000)
    x = (images.reshape(len(images), -1) > 0).astype(float)
    means = np.stack([x[:3000][labels[:3000] == c].mean(axis=0) for c in range(10)])
    predicted = np.argmin(((x[3000:, None, :] - means) ** 2).sum(axis=2), axis=1)
    assert (predicted == labels[3000:]).mean() > 0.9


def test_image_set_reads_back_through_load_idx(tmp_path):
    from qtnn.data import load_idx

    paths, density = bench_data.write_image_set(5, 300, 100, tmp_path)
    train = load_idx(*paths["train"])
    test = load_idx(*paths["t10k"])
    assert train.inputs.shape == (300, 784) and test.inputs.shape == (100, 784)
    measured = (np.count_nonzero(train.inputs) + np.count_nonzero(test.inputs)) / (400 * 784)
    assert measured == pytest.approx(density)


def test_shuffled_corpus_is_a_seeded_permutation(tmp_path):
    source = tmp_path / "src.csv"
    source.write_text("text,label\n" + "".join(f"phrase {i},{i % 2}\n" for i in range(20)))
    first = bench_data.write_shuffled_corpus(4, source, tmp_path / "a.csv").read_text()
    again = bench_data.write_shuffled_corpus(4, source, tmp_path / "b.csv").read_text()
    other = bench_data.write_shuffled_corpus(5, source, tmp_path / "c.csv").read_text()
    assert first == again and first != other
    assert sorted(first.splitlines()) == sorted(source.read_text().splitlines())



def test_a_repetition_is_scaled_by_the_loops_before_and_after_it(monkeypatch):
    import bench_reference
    import run
    from bench_workloads import Rep

    loop_seconds = iter([0.04, 0.06])
    monkeypatch.setattr(bench_reference, "seconds", lambda name: next(loop_seconds))

    class Fake:
        reference = setup_reference = "interpreter"

        def setup(self):
            return None

        def body(self, state):
            return Rep(0.5, (1, 0.5), (1, 0.5), "d", {}, {})

    # a budget of 0 s still runs one repetition
    (rep,) = run.run_reps(Fake(), seconds=0.0)
    expected = bench_reference.REFERENCE_S["interpreter"] / 0.05
    assert rep.scale == pytest.approx(expected) and rep.setup_scale == pytest.approx(expected)
