"""The streaming writer behind --emit and render_entities."""

import tracemalloc
from importlib import resources

import pytest

from groupoids import (FiniteGroupoid, GroupPresentation, cli,
                       discrete_groupoid, normal_closure, orbit_groupoid,
                       orbit_presentation, parse_text, quotient_groupoid,
                       render_entities, semidirect_product,
                       symmetric_square_presentation)
from groupoids.corpus import (named_actions, named_graph_actions,
                              random_actions, random_orbit_instances,
                              random_quotient_instances)
from groupoids.fileformat import entity_writer
from test_orbit_route import _rotation

DATA = resources.files("groupoids").joinpath("data")


class _Recorder:
    """A text handle that keeps every string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def _cases():
    """Entity lists: the corpus products and orbit groupoids, the quotient
    instances, the presentations and the bundled data."""
    named = [act for _name, act in named_actions()]
    for act in named + random_actions():
        sd = semidirect_product(act)
        yield [sd.groupoid, sd.projection]
    for act in named + random_orbit_instances():
        orb = orbit_groupoid(act)
        yield [orb.groupoid, orb.morphism]
    for k, gens in random_quotient_instances():
        q = quotient_groupoid(k, normal_closure(k, gens))
        yield [q.groupoid, q.morphism]
    for _name, act in named_graph_actions():
        yield [orbit_presentation(act)[0]]
    for entry in sorted(DATA.iterdir(), key=lambda entry: entry.name):
        parsed = parse_text(entry.read_text(encoding="utf-8"),
                            path=entry.name)
        entities = [parsed.entities[n] for n in parsed.order]
        yield entities
        for pres in entities:
            if isinstance(pres, GroupPresentation):
                yield [symmetric_square_presentation(pres)]


def test_the_writer_gives_render_entities_text_to_any_handle(tmp_path):
    path = tmp_path / "out.txt"
    count = 0
    for entities in _cases():
        text = render_entities(entities)
        write = entity_writer(entities)
        recorder = _Recorder()
        write(recorder)
        assert "".join(recorder.writes) == text
        # a writer writes the whole text again when called again
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
        assert path.read_bytes() == text.encode("utf-8")
        count += 1
    assert count == 129


@pytest.mark.parametrize("verb, name, extra", [
    ("semidirect", "tree_swap.act", ()),
    ("semidirect", "zmod4_inversion.act", ()),
    ("orbit", "zmod4_inversion.act", ()),
    ("orbit", "circle_reflection.act", ()),
    ("quotient", "folding_cover.gpd", ("--groupoid", "seg",
                                       "--arrows", "x>y")),
    ("normal-closure", "folding_cover.gpd", ("--groupoid", "seg",
                                             "--arrows", "x>y")),
    ("symmetric-square", "s3.pres", ()),
], ids=lambda part: part if isinstance(part, str) else None)
def test_emit_to_stdout_and_to_a_file_give_the_same_bytes(
        tmp_path, capsysbinary, verb, name, extra):
    source = str(DATA.joinpath(name))
    target = tmp_path / "out.txt"
    assert cli.main([verb, source, *extra, "--emit", "-"]) == 0
    to_stdout = capsysbinary.readouterr().out
    assert cli.main([verb, source, *extra, "--emit", str(target)]) == 0
    report = capsysbinary.readouterr().out
    assert to_stdout and to_stdout == target.read_bytes()
    # the report goes to stdout only when the text goes to a file
    assert report and not to_stdout.startswith(report)


def test_emitting_the_z12_product_to_a_file_holds_little(tmp_path):
    sd = semidirect_product(_rotation(12))
    path = tmp_path / "z12.gpd"
    tracemalloc.start()
    try:
        write = entity_writer([sd.groupoid, sd.projection])
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # 10 MB of text; holding it once, as a joined string, fails the bound
    assert size > 10e6
    assert peak < size / 4


def _misnamed_identity():
    """The trivial group with its identity named e, not id_pt."""
    return FiniteGroupoid(("pt",), ("e",), {"e": "pt"}, {"e": "pt"},
                          {"pt": "e"}, {"e": "e"}, {("e", "e"): "e"},
                          name="last")


@pytest.mark.parametrize("last, message", [
    (lambda sd: discrete_groupoid(("a b",), name="last"),
     "object 'a b' cannot be written"),
    (lambda sd: _misnamed_identity(), "arrow 'e' cannot be written"),
    (lambda sd: discrete_groupoid(("x",), name=sd.groupoid.name),
     "two entities would be emitted as"),
], ids=["whitespace", "identity", "collision"])
def test_an_unwritable_last_block_fails_before_any_byte(last, message):
    sd = semidirect_product(_rotation(6))
    recorder = _Recorder()
    with pytest.raises(ValueError, match=message):
        entity_writer([sd.groupoid, sd.projection, last(sd)])(recorder)
    assert recorder.writes == []
