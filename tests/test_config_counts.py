"""load_dataset checks the counts gen recorded in config.txt against the files."""

import pytest

from kglogic import load_dataset
from kglogic.cli import main


@pytest.fixture(scope="module")
def udata(tmp_path_factory):
    out = tmp_path_factory.mktemp("counts") / "u60"
    assert main(
        ["gen", "--relation", "U", "--instances", "60", "--seed", "3", "--decoys",
         "--out", str(out)]
    ) == 0
    return out


def _config(data) -> dict:
    lines = (data / "config.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def _run_with(tmp_path, capsys, udata, key, value):
    data = tmp_path / "copy"
    data.mkdir()
    for path in udata.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    config = _config(udata)
    config[key] = str(value)
    (data / "config.txt").write_text("".join(f"{k}={v}\n" for k, v in config.items()))
    capsys.readouterr()
    code = main(["run", "--data", str(data), "--labeling", "el"])
    return code, capsys.readouterr().err


def test_generated_counts_match(udata):
    dataset = load_dataset(udata)
    config = dataset.config
    assert config["entities"] == dataset.store.n_entities
    assert config["support_triples"] + config["noise_triples"] == len(
        dataset.store.triples
    )
    assert config["instances"] == len({idx for idx, _, _ in dataset.ground}) == 60


@pytest.mark.parametrize("key", ["entities", "support_triples", "instances"])
def test_count_mismatch_is_one_line_data_error(tmp_path, capsys, udata, key):
    dataset = load_dataset(udata)
    config = dataset.config
    n_triples = len(dataset.store.triples)
    value, what, recorded, actual = {
        "entities": (5, "entities", 5, dataset.store.n_entities),
        "support_triples": (
            config["support_triples"] + 1, "support_triples + noise_triples",
            n_triples + 1, n_triples,
        ),
        "instances": (61, "instances", 61, 60),
    }[key]
    code, err = _run_with(tmp_path, capsys, udata, key, value)
    assert code == 2
    assert err == (
        f"kglogic run: error: config.txt: {what} is {recorded}, "
        f"but the dataset has {actual}\n"
    )


def test_dataset_without_counts_still_runs(tmp_path, capsys):
    data = tmp_path / "hand"
    data.mkdir()
    (data / "triples.tsv").write_text("h\tR1\ta\na\tR2\tb\nb\tR3\tt\nh\tR1\tx\n")
    (data / "targets_train.tsv").write_text("")
    (data / "targets_valid.tsv").write_text("")
    (data / "targets_test.tsv").write_text("h\tC\tt\n")
    (data / "ground.tsv").write_text("0\th\thead\n0\tt\ttail\n")
    (data / "config.txt").write_text("relation=C\n")
    capsys.readouterr()
    assert main(["run", "--data", str(data), "--labeling", "query"]) == 0
    out = capsys.readouterr().out
    assert "metric\thit@1\t1.0\n" in out and "metric\tqueries\t1\n" in out


@pytest.mark.parametrize(
    "line, fault",
    [("garbage", "has no '='"), ("seed=4", "repeats key 'seed'")],
)
def test_malformed_config_line_is_one_line_data_error(
    tmp_path, capsys, udata, line, fault
):
    data = tmp_path / "copy"
    data.mkdir()
    for path in udata.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    text = (udata / "config.txt").read_text() + line + "\n"
    (data / "config.txt").write_text(text)
    lineno = text.count("\n")
    capsys.readouterr()
    modes = ("none", "query", "el")
    runs = [["run", "--data", str(data), "--labeling", mode] for mode in modes]
    for argv in [*runs, ["report", "--data", str(data)]]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"kglogic {argv[0]}: error: config.txt line {lineno}: {line!r} {fault}\n"
        )
