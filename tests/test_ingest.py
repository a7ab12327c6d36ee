import numpy as np
import pytest

from pnbounds import (
    Conditioning,
    ContingencyTable,
    DataFormatError,
    EmptyArmError,
    IncompatibleSourcesError,
    Source,
    StratifiedTable,
    counterfactual_margin_experimental,
    counterfactual_margin_unconfounded,
    empirical_margin,
    randomized_margins,
)
from pnbounds.ingest import load_strata_json, load_table, load_table_csv, load_table_json
from helpers import lalonde_tables


def obs_table(counts):
    return ContingencyTable(counts=counts, source=Source.OBSERVATIONAL)


def exp_table(counts):
    return ContingencyTable(counts=counts, source=Source.EXPERIMENTAL)


# --- empirical margins -------------------------------------------------------

def test_empirical_margin_lalonde():
    exp, obs = lalonde_tables()
    control = empirical_margin(exp, 0)
    assert control.probs == pytest.approx([92 / 260, 33 / 260, 135 / 260], abs=1e-12)
    treated = empirical_margin(obs, 1)
    assert treated.probs == pytest.approx([90 / 370, 64 / 370, 216 / 370], abs=1e-12)


def test_empirical_margin_single_cell_rows():
    table = exp_table([[0, 1], [1, 0]])
    assert empirical_margin(table, 1).probs == pytest.approx([1.0, 0.0])


def test_empirical_margin_bad_arm_index():
    exp, _ = lalonde_tables()
    with pytest.raises(DataFormatError):
        empirical_margin(exp, 2)


# --- experimental-route identification ---------------------------------------

def test_experimental_route_lalonde_control_law():
    exp, obs = lalonde_tables()
    pair = counterfactual_margin_experimental(exp, obs)
    assert pair.conditioning is Conditioning.GIVEN_TREATED
    assert pair.control_law.probs == pytest.approx(
        [0.3968814968814969, 0.11871101871101872, 0.48440748440748443], abs=1e-12
    )
    assert pair.control_law.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_experimental_route_collapses_when_sources_match():
    # same outcome law in every arm and a 50/50 observational split: the
    # correction term cancels and the control law is the experimental one
    exp = exp_table([[30, 20, 50], [30, 20, 50]])
    obs = obs_table([[30, 20, 50], [30, 20, 50]])
    pair = counterfactual_margin_experimental(exp, obs)
    assert pair.control_law.probs == pytest.approx([0.3, 0.2, 0.5], abs=1e-12)


def test_experimental_route_detects_incompatible_sources():
    # experimental control law puts less mass on level 0 than the
    # observational z=0 stratum alone: negative numerator
    exp = exp_table([[1, 99], [50, 50]])
    obs = obs_table([[80, 20], [10, 90]])
    with pytest.raises(IncompatibleSourcesError):
        counterfactual_margin_experimental(exp, obs)


def test_experimental_route_requires_matching_levels_and_sources():
    exp, obs = lalonde_tables()
    with pytest.raises(DataFormatError):
        counterfactual_margin_experimental(obs, exp)
    with pytest.raises(DataFormatError):
        counterfactual_margin_experimental(exp, obs_table([[1, 1], [1, 1]]))


def test_experimental_route_control_sums_to_one_on_random_valid_inputs():
    rng = np.random.default_rng(9)
    produced = 0
    while produced < 50:
        exp = exp_table(rng.integers(1, 60, size=(2, 3)))
        obs = obs_table(rng.integers(1, 60, size=(2, 3)))
        try:
            pair = counterfactual_margin_experimental(exp, obs)
        except IncompatibleSourcesError:
            continue
        assert pair.control_law.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert pair.control_law.probs.min() >= 0.0
        produced += 1


# --- unconfounded route --------------------------------------------------------

def test_unconfounded_single_stratum_collapses():
    table = obs_table([[30, 20, 50], [10, 15, 25]])
    strata = StratifiedTable(strata=(("only", table),))
    pair = counterfactual_margin_unconfounded(strata)
    assert pair.control_law.probs == pytest.approx(
        empirical_margin(table, 0).probs, abs=1e-12
    )
    assert pair.treated_law.probs == pytest.approx(
        empirical_margin(table, 1).probs, abs=1e-12
    )


def test_unconfounded_two_symmetric_strata():
    a = obs_table([[10, 0], [5, 5]])
    b = obs_table([[0, 10], [5, 5]])
    pair = counterfactual_margin_unconfounded(StratifiedTable(strata=(("a", a), ("b", b))))
    assert pair.control_law.probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_unconfounded_three_strata_against_direct_weighted_sum():
    rng = np.random.default_rng(21)
    tables = [obs_table(rng.integers(1, 40, size=(2, 3))) for _ in range(3)]
    strata = StratifiedTable(strata=tuple((str(i), t) for i, t in enumerate(tables)))
    pair = counterfactual_margin_unconfounded(strata)
    # independent recomputation, spreadsheet style
    treated_totals = np.array([t.counts[1].sum() for t in tables])
    weights = treated_totals / treated_totals.sum()
    expected = sum(
        w * t.counts[0] / t.counts[0].sum() for w, t in zip(weights, tables)
    )
    assert pair.control_law.probs == pytest.approx(expected, abs=1e-12)
    assert pair.control_law.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_unconfounded_rejects_overlap_violation():
    bad = ContingencyTable.__new__(ContingencyTable)  # bypass row-total guard
    object.__setattr__(bad, "counts", np.array([[0.0, 0.0], [3.0, 4.0]]))
    object.__setattr__(bad, "source", Source.OBSERVATIONAL)
    with pytest.raises(EmptyArmError):
        counterfactual_margin_unconfounded(StratifiedTable(strata=(("s", bad),)))


# --- randomized route ----------------------------------------------------------

def test_randomized_margins_lalonde():
    exp, _ = lalonde_tables()
    pair = randomized_margins(exp)
    assert pair.conditioning is Conditioning.UNCONDITIONAL
    assert pair.treated_law.probs == pytest.approx(
        [45 / 185, 32 / 185, 108 / 185], abs=1e-12
    )
    assert pair.control_law.probs == pytest.approx(
        [92 / 260, 33 / 260, 135 / 260], abs=1e-12
    )


def test_randomized_margins_deterministic_and_swapped():
    table = exp_table([[0, 10], [10, 0]])
    pair = randomized_margins(table)
    assert pair.treated_law.probs == pytest.approx([1.0, 0.0])
    assert pair.control_law.probs == pytest.approx([0.0, 1.0])
    swapped = randomized_margins(exp_table(table.counts[::-1].copy()))
    assert swapped.treated_law.probs == pytest.approx(pair.control_law.probs)
    assert swapped.control_law.probs == pytest.approx(pair.treated_law.probs)


def test_randomized_margins_requires_experimental_source():
    _, obs = lalonde_tables()
    with pytest.raises(DataFormatError):
        randomized_margins(obs)


# --- file loading ----------------------------------------------------------------

def test_csv_loader_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("z,y,count\n0,0,5\n0,1,7\n1,0,2\n1,1,6\n")
    table = load_table_csv(path, Source.EXPERIMENTAL)
    assert table.counts.tolist() == [[5.0, 7.0], [2.0, 6.0]]


def test_csv_loader_reports_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z,y,count\n0,0,5\nnope,1,2\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:3"):
        load_table_csv(path, Source.EXPERIMENTAL)


def test_csv_loader_rejects_bad_header_and_duplicates(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b,c\n0,0,5\n")
    with pytest.raises(DataFormatError, match="header"):
        load_table_csv(path, Source.EXPERIMENTAL)
    path.write_text("z,y,count\n0,0,5\n0,0,6\n0,1,1\n1,0,1\n1,1,1\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_table_csv(path, Source.EXPERIMENTAL)


def test_json_loader_and_dispatch(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"counts": [[5, 7], [2, 6]]}')
    table = load_table(path, Source.OBSERVATIONAL)
    assert table.source is Source.OBSERVATIONAL
    assert table.counts.tolist() == [[5.0, 7.0], [2.0, 6.0]]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        load_table_json(bad, Source.OBSERVATIONAL)


def test_strata_loader(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '[{"id": "a", "counts": [[3, 4], [5, 6]]},'
        ' {"id": "b", "counts": [[1, 2], [3, 4]]}]'
    )
    strata = load_strata_json(path)
    assert [name for name, _ in strata.strata] == ["a", "b"]
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": "a"}]')
    with pytest.raises(DataFormatError, match="counts"):
        load_strata_json(bad)


def test_missing_file_is_a_data_error():
    with pytest.raises(DataFormatError):
        load_table("/nonexistent/file.csv", Source.EXPERIMENTAL)


def read_config(path):
    from pnbounds.cli import _build_parser, _merge_config

    return _merge_config(_build_parser().parse_args(["--config", path]))


@pytest.mark.parametrize(
    "reader",
    [
        lambda path: load_table_json(path, Source.EXPERIMENTAL),
        load_strata_json,
        read_config,
    ],
    ids=["table", "strata", "config"],
)
def test_json_readers_name_the_file_alike(tmp_path, reader):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(DataFormatError) as err:
        reader(missing)
    assert str(err.value) == f"{missing}: [Errno 2] No such file or directory: {missing!r}"
    bad = tmp_path / "bad.json"
    bad.write_text('{"counts": [[1, 2],\n [3 4]]}')
    with pytest.raises(DataFormatError) as err:
        reader(str(bad))
    assert str(err.value) == f"{bad}:2: invalid JSON: Expecting ',' delimiter"


def test_contingency_table_validation():
    with pytest.raises(DataFormatError):
        ContingencyTable(counts=[[1, 2]], source=Source.EXPERIMENTAL)
    with pytest.raises(DataFormatError):
        ContingencyTable(counts=[[1, -2], [1, 1]], source=Source.EXPERIMENTAL)
    with pytest.raises(DataFormatError):
        ContingencyTable(counts=[[0, 0], [1, 1]], source=Source.EXPERIMENTAL)
    with pytest.raises(DataFormatError):
        ContingencyTable(counts=[[1.5, 2], [1, 1]], source=Source.EXPERIMENTAL)


# Each bad table, with the refusal it had before the checks became single
# reductions; {path} is the file.
_REFUSED_TABLES = [
    ("nan.csv", "z,y,count\n0,0,nan\n0,1,3\n1,0,4\n1,1,5\n",
     "{path}:2: expected integers 'z,y,count', got ['0', '0', 'nan']"),
    ("negative.csv", "z,y,count\n0,0,-1\n0,1,3\n1,0,4\n1,1,5\n", "{path}:2: negative y or count"),
    ("fraction.csv", "z,y,count\n0,0,1.5\n0,1,3\n1,0,4\n1,1,5\n",
     "{path}:2: expected integers 'z,y,count', got ['0', '0', '1.5']"),
    ("empty_arm.csv", "z,y,count\n0,0,1\n0,1,3\n1,0,0\n1,1,0\n",
     "each treatment arm needs at least one observation"),
    ("one_arm.csv", "z,y,count\n0,0,1\n0,1,3\n0,2,3\n",
     "each treatment arm needs at least one observation"),
    ("one_level.csv", "z,y,count\n0,0,1\n1,0,3\n", "{path}: need at least 2 outcome levels"),
    ("zeros.csv", "z,y,count\n0,0,0\n0,1,0\n1,0,0\n1,1,0\n", "table is empty"),
    ("nan.json", '{"counts": [[NaN, 1, 2], [3, 4, 5]]}',
     "{path}: bad counts layout: counts must be nonnegative integers"),
    ("negative.json", '{"counts": [[-1, 1, 2], [3, 4, 5]]}',
     "{path}: bad counts layout: counts must be nonnegative integers"),
    ("minus_infinity.json", '{"counts": [[-Infinity, 1, 2], [3, 4, 5]]}',
     "{path}: bad counts layout: counts must be nonnegative integers"),
    ("fraction.json", '{"counts": [[1.5, 1, 2], [3, 4, 5]]}',
     "{path}: bad counts layout: counts must be nonnegative integers"),
    ("empty_arm.json", '{"counts": [[0, 0, 0], [3, 4, 5]]}',
     "{path}: bad counts layout: each treatment arm needs at least one observation"),
    ("zeros.json", '{"counts": [[0, 0, 0], [0, 0, 0]]}', "{path}: bad counts layout: table is empty"),
    ("one_row.json", '{"counts": [[1, 2, 3]]}',
     "{path}: bad counts layout: need a 2 x J table with J >= 2, got (1, 3)"),
    ("one_column.json", '{"counts": [[1], [2]]}',
     "{path}: bad counts layout: need a 2 x J table with J >= 2, got (2, 1)"),
    ("text.json", '{"counts": [["a", 2], [3, 4]]}',
     "{path}: bad counts layout: could not convert string to float: 'a'"),
]

# Counts that are not finite integers in [0, 2**53 - 1], refused with the file
# (and the CSV line) named; before, they crashed or passed with wrong counts.
# A JSON count is read as a float: 2**53 + 1 reads as 2**53, which is refused.
_TOO_LARGE = "counts must not exceed 2**53 - 1 = 9007199254740991"
_OUT_OF_RANGE_TABLES = [
    ("digits.csv", "z,y,count\n0,0,1" + "0" * 400 + "\n0,1,3\n1,0,4\n1,1,5\n",
     "{path}:2: count exceeds 2**53 - 1 = 9007199254740991"),
    ("above.csv", f"z,y,count\n0,0,3\n0,1,{2**53}\n1,0,4\n1,1,5\n",
     "{path}:3: count exceeds 2**53 - 1 = 9007199254740991"),
    ("infinity.json", '{"counts": [[Infinity, 1, 2], [3, 4, 5]]}',
     f"{{path}}: bad counts layout: {_TOO_LARGE}"),
    ("e300.json", '{"counts": [[1e300, 1, 2], [3, 4, 5]]}',
     f"{{path}}: bad counts layout: {_TOO_LARGE}"),
    ("above.json", '{"counts": [[9007199254740992, 1, 2], [3, 4, 5]]}',
     f"{{path}}: bad counts layout: {_TOO_LARGE}"),
    ("rounds_down.json", '{"counts": [[9007199254740993, 1, 2], [3, 4, 5]]}',
     f"{{path}}: bad counts layout: {_TOO_LARGE}"),
    ("above_float.json", '{"counts": [[9007199254740992.5, 1, 2], [3, 4, 5]]}',
     f"{{path}}: bad counts layout: {_TOO_LARGE}"),
    ("digits.json", '{"counts": [[1' + "0" * 400 + ', 1, 2], [3, 4, 5]]}',
     "{path}: bad counts layout: int too large to convert to float"),
]


@pytest.mark.parametrize("name,text,message", _REFUSED_TABLES + _OUT_OF_RANGE_TABLES,
                         ids=[case[0] for case in _REFUSED_TABLES + _OUT_OF_RANGE_TABLES])
def test_bad_counts_are_refused_with_their_message(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        load_table(path, Source.EXPERIMENTAL)
    assert type(err.value) is DataFormatError
    assert str(err.value) == message.format(path=path)


def test_counts_below_2_to_the_53_load_exactly(tmp_path):
    top = 2**53 - 1
    csv_path = tmp_path / "top.csv"
    csv_path.write_text(f"z,y,count\n0,0,{top}\n0,1,3\n1,0,4\n1,1,5\n")
    json_path = tmp_path / "top.json"
    json_path.write_text(f'{{"counts": [[{top}, 3], [4, 5]]}}')
    for path in (csv_path, json_path):
        table = load_table(path, Source.EXPERIMENTAL)
        assert table.counts.astype(int).tolist() == [[top, 3], [4, 5]]


@pytest.mark.parametrize("counts,message", [
    ("[[NaN, 1], [3, 4]]", "counts must be nonnegative integers"),
    ("[[Infinity, 1], [3, 4]]", _TOO_LARGE),
    ("[[1" + "0" * 400 + ", 1], [3, 4]]", "int too large to convert to float"),
], ids=["nan", "infinity", "digits"])
def test_bad_strata_counts_name_the_file_and_stratum(tmp_path, counts, message):
    path = tmp_path / "strata.json"
    path.write_text(f'[{{"id": "s", "counts": {counts}}}]')
    with pytest.raises(DataFormatError) as err:
        load_strata_json(path)
    assert str(err.value) == f"{path}: stratum 's': {message}"
